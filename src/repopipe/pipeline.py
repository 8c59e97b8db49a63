"""Stage orchestration: filtering, dependency ordering, repo-level
dedup, quality screening + decontamination, and sample building, in
that fixed order, with per-stage checkpoint manifests.

Determinism contract: identical config + inputs produce byte-identical
outputs regardless of worker count. Everything order-sensitive is
sorted by repo_id, worker results are collected in submission order,
and per-document RNG streams derive from (seed, document index), never
from scheduling. Manifests carry no timestamps for the same reason.
"""

from __future__ import annotations

import collections
import functools
import hashlib
import itertools
import json
import os
import shutil
from array import array
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

from .config import PipelineConfig, config_hash, require_valid, sha256_file
from .corpus import LanguageMap, SourceFile, compute_file_stats, detect_language
from .decontam import ContaminationIndex, ContaminationReport, build_contamination_index, scan_text
from .dedup import find_near_duplicates, minhash_signature, signature_similarity
from .deps import concatenate_with_paths, order_repo_files
from .filters import (
    DATA_FILE_LANGUAGES,
    FilterThresholds,
    apply_base_filters,
    apply_quality_heuristics,
    filter_data_file,
    filter_html,
)
from .fim import FimConfig, fim_transform
from .ingest import RawRepo, load_repos, read_jsonl
from .packing import ByteTokenizer, pack_entries
from .stats import compute_corpus_stats, render_stats_table

FILES_OUT = "work/files.jsonl"
SAMPLES_OUT = "work/samples.jsonl"
DEDUP_OUT = "work/samples_dedup.jsonl"
CLEAN_OUT = "work/samples_clean.jsonl"
ENTRIES_DIR = "entries"
GRAPHS_OUT = "reports/graphs.jsonl"
DEDUP_REPORT = "reports/dedup_report.jsonl"
CONTAMINATION_REPORT = "reports/contamination_report.jsonl"
UNKNOWN_LANGUAGE = "(unknown)"


@dataclass(frozen=True)
class Stage:
    """One step of the pipeline. The runner hands `stage_<name>` a function
    that opens a lazy reader of `reads` (None: the ingested repos
    instead), and the stage writes its rows to `writes[0]` as it goes.
    `writes` names every file or directory the stage may write, and the
    runner deletes them all before the stage runs. `config` lists the
    dotted config fields the stage reads; its command takes the CLI
    flags that set them.
    """

    name: str
    reads: str | None
    writes: tuple[str, ...]
    config: tuple[str, ...]
    about: str


STAGES = (
    Stage("filter", None, (FILES_OUT,),
          ("inputs", "language_map", "filters", "stages.filter"), "quality filtering"),
    Stage("order", FILES_OUT, (SAMPLES_OUT, GRAPHS_OUT),
          ("stages.order", "dump_graphs"), "dependency-ordered concatenation"),
    Stage("dedup", SAMPLES_OUT, (DEDUP_OUT, DEDUP_REPORT),
          ("dedup", "stages.dedup"), "repo-level near-deduplication"),
    Stage("decontaminate", DEDUP_OUT, (CLEAN_OUT, CONTAMINATION_REPORT),
          ("decontaminate", "filters", "stages.decontaminate"), "screening + decontamination"),
    Stage("build", CLEAN_OUT, (ENTRIES_DIR,),
          ("build", "seed", "stages.build"), "FIM transform + packing"),
)


@dataclass
class StageResult:
    """What a stage function returns once it has written its files: each
    as (path, records), the one the next stage reads first; its record
    counts; and the manifest fields only it has.
    """

    outputs: list[tuple[str, int]]
    input_records: int
    output_records: int | None = None  # None: the records of outputs[0]
    counters: dict[str, int] = field(default_factory=dict)
    fields: dict = field(default_factory=dict)


class StageFailure(Exception):
    def __init__(self, stage: str, cause: Exception) -> None:
        self.stage = stage
        self.cause = cause
        super().__init__(f"stage {stage!r} failed: {cause}")


@dataclass
class RunSummary:
    completed_stages: list[str] = field(default_factory=list)
    skipped_stages: list[str] = field(default_factory=list)
    stats: dict | None = None  # the stats.json object
    output_files: list[str] = field(default_factory=list)


# -----------------------
# Small IO helpers
# -----------------------

def _write_jsonl(path: str, records: Iterable[dict]) -> int:
    """One UTF-8 line per record, as bytes, so no platform writes "\r\n"."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    n = 0
    with open(path, "wb") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True, ensure_ascii=False).encode())
            fh.write(b"\n")
            n += 1
    return n


def _write_output(cfg: PipelineConfig, rel: str, records: Iterable[dict]) -> tuple[str, int]:
    return rel, _write_jsonl(os.path.join(cfg.output_dir, rel), records)


def _read_jsonl(path: str) -> Iterator[dict]:
    """The file's records, one at a time; map holds no line it decoded,
    and `isspace` finds blank lines (a read line is never empty) uncopied."""
    with open(path, "r", encoding="utf-8") as fh:
        yield from map(json.loads, itertools.filterfalse(str.isspace, fh))


def _pmap_texts(fn: Callable, records: Iterable[dict], workers: int, shared: tuple) -> Iterator[tuple]:
    """(record, fn(record["text"], *shared)) for each record, in order;
    only texts go to `_pmap`, and records wait here while in flight."""
    held: collections.deque[dict] = collections.deque()

    def texts() -> Iterator[str]:
        for rec in records:
            held.append(rec)
            yield rec["text"]

    for result in _pmap(fn, texts(), workers, shared, len):
        yield held.popleft(), result


def _manifest_path(cfg: PipelineConfig, stage: str) -> str:
    return os.path.join(cfg.output_dir, "manifests", f"{stage}.json")


# -----------------------
# Parallel fan-out
# -----------------------

_shared: tuple = ()  # (fn, args) in a pool worker, set once by _init_shared
CHUNK_CHARS = 1 << 16  # text a pool task carries, unless one item holds more


def _init_shared(fn: Callable, args: tuple) -> None:
    global _shared
    _shared = (fn, args)


def _call_shared(chunk: list) -> list:
    fn, args = _shared
    return [fn(item, *args) for item in chunk]


def _chunks(items: Iterable, size: Callable | None, singles: int) -> Iterator[list]:
    """Runs of items: the first `singles` one item each, so that a few
    items still spread over the workers, then each run closed once the
    `size` of its items reaches CHUNK_CHARS (without `size`, one item)."""
    chunk, total = [], 0
    for n, item in enumerate(items):
        chunk.append(item)
        total += size(item) if size and n >= singles else CHUNK_CHARS
        if total >= CHUNK_CHARS:
            yield chunk
            chunk, total = [], 0
    if chunk:
        yield chunk


def _pmap(
    fn: Callable, items: Iterable, workers: int, shared: tuple = (), size: Callable | None = None
) -> Iterator:
    """Lazy order-preserving map of fn(item, *shared). With workers > 1
    it runs over a process pool, one `_chunks` run per task and at most
    2 * workers tasks in flight, so it holds a bounded window of items
    and results. The pool is no wider than its first window, since it
    starts every worker up front. `shared` reaches each pool worker
    once, through the pool initializer, not with every task."""
    items = iter(items)
    chunks = _chunks(items, size, 2 * workers)
    window = list(itertools.islice(chunks, 2 * workers)) if workers > 1 else []
    if len(window) <= 1:
        yield from (fn(item, *shared) for item in itertools.chain(*window, items))
        return
    from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing
    with ProcessPoolExecutor(
        max_workers=min(workers, len(window)), initializer=_init_shared, initargs=(fn, shared)
    ) as pool:
        pending = collections.deque(pool.submit(_call_shared, chunk) for chunk in window)
        while pending:
            done = pending.popleft().result()
            pending.extend(pool.submit(_call_shared, chunk) for chunk in itertools.islice(chunks, 1))
            yield from done


# -----------------------
# Stage 1: filter
# -----------------------

def _filter_repo_worker(
    raw_repo: RawRepo, thresholds: FilterThresholds, lang_map: LanguageMap, enabled: bool
) -> tuple[list[dict], dict[str, int]]:
    kept: list[dict] = []
    counters: collections.Counter[str] = collections.Counter()
    for rf in raw_repo.files:
        language = detect_language(rf.path, lang_map)
        if enabled and language is None:
            counters["unrecognized_language"] += 1
            continue
        byte_size = len(rf.content.encode("utf-8"))
        if enabled:
            sf = SourceFile(raw_repo.repo_id, rf.path, language, rf.content, byte_size)
            stats = compute_file_stats(sf.content)
            verdict = apply_base_filters(sf, stats, thresholds)
            if verdict.accepted and language == "HTML":
                verdict = filter_html(sf.content, thresholds)
            if verdict.accepted and language in DATA_FILE_LANGUAGES:
                verdict = filter_data_file(sf.content, language, thresholds)
            if not verdict.accepted:
                counters[verdict.rule_fired] += 1
                continue
        kept.append({
            "repo_id": raw_repo.repo_id, "path": rf.path, "language": language,
            "content": rf.content, "byte_size": byte_size,
        })
    return kept, counters


def ingest_and_fingerprint(cfg: PipelineConfig) -> tuple[list[RawRepo], dict[str, int], str]:
    """Load the raw corpus and fingerprint it (content digests plus the
    ingest drop counters) so stage-1 checkpoints can detect input drift.
    An input that cannot be read fails the filter stage.
    """
    counters: dict[str, int] = {}
    try:
        repos = load_repos(cfg.inputs, counters)
    except Exception as exc:
        raise StageFailure(STAGES[0].name, exc) from exc
    h = hashlib.sha256()
    for repo in repos:
        for rf in repo.files:
            h.update(repo.repo_id.encode("utf-8"))
            h.update(b"\x00")
            h.update(rf.path.encode("utf-8"))
            h.update(b"\x00")
            h.update(rf.sha256)
    h.update(json.dumps(counters, sort_keys=True).encode("utf-8"))
    return repos, counters, h.hexdigest()


def stage_filter(cfg: PipelineConfig, ingested: Sequence) -> StageResult:
    """Writes the kept files repo by repo, in repo_id order. `ingested`
    holds the repos and the counters that `ingest_and_fingerprint` returns."""
    raw_repos, ingest_counters = ingested
    shared = (cfg.filters, LanguageMap.load(cfg.language_map), cfg.stages.filter)
    size = lambda repo: sum(len(rf.content) for rf in repo.files)  # noqa: E731
    counters: collections.Counter[str] = collections.Counter()

    def rows() -> Iterator[dict]:
        for kept, repo_counters in _pmap(_filter_repo_worker, raw_repos, cfg.workers, shared, size):
            yield from kept
            counters.update(repo_counters)

    outputs = [_write_output(cfg, FILES_OUT, rows())]
    n_files = sum(len(r.files) for r in raw_repos)
    return StageResult(outputs, n_files, counters=counters, fields={
        "raw_records": n_files + sum(ingest_counters.values()),
        "ingest_counters": dict(sorted(ingest_counters.items())),
    })


# -----------------------
# Stage 2: order
# -----------------------

def _order_repo_worker(
    repo: tuple[str, list[dict]], enabled: bool
) -> tuple[dict, list[tuple[str, str]]]:
    repo_id, file_records = repo
    files = [SourceFile(**rec) for rec in file_records]
    if enabled:
        ordered, edges = order_repo_files(files)
    else:
        ordered, edges = list(files), []
    text = concatenate_with_paths(ordered)
    lang_bytes: collections.Counter[str] = collections.Counter()
    lang_files: collections.Counter[str] = collections.Counter()
    for f in files:
        lang = f.language or UNKNOWN_LANGUAGE
        lang_bytes[lang] += f.byte_size
        lang_files[lang] += 1
    record = {
        "repo_id": repo_id,
        "ordered_paths": [f.path for f in ordered],
        "char_count": len(text),
        "lang_bytes": dict(sorted(lang_bytes.items())),
        "lang_files": dict(sorted(lang_files.items())),
        "text": text,
    }
    return record, edges


def _repo_groups(file_records: Iterable[dict]) -> Iterator[tuple[str, list[dict]]]:
    """(repo_id, its file records) per run of one repo_id; filter writes
    repos in repo_id order, so one out of order raises."""
    last = None
    for repo_id, group in itertools.groupby(file_records, key=lambda rec: rec["repo_id"]):
        if last is not None and repo_id <= last:
            raise ValueError(f"{FILES_OUT}: repo {repo_id!r} comes after {last!r}")
        last = repo_id
        yield repo_id, list(group)


def stage_order(cfg: PipelineConfig, read: Callable[[], Iterator[dict]]) -> StageResult:
    """One repo at a time; every file read is in the paths written."""
    n_files = 0
    graphs: list[dict] = []
    size = lambda task: sum(len(rec["content"]) for rec in task[1])  # noqa: E731

    def rows() -> Iterator[dict]:
        nonlocal n_files
        tasks = _repo_groups(read())
        for record, edges in _pmap(_order_repo_worker, tasks, cfg.workers, (cfg.stages.order,), size):
            n_files += len(record["ordered_paths"])
            if cfg.dump_graphs:
                graphs.append({"repo_id": record["repo_id"], "edges": edges})
            yield record

    outputs = [_write_output(cfg, SAMPLES_OUT, rows())]
    if cfg.dump_graphs:
        outputs.append(_write_output(cfg, GRAPHS_OUT, graphs))
    return StageResult(outputs, n_files, fields={"output_file_total": n_files})


# -----------------------
# Stage 3: dedup
# -----------------------

def stage_dedup(cfg: PipelineConfig, read: Callable[[], Iterator[dict]]) -> StageResult:
    """Signs each sample on a first pass, writes the survivors on a second."""
    if not cfg.stages.dedup:
        main = _write_output(cfg, DEDUP_OUT, read())
        return StageResult([main], main[1])
    # Before the pool starts, so forked workers inherit numpy, not import it.
    import numpy  # noqa: F401
    d = cfg.dedup
    signatures: dict[str, array] = {}
    char_counts: dict[str, int] = {}
    shared = (d.num_perm, d.shingle_width, d.seed)
    for rec, sig in _pmap_texts(minhash_signature, read(), cfg.workers, shared):
        signatures[rec["repo_id"]] = array("Q", sig)
        char_counts[rec["repo_id"]] = rec["char_count"]
    clusters = find_near_duplicates(
        signatures, char_counts, threshold=d.threshold, bands=d.bands, rows=d.rows
    )
    drop: set[str] = set()
    for cluster in clusters:
        drop.update(rid for rid in cluster.member_repo_ids if rid != cluster.representative)
    outputs = []
    if d.report:
        report_rows = [
            {
                "members": list(c.member_repo_ids),
                "representative": c.representative,
                "similarity_to_representative": {
                    rid: round(
                        signature_similarity(signatures[rid], signatures[c.representative]), 4
                    )
                    for rid in c.member_repo_ids
                    if rid != c.representative
                },
            }
            for c in clusters
        ]
        outputs.append(_write_output(cfg, DEDUP_REPORT, report_rows))
    outputs.insert(0, _write_output(cfg, DEDUP_OUT, (rec for rec in read() if rec["repo_id"] not in drop)))
    counters = {"near_duplicate": len(drop)} if drop else {}
    return StageResult(outputs, len(signatures), counters=counters)


# -----------------------
# Stage 4: quality screening + decontamination
# -----------------------

def _screen(
    text: str, thresholds: FilterThresholds, heuristics_on: bool, index: ContaminationIndex | None
) -> tuple[str | None, ContaminationReport | None]:
    """Why a sample is dropped (None: kept), with its contamination report."""
    if heuristics_on:
        verdict = apply_quality_heuristics(text, thresholds)
        if not verdict.accepted:
            return verdict.rule_fired, None
    if index is not None and len(index):
        report = scan_text(text, index)
        if report.hit:
            return "contaminated", report
    return None, None


def load_benchmark_strings(paths: Sequence[str]) -> list[tuple[str, str]]:
    """Benchmark test data as (text, benchmark) pairs from JSONL files
    of {"text": ..., "benchmark": ...} records; a missing benchmark
    field falls back to the file's basename. A malformed line, one that
    is not UTF-8 included, raises ValueError naming its path and line
    number.
    """
    rows: list[tuple[str, str]] = []
    for path in paths:
        default_label = os.path.splitext(os.path.basename(path))[0]
        for number, obj, problem in read_jsonl(path):
            if problem is not None:
                raise ValueError(f"{path}:{number}: {problem}")
            if not isinstance(obj, dict) or "text" not in obj:
                raise ValueError(f'{path}:{number}: not an object with a "text" field')
            text, label = obj["text"], obj.get("benchmark", default_label)
            if not (isinstance(text, str) and isinstance(label, str)):
                raise ValueError(f'{path}:{number}: "text" and "benchmark" must be strings')
            rows.append((text, label))
    return rows


def stage_decontaminate(cfg: PipelineConfig, read: Callable[[], Iterator[dict]]) -> StageResult:
    """Screens and writes one sample at a time."""
    if not cfg.stages.decontaminate:
        main = _write_output(cfg, CLEAN_OUT, read())
        return StageResult([main], main[1], fields={"benchmark_strings_skipped_short": 0})
    index: ContaminationIndex | None = None
    if cfg.decontaminate.benchmark_files:
        index = build_contamination_index(load_benchmark_strings(cfg.decontaminate.benchmark_files))
    shared = (cfg.filters, cfg.decontaminate.quality_heuristics, index)
    counters: collections.Counter[str] = collections.Counter()
    report_rows: list[dict] = []

    def clean() -> Iterator[dict]:
        for rec, (reason, report) in _pmap_texts(_screen, read(), cfg.workers, shared):
            if reason is None:
                yield rec
                continue
            counters[reason] += 1
            if report is not None:
                report_rows.append({
                    "repo_id": rec["repo_id"],
                    "benchmarks": list(report.benchmarks),
                    "matched_entries": list(report.matched_entries),
                })

    outputs = [_write_output(cfg, CLEAN_OUT, clean())]
    if cfg.decontaminate.report and index is not None:
        outputs.append(_write_output(cfg, CONTAMINATION_REPORT, report_rows))
    # Every sample is either written or counted under one reason.
    n_records = outputs[0][1] + sum(counters.values())
    return StageResult(outputs, n_records, counters=counters, fields={
        "benchmark_strings_skipped_short": index.skipped_short if index is not None else 0,
    })


# -----------------------
# Stage 5: build (FIM + packing)
# -----------------------

def _bin_shard(fh, shard: Iterable[tuple]) -> Iterator[dict]:
    """Write each row of the shard to `fh`; yield its boundaries record."""
    for row, bounds in shard:
        fh.write(row.astype("<u4", copy=False))
        yield {"doc_boundaries": bounds}


def _write_entries(cfg: PipelineConfig, rows: Iterator[tuple]) -> list[tuple[str, int]]:
    """Write the (entry, doc_boundaries) rows to shards of
    entries_per_shard rows, each row as it comes and each shard closed
    once full; an empty build still writes one (empty) shard."""
    os.makedirs(os.path.join(cfg.output_dir, ENTRIES_DIR), exist_ok=True)
    outputs: list[tuple[str, int]] = []
    for shard_idx in itertools.count():
        first = next(rows, None)
        if first is None and shard_idx:
            return outputs
        shard = itertools.islice(itertools.chain([first], rows), cfg.build.entries_per_shard) if first else ()
        stem = f"{ENTRIES_DIR}/entries-{shard_idx:05d}"
        if cfg.build.output_format == "bin":
            with open(os.path.join(cfg.output_dir, stem + ".bin"), "wb") as fh:
                rel, n = _write_output(cfg, stem + ".boundaries.jsonl", _bin_shard(fh, shard))
            outputs += [(stem + ".bin", n), (rel, n)]
        else:
            records = ({"token_ids": row.tolist(), "doc_boundaries": b} for row, b in shard)
            outputs.append(_write_output(cfg, stem + ".jsonl", records))


def stage_build(cfg: PipelineConfig, read: Callable[[], Iterator[dict]]) -> StageResult:
    """Disabled, the stage writes no entries. Enabled, it transforms one
    record, then encodes and packs it a slice at a time and writes each
    entry once it is full, so it holds one document, one slice's ids and
    the unfilled entry. (A slice is rejected only for a lone surrogate,
    which no earlier stage can write, so no document is cut short.)"""
    fields = {"entry_len": cfg.build.entry_len, "fim_applied": 0, "total_tokens": 0,
              "dropped_tokens": 0, "padded_tokens": 0}
    records = read()
    if not cfg.stages.build:
        return StageResult([], sum(1 for _ in records), 0, fields=fields)
    sentinels = cfg.build.sentinel_set()
    fim_cfg = FimConfig(fim_rate=cfg.build.fim_rate, mode=cfg.build.fim_mode, seed=cfg.seed)
    tokenizer = ByteTokenizer(sentinels)
    counters: collections.Counter[str] = collections.Counter()
    n_records = n_entries = 0

    def pack(docs: list[str], carry: tuple, pad_final: bool = False, continued: bool = False):
        """Pack `docs` after `carry`; yield copies of the rows, so a row
        the writer still holds keeps no slice's ids; return the carry."""
        nonlocal n_entries
        result = pack_entries(docs, tokenizer, cfg.build.entry_len, pad_final, carry, continued)
        if result.skipped_docs:
            counters["tokenizer_failure"] += result.skipped_docs
        n_entries += len(result.entries)
        fields["total_tokens"] += result.total_tokens
        fields.update(dropped_tokens=result.dropped_tokens, padded_tokens=result.padded_tokens)
        for row, bounds in zip(result.entries, result.doc_boundaries):
            yield row.copy(), bounds
        return result.carry

    def rows() -> Iterator[tuple]:
        nonlocal n_records
        carry: tuple = ((), ())
        for n_records, rec in enumerate(records, 1):
            doc = fim_transform(rec.pop("text"), n_records - 1, fim_cfg, sentinels)
            if doc is None:
                counters["sentinel_collision"] += 1
                continue
            fields["fim_applied"] += doc.startswith(sentinels.fim_start)
            for k, piece in enumerate(tokenizer.slices(doc)):
                carry = yield from pack([piece], carry, continued=k > 0)
        yield from pack([], carry, cfg.build.pad_final)

    outputs = _write_entries(cfg, rows())
    return StageResult(outputs, n_records, n_entries, counters, fields)


# -----------------------
# Stats
# -----------------------

def emit_stats(cfg: PipelineConfig, chain: list[dict] | None = None) -> dict:
    """Summarise the last stage done: per-language sizes from the file
    the stage after the chain would read (after build, build's input),
    drop counters from the manifests of `chain` (None: `_chain(cfg)`).
    Renders the summary table and writes stats.txt / stats.json; returns
    the stats.json object. With no stage done it writes nothing and
    raises StageFailure.
    """
    chain = _chain(cfg) if chain is None else chain
    if not chain:
        raise StageFailure("stats", RuntimeError(f"no stage has completed in {cfg.output_dir}"))
    source = STAGES[min(len(chain), len(STAGES) - 1)].reads
    drops: dict[str, dict[str, int]] = {}
    for stage, manifest in zip(STAGES, chain):
        if manifest.get("ingest_counters"):
            drops["ingest"] = dict(manifest["ingest_counters"])
        if manifest.get("counters"):
            drops[stage.name] = dict(manifest["counters"])
    lang_bytes: collections.Counter[str] = collections.Counter()
    lang_files: collections.Counter[str] = collections.Counter()
    if source is not None:
        records = _read_jsonl(os.path.join(cfg.output_dir, source))
        if source == FILES_OUT:
            for rec in records:
                lang = rec["language"] or UNKNOWN_LANGUAGE
                lang_bytes[lang] += rec["byte_size"]
                lang_files[lang] += 1
        else:
            for rec in records:
                lang_bytes.update(rec["lang_bytes"])
                lang_files.update(rec["lang_files"])
    stats = compute_corpus_stats(lang_bytes, lang_files, drops)
    with open(os.path.join(cfg.output_dir, "stats.txt"), "w", encoding="utf-8") as fh:
        fh.write(render_stats_table(stats))
    with open(os.path.join(cfg.output_dir, "stats.json"), "w", encoding="utf-8") as fh:
        json.dump(stats, fh, sort_keys=True, indent=2, ensure_ascii=False)
        fh.write("\n")
    return stats


# -----------------------
# Orchestration
# -----------------------

def _input_digest(manifest: dict) -> str:
    """sha256 of the file the next stage reads: the stage's first output."""
    return manifest["outputs"][0]["sha256"]


def _done(cfg: PipelineConfig, stage: Stage, upstream: str | None, key: str | None = None) -> dict | None:
    """The stage's manifest if it parses to an object that records a
    completed run on the input whose digest is `upstream` (None: any
    input) under the config `key` (None: any), and every output it lists
    is a regular file that still has its recorded sha256.
    """
    try:
        with open(_manifest_path(cfg, stage.name), "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, ValueError):  # missing, not UTF-8 or not JSON
        return None
    if (
        not isinstance(manifest, dict)
        or not manifest.get("completed")
        or upstream is not None and manifest.get("upstream") != upstream
        or key is not None and manifest.get("config_hash") != key
    ):
        return None
    for entry in manifest["outputs"]:
        path = os.path.join(cfg.output_dir, entry["path"])
        if not os.path.isfile(path) or sha256_file(path) != entry["sha256"]:
            return None
    return manifest


def _chain(cfg: PipelineConfig) -> list[dict]:
    """Manifests of the longest prefix of STAGES that is done, each stage
    after the first naming as `upstream` the digest of its predecessor's
    first output: what a stage command and `stats` build on.
    """
    chain: list[dict] = []
    for stage in STAGES:
        manifest = _done(cfg, stage, _input_digest(chain[-1]) if chain else None)
        if manifest is None:
            break
        chain.append(manifest)
    return chain


def _clear(cfg: PipelineConfig, stage: Stage) -> None:
    """Delete the stage's manifest, then every path it writes."""
    owned = [os.path.join(cfg.output_dir, rel) for rel in stage.writes]
    for path in (_manifest_path(cfg, stage.name), *owned):
        if os.path.isdir(path):
            shutil.rmtree(path)
        elif os.path.lexists(path):
            os.remove(path)


def _execute(cfg: PipelineConfig, stage: Stage, upstream: str, key: str, ingested=None) -> dict:
    """Run one stage and write its manifest. The stage's manifest and
    files are deleted first and the new manifest is written last, so its
    outputs are exactly what its last completed run wrote, and a stage
    cut short leaves no manifest and the next run redoes it.
    """
    try:
        _clear(cfg, stage)
        if stage.reads is None:
            source = ingested
        else:
            source = functools.partial(_read_jsonl, os.path.join(cfg.output_dir, stage.reads))
        # Looked up at call time, so the stage functions can be wrapped.
        result = globals()[f"stage_{stage.name}"](cfg, source)
        manifest = {
            "stage": stage.name,
            "completed": True,
            "config_hash": key,
            "upstream": upstream,
            "input_records": result.input_records,
            "output_records": (
                result.outputs[0][1] if result.output_records is None else result.output_records
            ),
            "counters": dict(sorted(result.counters.items())),
            "outputs": [
                {"path": rel, "sha256": sha256_file(os.path.join(cfg.output_dir, rel)),
                 "records": n}
                for rel, n in result.outputs
            ],
            **result.fields,
        }
        path = _manifest_path(cfg, stage.name)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, sort_keys=True, indent=2, ensure_ascii=False)
            fh.write("\n")
        return manifest
    except Exception as exc:  # halt with the stage name attached
        raise StageFailure(stage.name, exc) from exc


def run_stage(cfg: PipelineConfig, name: str) -> dict:
    """Run the named stage now, whatever its manifest says, and return
    its new manifest. Every stage after the first needs the one before
    it in the chain; without it, StageFailure names the first stage
    missing.
    """
    require_valid(cfg)
    i = [stage.name for stage in STAGES].index(name)
    if i == 0:
        *ingested, upstream = ingest_and_fingerprint(cfg)
        return _execute(cfg, STAGES[0], upstream, config_hash(cfg), ingested)
    chain = _chain(cfg)
    if len(chain) < i:
        missing = STAGES[len(chain)].name
        raise StageFailure(name, RuntimeError(f"stage {missing!r} has not completed"))
    return _execute(cfg, STAGES[i], _input_digest(chain[i - 1]), config_hash(cfg))


def run_pipeline(cfg: PipelineConfig) -> RunSummary:
    """Execute every stage in order, skipping stages whose checkpoint
    manifest is still valid; a re-run after interruption therefore
    resumes after the last completed stage.
    """
    require_valid(cfg)
    os.makedirs(cfg.output_dir, exist_ok=True)
    summary = RunSummary()
    key = config_hash(cfg)

    *ingested, upstream = ingest_and_fingerprint(cfg)
    chain: list[dict] = []
    for stage in STAGES:
        if chain:  # the previous stage's first output
            ingested, upstream = None, _input_digest(chain[-1])
        manifest = _done(cfg, stage, upstream, key)
        if manifest is None:
            manifest = _execute(cfg, stage, upstream, key, ingested)
            summary.completed_stages.append(stage.name)
        else:
            summary.skipped_stages.append(stage.name)
        chain.append(manifest)
    summary.output_files = [entry["path"] for entry in manifest["outputs"]]

    summary.stats = emit_stats(cfg, chain)
    run_record = {
        "config_hash": key,
        "stages_completed": summary.completed_stages,
        "stages_skipped": summary.skipped_stages,
        "output_files": summary.output_files,
    }
    with open(os.path.join(cfg.output_dir, "run.json"), "w", encoding="utf-8") as fh:
        json.dump(run_record, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return summary
