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
import importlib
import itertools
import json
import os
import shutil
from array import array
from dataclasses import dataclass, field
from typing import BinaryIO, Callable, Iterable, Iterator, Sequence

from .config import FilterThresholds, PipelineConfig, config_hash, require_valid, sha256_file
from .ingest import RawRepo, load_repos, read_jsonl
from .stats import compute_corpus_stats, render_stats_table

# The kernel names the stages use, by module, bound into this namespace
# before a stage runs or on first access from outside, so a resume and
# `stats` load no kernel module. The stages call the bare names, so a
# function set here in place of one (a tracer's wrapper) is the one called.
_KERNELS = {
    "corpus": ("LanguageMap", "SourceFile", "compute_file_stats", "detect_language"),
    "decontam": ("ContaminationIndex", "ContaminationReport", "build_contamination_index", "scan_text"),
    "dedup": ("find_near_duplicates", "minhash_signature", "signature_similarity"),
    "deps": ("concatenate_with_paths", "order_repo_files"),
    "filters": ("DATA_FILE_LANGUAGES", "apply_base_filters", "apply_quality_heuristics",
                "filter_data_file", "filter_html"),
    "packing": ("ByteTokenizer", "FimConfig", "fim_transform", "pack_entries"),
}


def _bind_kernels() -> None:
    """Import the kernel modules and bind each `_KERNELS` name this
    namespace lacks; a name already set here stays."""
    namespace = globals()
    for module, names in _KERNELS.items():
        mod = importlib.import_module(f".{module}", __package__)
        for name in names:
            namespace.setdefault(name, getattr(mod, name))


def __getattr__(name: str):
    """`pipeline.<kernel name>` before any stage ran (PEP 562)."""
    if any(name in names for names in _KERNELS.values()):
        _bind_kernels()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
    that opens a lazy reader of `reads`, `_read_jsonl` on that file (None:
    the ingested repos instead), and the `_Out` sink it writes its rows
    through as it goes, the first file opened there being the one the
    next stage reads. `writes` names every file or directory the stage
    may write, and the runner deletes them all before the stage runs.
    `config` lists the dotted config fields the stage reads; its command
    takes the CLI flags that set them.
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

def _write_json(path: str, obj: dict) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2, ensure_ascii=False)
        fh.write("\n")


class _Out:
    """The files one stage writes under `root`, in the order opened, and
    the rows written to each; `counters` and `fields` take the stage's
    drops and the manifest fields it sets over the runner's defaults."""

    def __init__(self, root: str) -> None:
        self.root = root
        self.rows: dict[str, int] = {}  # every file opened: rows written
        self.files: dict[str, BinaryIO] = {}  # the files still open
        self.counters: collections.Counter[str] = collections.Counter()
        self.fields: dict = {}

    def open(self, rel: str) -> None:
        path = os.path.join(self.root, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        self.files[rel] = open(path, "wb")
        self.rows[rel] = 0

    def write(self, rel: str, data) -> None:
        """One row of raw bytes, or of any buffer, such as an array."""
        self.files[rel].write(data)
        self.rows[rel] += 1

    def row(self, rel: str, rec: dict) -> None:
        """One UTF-8 line, as bytes, so no platform writes "\r\n"."""
        self.write(rel, json.dumps(rec, sort_keys=True, ensure_ascii=False).encode())
        self.files[rel].write(b"\n")  # not appended: that would copy a sample's bytes

    def close(self, *rels: str) -> None:
        """Close the named files (none named: every one still open)."""
        for rel in rels or list(self.files):
            self.files.pop(rel).close()


def _read_jsonl(path: str, raw: bool = False) -> Iterator:
    """The file's records, one at a time, or with `raw` the lines that
    hold them, as read, "\n" included. Both come from one line reader, so
    the n-th line holds the n-th record. Each map holds no line it
    decoded, so a line's bytes are freed before its text is parsed, and
    `isspace` finds blank lines (a read line is never empty) uncopied."""
    with open(path, "rb") as fh:
        lines = itertools.filterfalse(bytes.isspace, fh)
        yield from lines if raw else map(json.loads, map(bytes.decode, lines))


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
# Text `_pmap` maps in-process before it starts a pool: the smallest stage
# input at which 2 workers beat 1, each stage timed in a fresh process (the
# crossover table in CHANGES.md). Below it, no pool repaid its start-up.
POOL_MIN_CHARS = 1 << 20


def _init_shared(fn: Callable, args: tuple) -> None:
    global _shared
    _shared = (fn, args)


def _call_shared(chunk: list) -> list:
    fn, args = _shared
    return [fn(item, *args) for item in chunk]


def _chunks(items: Iterable, size: Callable) -> Iterator[list]:
    """Runs of items, each closed once the `size` of its items reaches
    CHUNK_CHARS; a run shorter than that is left only at the end."""
    chunk, total = [], 0
    for item in items:
        chunk.append(item)
        total += size(item)
        if total >= CHUNK_CHARS:
            yield chunk
            chunk, total = [], 0
    if chunk:
        yield chunk


def _pmap(fn: Callable, items: Iterable, workers: int, shared: tuple, size: Callable) -> Iterator:
    """Lazy order-preserving map of fn(item, *shared). With workers > 1
    it maps items in-process until their `size` reaches POOL_MIN_CHARS,
    and the rest over a process pool, one `_chunks` run per task and at
    most 2 * workers tasks in flight, so it holds a bounded window of
    items and results. A rest of one run or less stays in-process. The
    pool is no wider than its first window, since it starts every worker
    up front. It forks, so `shared` reaches each worker once, unpickled,
    through the pool initializer, and the workers inherit the parent's
    imports."""
    items = iter(items)
    mapped = 0
    for item in items if workers > 1 and POOL_MIN_CHARS > 0 else ():
        mapped += size(item)
        yield fn(item, *shared)
        if mapped >= POOL_MIN_CHARS:
            break
    chunks = _chunks(items, size)
    window = list(itertools.islice(chunks, 2 * workers)) if workers > 1 else []
    if len(window) <= 1:
        yield from (fn(item, *shared) for item in itertools.chain(*window, items))
        return
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(
        max_workers=min(workers, len(window)), mp_context=multiprocessing.get_context("fork"),
        initializer=_init_shared, initargs=(fn, shared),
    ) as pool:
        pending = collections.deque(pool.submit(_call_shared, chunk) for chunk in window)
        while pending:
            done = pending.popleft().result()
            pending.extend(pool.submit(_call_shared, chunk) for chunk in itertools.islice(chunks, 1))
            yield from done


# -----------------------
# Stage 1: filter
# -----------------------

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
        repo_id = repo.repo_id.encode("utf-8")
        for rf in repo.files:
            h.update(b"%s\0%s\0%s" % (repo_id, rf.path.encode("utf-8"), rf.sha256))
    h.update(json.dumps(counters, sort_keys=True).encode("utf-8"))
    return repos, counters, h.hexdigest()


def stage_filter(cfg: PipelineConfig, ingested: Sequence, out: _Out) -> None:
    """Judges and writes one file at a time, repo by repo, in repo_id
    order. `ingested` holds the repos and the counters that
    `ingest_and_fingerprint` returns. It never pools, at any worker count:
    its kernel is the cheapest per character, and a pool would pickle
    every file out and each kept one back."""
    raw_repos, ingest_counters = ingested
    lang_map = LanguageMap.load(cfg.language_map)
    thresholds, enabled = cfg.filters, cfg.stages.filter
    out.open(FILES_OUT)
    for repo in raw_repos:
        for rf in repo.files:
            language = detect_language(rf.path, lang_map)
            if enabled and language is None:
                out.counters["unrecognized_language"] += 1
                continue
            sf = SourceFile(repo.repo_id, rf.path, language, rf.content, len(rf.content.encode("utf-8")))
            if enabled:
                verdict = apply_base_filters(sf, compute_file_stats(sf.content), thresholds)
                if verdict.accepted and language == "HTML":
                    verdict = filter_html(sf.content, thresholds)
                if verdict.accepted and language in DATA_FILE_LANGUAGES:
                    verdict = filter_data_file(sf.content, language, thresholds)
                if not verdict.accepted:
                    out.counters[verdict.rule_fired] += 1
                    continue
            out.row(FILES_OUT, vars(sf))
    n_files = sum(len(r.files) for r in raw_repos)
    out.fields.update(input_records=n_files, raw_records=n_files + sum(ingest_counters.values()),
                      ingest_counters=dict(sorted(ingest_counters.items())))


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


def stage_order(cfg: PipelineConfig, read: Callable[[], Iterator[dict]], out: _Out) -> None:
    """One repo at a time, with its edges; every file read is in the paths written."""
    n_files = 0
    size = lambda task: sum(len(rec["content"]) for rec in task[1])  # noqa: E731
    out.open(SAMPLES_OUT)
    if cfg.dump_graphs:
        out.open(GRAPHS_OUT)
    tasks = _repo_groups(read())
    for record, edges in _pmap(_order_repo_worker, tasks, cfg.workers, (cfg.stages.order,), size):
        n_files += len(record["ordered_paths"])
        out.row(SAMPLES_OUT, record)
        if cfg.dump_graphs:
            out.row(GRAPHS_OUT, {"repo_id": record["repo_id"], "edges": edges})
    out.fields.update(input_records=n_files, output_file_total=n_files)


# -----------------------
# Stage 3: dedup
# -----------------------

def stage_dedup(cfg: PipelineConfig, read: Callable[..., Iterator], out: _Out) -> None:
    """Signs each sample on a first pass; the second copies the survivors'
    lines as read."""
    out.open(DEDUP_OUT)
    if not cfg.stages.dedup:
        for line in read(raw=True):
            out.write(DEDUP_OUT, line)
        return
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
    if d.report:
        out.open(DEDUP_REPORT)
        for c in clusters:
            out.row(DEDUP_REPORT, {
                "members": list(c.member_repo_ids),
                "representative": c.representative,
                "similarity_to_representative": {
                    rid: round(
                        signature_similarity(signatures[rid], signatures[c.representative]), 4
                    )
                    for rid in c.member_repo_ids
                    if rid != c.representative
                },
            })
        out.close(DEDUP_REPORT)
    # The n-th line holds the n-th record signed, and order wrote each line
    # as `out.row` would write the record, so survivors are copied as read.
    for repo_id, line in zip(signatures, read(raw=True), strict=True):
        if repo_id not in drop:
            out.write(DEDUP_OUT, line)
    if drop:
        out.counters["near_duplicate"] = len(drop)


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


def load_benchmark_strings(paths: Sequence[str]) -> Iterator[tuple[str, str]]:
    """Benchmark test data as (text, benchmark) pairs from JSONL files
    of {"text": ..., "benchmark": ...} records, one at a time; a missing
    benchmark field falls back to the file's basename. A malformed line,
    one that is not UTF-8 or escapes a lone surrogate included, raises
    ValueError naming its path and line number.
    """
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
            try:  # a JSON `\ud800` escape, which no UTF-8 report row can hold
                (text + label).encode("utf-8")
            except UnicodeEncodeError:
                raise ValueError(f'{path}:{number}: a lone surrogate in "text" or "benchmark"') from None
            yield text, label


def stage_decontaminate(cfg: PipelineConfig, read: Callable[..., Iterator], out: _Out) -> None:
    """Screens and writes one sample at a time, and its report row."""
    out.open(CLEAN_OUT)
    out.fields["benchmark_strings_skipped_short"] = 0
    if not cfg.stages.decontaminate:
        for line in read(raw=True):
            out.write(CLEAN_OUT, line)
        return
    index: ContaminationIndex | None = None
    if cfg.decontaminate.benchmark_files:
        index = build_contamination_index(load_benchmark_strings(cfg.decontaminate.benchmark_files))
        out.fields["benchmark_strings_skipped_short"] = index.skipped_short
    reported = cfg.decontaminate.report and index is not None
    if reported:
        out.open(CONTAMINATION_REPORT)
    shared = (cfg.filters, cfg.decontaminate.quality_heuristics, index)
    for rec, (reason, report) in _pmap_texts(_screen, read(), cfg.workers, shared):
        if reason is None:
            out.row(CLEAN_OUT, rec)
            continue
        out.counters[reason] += 1
        if report is not None and reported:
            out.row(CONTAMINATION_REPORT, {
                "repo_id": rec["repo_id"],
                "benchmarks": list(report.benchmarks),
                "matched_entries": list(report.matched_entries),
            })


# -----------------------
# Stage 5: build (FIM + packing)
# -----------------------

def _entry_line(n_ids: int) -> Callable[[Sequence[int], list[int]], bytes]:
    """A function from an entry's ids, each below `n_ids`, and its
    doc_boundaries to the line, "\n" included, that the sink's `row`
    writes for {"token_ids": ids, "doc_boundaries": bounds}. It gathers
    each id's digits and ", " from a table of zero-padded rows, built
    once, and cuts the zeros and the last ", "; an id past the table
    raises IndexError."""
    import numpy as np
    table = np.array([b"%d, " % i for i in range(n_ids)])

    def line(ids: Sequence[int], bounds: list[int]) -> bytes:
        body = table[ids].tobytes().replace(b"\0", b"")[:-2]
        return b'{"doc_boundaries": %s, "token_ids": [%s]}\n' % (json.dumps(bounds).encode(), body)
    return line


def stage_build(cfg: PipelineConfig, read: Callable[..., Iterator], out: _Out) -> None:
    """Disabled, the stage writes no entries. Enabled, it transforms one
    record, then encodes and packs it a slice at a time and writes each
    entry as it is packed, so it holds one document, one slice's ids and
    the unfilled entry. Shard 0 opens at the start, so an empty build
    writes one empty shard; shard k opens at entry k * entries_per_shard
    and closes shard k - 1. (A slice is rejected only for a lone
    surrogate, which no earlier stage can write, so no document is cut
    short.)"""
    fields = out.fields
    fields.update(entry_len=cfg.build.entry_len, fim_applied=0, total_tokens=0, dropped_tokens=0,
                  padded_tokens=0, input_records=0, output_records=0)
    if not cfg.stages.build:
        fields["input_records"] = sum(1 for _ in read(raw=True))
        return
    sentinels = cfg.build.sentinel_set()
    fim_cfg = FimConfig(fim_rate=cfg.build.fim_rate, mode=cfg.build.fim_mode, seed=cfg.seed)
    tokenizer = ByteTokenizer(sentinels)
    line = _entry_line(tokenizer.vocab_size)
    per_shard, to_bin = cfg.build.entries_per_shard, cfg.build.output_format == "bin"

    def open_shard(k: int) -> tuple[str, ...]:
        """Close the open shard, open shard k and return its files."""
        out.close()
        stem = f"{ENTRIES_DIR}/entries-{k:05d}"
        files = (stem + ".bin", stem + ".boundaries.jsonl") if to_bin else (stem + ".jsonl",)
        for rel in files:
            out.open(rel)
        return files

    def pack(docs: list[str], carry: tuple, pad_final: bool = False, continued: bool = False) -> tuple:
        """Pack `docs` after `carry`, write each row to its shard, and
        return the new carry."""
        nonlocal shard
        result = pack_entries(docs, tokenizer, cfg.build.entry_len, pad_final, carry, continued)
        if result.skipped_docs:
            out.counters["tokenizer_failure"] += result.skipped_docs
        fields["total_tokens"] += result.total_tokens
        fields.update(dropped_tokens=result.dropped_tokens, padded_tokens=result.padded_tokens)
        for row, bounds in zip(result.entries, result.doc_boundaries):
            n = fields["output_records"]
            if n and not n % per_shard:
                shard = open_shard(n // per_shard)
            if to_bin:
                out.write(shard[0], row.astype("<u4", copy=False))
                out.row(shard[1], {"doc_boundaries": bounds})
            else:
                out.write(shard[0], line(row, bounds))
            fields["output_records"] = n + 1
        return result.carry

    shard = open_shard(0)
    carry: tuple = ((), ())
    for i, rec in enumerate(read()):
        fields["input_records"] = i + 1
        doc = fim_transform(rec.pop("text"), i, fim_cfg, sentinels)
        if doc is None:
            out.counters["sentinel_collision"] += 1
            continue
        fields["fim_applied"] += doc.startswith(sentinels.fim_start)
        for k, piece in enumerate(tokenizer.slices(doc)):
            carry = pack([piece], carry, continued=k > 0)
    pack([], carry, cfg.build.pad_final)


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
    _write_json(os.path.join(cfg.output_dir, "stats.json"), stats)
    return stats


# -----------------------
# Orchestration
# -----------------------

def _input_digest(manifest: dict) -> str:
    """sha256 of the file the next stage reads: the stage's first output."""
    return manifest["outputs"][0]["sha256"]


def _read_manifest(cfg: PipelineConfig, stage: Stage) -> dict | None:
    """The stage's manifest if it parses to a JSON object."""
    try:
        with open(_manifest_path(cfg, stage.name), "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, ValueError):  # missing, not UTF-8 or not JSON
        return None
    return manifest if isinstance(manifest, dict) else None


def _done(cfg: PipelineConfig, stage: Stage, upstream: str | None, key: str | None = None) -> dict | None:
    """The stage's manifest if it parses to an object that records a
    completed run on the input whose digest is `upstream` (None: any
    input) under the config `key` (None: any), its `outputs` is a list of
    objects with string `path` and `sha256`, and every output it lists
    is a regular file that still has its recorded sha256.
    """
    manifest = _read_manifest(cfg, stage)
    if (
        manifest is None
        or not manifest.get("completed")
        or upstream is not None and manifest.get("upstream") != upstream
        or key is not None and manifest.get("config_hash") != key
    ):
        return None
    outputs = manifest.get("outputs")
    # Every stage but the last has a reader, which needs its first output.
    if not isinstance(outputs, list) or not (outputs or stage is STAGES[-1]):
        return None
    for entry in outputs:
        if not isinstance(entry, dict) or not all(isinstance(entry.get(k), str) for k in ("path", "sha256")):
            return None
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
        _bind_kernels()
        out = _Out(cfg.output_dir)
        try:
            # Looked up at call time, so the stage functions can be wrapped.
            globals()[f"stage_{stage.name}"](cfg, source, out)
        finally:
            out.close()
        n_out = next(iter(out.rows.values()), 0)
        manifest = {
            "stage": stage.name,
            "completed": True,
            "config_hash": key,
            "upstream": upstream,
            # Unless the stage counts its input: every record written or dropped.
            "input_records": n_out + sum(out.counters.values()),
            "output_records": n_out,
            "counters": dict(sorted(out.counters.items())),
            "outputs": [
                {"path": rel, "sha256": sha256_file(os.path.join(cfg.output_dir, rel)),
                 "records": n}
                for rel, n in out.rows.items()
            ],
            **out.fields,
        }
        _write_json(_manifest_path(cfg, stage.name), manifest)
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
    _bind_kernels()
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
    # A stage will run unless the last one is done under this key, so bind
    # the kernels now: importing them after ingest, with every repo held,
    # raised a fresh run's peak RSS. `_done` still decides what runs.
    last = _read_manifest(cfg, STAGES[-1])
    if last is None or last.get("config_hash") != key:
        _bind_kernels()
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
    _write_json(os.path.join(cfg.output_dir, "run.json"), run_record)
    return summary
