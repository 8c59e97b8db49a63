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

import hashlib
import itertools
import json
import os
import shutil
from concurrent.futures import ProcessPoolExecutor
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
from .ingest import RawRepo, load_repos
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
    """One step of the pipeline. The runner hands `stage_<name>` a lazy
    reader of the records of `reads` (None: the ingested repos) and
    writes the rows it returns to `writes[0]`. `writes` names every file
    or directory the stage may write, and the runner deletes them all
    before the stage runs. `config` lists the dotted config fields the
    stage reads; its command takes the CLI flags that set them.
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
    """What a stage function returns: `rows` for its main output (None
    when it writes that itself, as build does), the other files it wrote
    as (path, records), and the manifest fields only it has.
    """

    rows: list[dict] | None
    input_records: int
    output_records: int | None = None  # None: len(rows)
    counters: dict[str, int] = field(default_factory=dict)
    outputs: list[tuple[str, int]] = field(default_factory=list)
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
    os.makedirs(os.path.dirname(path), exist_ok=True)
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True, ensure_ascii=False))
            fh.write("\n")
            n += 1
    return n


def _write_output(cfg: PipelineConfig, rel: str, records: Iterable[dict]) -> tuple[str, int]:
    return rel, _write_jsonl(os.path.join(cfg.output_dir, rel), records)


def _read_jsonl(path: str) -> Iterator[dict]:
    """The file's records, one at a time; map holds no line it decoded."""
    with open(path, "r", encoding="utf-8") as fh:
        yield from map(json.loads, filter(str.strip, fh))


def _manifest_path(cfg: PipelineConfig, stage: str) -> str:
    return os.path.join(cfg.output_dir, "manifests", f"{stage}.json")


def _load_manifest(cfg: PipelineConfig, stage: str) -> dict | None:
    try:
        with open(_manifest_path(cfg, stage), "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None


# -----------------------
# Parallel fan-out
# -----------------------

_shared: tuple = ()  # (fn, args) in a pool worker, set once by _init_shared


def _init_shared(fn: Callable, args: tuple) -> None:
    global _shared
    _shared = (fn, args)


def _call_shared(item):
    fn, args = _shared
    return fn(item, *args)


def _pmap(fn: Callable, items: Sequence, workers: int, shared: tuple = ()) -> list:
    """Order-preserving map of fn(item, *shared), optionally over a
    process pool no wider than `items`, since the pool starts every
    worker up front. `shared` reaches each pool worker once, through
    the pool initializer, not with every task."""
    workers = min(workers, len(items))
    if workers <= 1:
        return [fn(item, *shared) for item in items]
    chunksize = max(1, len(items) // (workers * 4))
    with ProcessPoolExecutor(
        max_workers=workers, initializer=_init_shared, initargs=(fn, shared)
    ) as pool:
        return list(pool.map(_call_shared, items, chunksize=chunksize))


def _bump(counters: dict[str, int], key: str, by: int = 1) -> None:
    counters[key] = counters.get(key, 0) + by


# -----------------------
# Stage 1: filter
# -----------------------

def _filter_repo_worker(
    raw_repo: RawRepo, thresholds: FilterThresholds, lang_map: LanguageMap, enabled: bool
) -> tuple[list[dict], dict[str, int]]:
    kept: list[dict] = []
    counters: dict[str, int] = {}
    for rf in raw_repo.files:
        language = detect_language(rf.path, lang_map)
        if enabled and language is None:
            _bump(counters, "unrecognized_language")
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
                _bump(counters, verdict.rule_fired)
                continue
        kept.append({
            "repo_id": raw_repo.repo_id, "path": rf.path, "language": language,
            "content": rf.content, "byte_size": byte_size,
        })
    return kept, counters


def ingest_and_fingerprint(cfg: PipelineConfig) -> tuple[list[RawRepo], dict[str, int], str]:
    """Load the raw corpus and fingerprint it (content digests plus the
    ingest drop counters) so stage-1 checkpoints can detect input drift.
    """
    counters: dict[str, int] = {}
    repos = load_repos(cfg.inputs, counters)
    h = hashlib.sha256()
    for repo in repos:
        for rf in repo.files:
            h.update(repo.repo_id.encode("utf-8"))
            h.update(b"\x00")
            h.update(rf.path.encode("utf-8"))
            h.update(b"\x00")
            h.update(hashlib.sha256(rf.content.encode("utf-8")).digest())
    h.update(json.dumps(counters, sort_keys=True).encode("utf-8"))
    return repos, counters, h.hexdigest()


def stage_filter(
    cfg: PipelineConfig, ingested: tuple[list[RawRepo], dict[str, int]]
) -> StageResult:
    raw_repos, ingest_counters = ingested
    shared = (cfg.filters, LanguageMap.load(cfg.language_map), cfg.stages.filter)
    counters: dict[str, int] = {}
    rows: list[dict] = []
    for kept, repo_counters in _pmap(_filter_repo_worker, raw_repos, cfg.workers, shared):
        rows.extend(kept)
        for key, count in repo_counters.items():
            _bump(counters, key, count)
    n_files = sum(len(r.files) for r in raw_repos)
    return StageResult(rows, n_files, counters=counters, fields={
        "raw_records": n_files + sum(ingest_counters.values()),
        "ingest_counters": dict(sorted(ingest_counters.items())),
    })


# -----------------------
# Stage 2: order
# -----------------------

def _order_repo_worker(
    repo: tuple[str, list[dict]], enabled: bool
) -> tuple[dict | None, list[tuple[str, str]]]:
    repo_id, file_records = repo
    files = [SourceFile(**rec) for rec in file_records]
    if not files:
        return None, []
    if enabled:
        ordered, edges = order_repo_files(files)
    else:
        ordered, edges = list(files), []
    text = concatenate_with_paths(ordered)
    lang_bytes: dict[str, int] = {}
    lang_files: dict[str, int] = {}
    for f in files:
        lang = f.language or UNKNOWN_LANGUAGE
        lang_bytes[lang] = lang_bytes.get(lang, 0) + f.byte_size
        lang_files[lang] = lang_files.get(lang, 0) + 1
    record = {
        "repo_id": repo_id,
        "ordered_paths": [f.path for f in ordered],
        "char_count": len(text),
        "lang_bytes": dict(sorted(lang_bytes.items())),
        "lang_files": dict(sorted(lang_files.items())),
        "text": text,
    }
    return record, edges


def stage_order(cfg: PipelineConfig, file_records: Iterable[dict]) -> StageResult:
    by_repo: dict[str, list[dict]] = {}
    for rec in file_records:
        by_repo.setdefault(rec["repo_id"], []).append(rec)
    tasks = [(rid, by_repo[rid]) for rid in sorted(by_repo)]
    results = _pmap(_order_repo_worker, tasks, cfg.workers, (cfg.stages.order,))

    rows = [rec for rec, _ in results if rec is not None]
    outputs = []
    if cfg.dump_graphs:
        graphs = ({"repo_id": rid, "edges": edges} for (rid, _), (_, edges) in zip(tasks, results))
        outputs.append(_write_output(cfg, GRAPHS_OUT, graphs))
    return StageResult(rows, sum(map(len, by_repo.values())), outputs=outputs, fields={
        "output_file_total": sum(len(r["ordered_paths"]) for r in rows),
    })


# -----------------------
# Stage 3: dedup
# -----------------------

def stage_dedup(cfg: PipelineConfig, records: Iterable[dict]) -> StageResult:
    records = list(records)
    if not (cfg.stages.dedup and records):
        return StageResult(records, len(records))
    d = cfg.dedup
    texts = [rec["text"] for rec in records]
    values = _pmap(minhash_signature, texts, cfg.workers, (d.num_perm, d.shingle_width, d.seed))
    signatures = {rec["repo_id"]: sig for rec, sig in zip(records, values)}
    char_counts = {rec["repo_id"]: rec["char_count"] for rec in records}
    clusters = find_near_duplicates(
        signatures, char_counts, threshold=d.threshold, bands=d.bands, rows=d.rows
    )
    drop: set[str] = set()
    for cluster in clusters:
        drop.update(rid for rid in cluster.member_repo_ids if rid != cluster.representative)
    retained = [rec for rec in records if rec["repo_id"] not in drop]
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
    counters = {"near_duplicate": len(drop)} if drop else {}
    return StageResult(retained, len(records), counters=counters, outputs=outputs)


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
        # surrogateescape turns each byte that is not UTF-8 into a lone
        # surrogate, which encoding back to UTF-8 rejects.
        with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
            for number, line in enumerate(fh, 1):
                if not line.strip():
                    continue
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError:
                    raise ValueError(f"{path}:{number}: not UTF-8") from None
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ValueError(f"{path}:{number}: not JSON: {exc}") from exc
                if not isinstance(obj, dict) or "text" not in obj:
                    raise ValueError(f'{path}:{number}: not an object with a "text" field')
                text, label = obj["text"], obj.get("benchmark", default_label)
                if not (isinstance(text, str) and isinstance(label, str)):
                    raise ValueError(f'{path}:{number}: "text" and "benchmark" must be strings')
                rows.append((text, label))
    return rows


def stage_decontaminate(cfg: PipelineConfig, records: Iterable[dict]) -> StageResult:
    records = list(records)
    if not (cfg.stages.decontaminate and records):
        return StageResult(records, len(records), fields={"benchmark_strings_skipped_short": 0})
    index: ContaminationIndex | None = None
    if cfg.decontaminate.benchmark_files:
        index = build_contamination_index(load_benchmark_strings(cfg.decontaminate.benchmark_files))
    texts = [rec["text"] for rec in records]
    shared = (cfg.filters, cfg.decontaminate.quality_heuristics, index)
    counters: dict[str, int] = {}
    clean: list[dict] = []
    report_rows: list[dict] = []
    for rec, (reason, report) in zip(records, _pmap(_screen, texts, cfg.workers, shared)):
        if reason is None:
            clean.append(rec)
            continue
        _bump(counters, reason)
        if report is not None:
            report_rows.append({
                "repo_id": rec["repo_id"],
                "benchmarks": list(report.benchmarks),
                "matched_entries": list(report.matched_entries),
            })
    outputs = []
    if cfg.decontaminate.report and index is not None:
        outputs.append(_write_output(cfg, CONTAMINATION_REPORT, report_rows))
    return StageResult(clean, len(records), counters=counters, outputs=outputs, fields={
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


def stage_build(cfg: PipelineConfig, records: Iterable[dict]) -> StageResult:
    """Disabled, the stage writes no entries. Enabled, it transforms,
    encodes and packs one record at a time and writes each entry once it
    is full, so it holds one document and the unfilled entry."""
    fields = {"entry_len": cfg.build.entry_len, "fim_applied": 0, "total_tokens": 0,
              "dropped_tokens": 0, "padded_tokens": 0}
    if not cfg.stages.build:
        return StageResult(None, sum(1 for _ in records), 0, fields=fields)
    sentinels = cfg.build.sentinel_set()
    fim_cfg = FimConfig(fim_rate=cfg.build.fim_rate, mode=cfg.build.fim_mode, seed=cfg.seed)
    tokenizer = ByteTokenizer(sentinels)
    counters: dict[str, int] = {}
    n_records = n_entries = 0

    def pack(docs: list[str], carry: tuple, pad_final: bool = False):
        """Pack `docs` after `carry`; yield copies of the rows, so a row
        the writer still holds keeps no document's ids; return the carry."""
        nonlocal n_entries
        result = pack_entries(docs, tokenizer, cfg.build.entry_len, pad_final, carry)
        if result.skipped_docs:
            _bump(counters, "tokenizer_failure", result.skipped_docs)
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
                _bump(counters, "sentinel_collision")
                continue
            fields["fim_applied"] += doc.startswith(sentinels.fim_start)
            carry = yield from pack([doc], carry)
        yield from pack([], carry, cfg.build.pad_final)

    outputs = _write_entries(cfg, rows())
    return StageResult(None, n_records, n_entries, counters, outputs, fields)


# -----------------------
# Stats
# -----------------------

def emit_stats(cfg: PipelineConfig) -> dict:
    """Summarise the last stage done: per-language sizes from the file
    the stage after the chain would read (after build, build's input),
    drop counters from the chain's manifests. Renders the summary table
    and writes stats.txt / stats.json; returns the stats.json object.
    With no stage done it writes nothing and raises StageFailure.
    """
    chain = _chain(cfg)
    if not chain:
        raise StageFailure("stats", RuntimeError(f"no stage has completed in {cfg.output_dir}"))
    source = STAGES[min(len(chain), len(STAGES) - 1)].reads
    drops: dict[str, dict[str, int]] = {}
    for stage, manifest in zip(STAGES, chain):
        if manifest.get("ingest_counters"):
            drops["ingest"] = dict(manifest["ingest_counters"])
        if manifest.get("counters"):
            drops[stage.name] = dict(manifest["counters"])
    lang_bytes: dict[str, int] = {}
    lang_files: dict[str, int] = {}
    if source is not None:
        records = _read_jsonl(os.path.join(cfg.output_dir, source))
        if source == FILES_OUT:
            for rec in records:
                lang = rec["language"] or UNKNOWN_LANGUAGE
                lang_bytes[lang] = lang_bytes.get(lang, 0) + rec["byte_size"]
                lang_files[lang] = lang_files.get(lang, 0) + 1
        else:
            for rec in records:
                for lang, size in rec["lang_bytes"].items():
                    lang_bytes[lang] = lang_bytes.get(lang, 0) + size
                for lang, count in rec["lang_files"].items():
                    lang_files[lang] = lang_files.get(lang, 0) + count
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

def _ingest(cfg: PipelineConfig) -> tuple[tuple[list[RawRepo], dict[str, int]], str]:
    try:
        raw_repos, counters, fingerprint = ingest_and_fingerprint(cfg)
    except Exception as exc:
        raise StageFailure(STAGES[0].name, exc) from exc
    return (raw_repos, counters), fingerprint


def _input_digest(manifest: dict) -> str:
    """sha256 of the file the next stage reads: the stage's first output."""
    return manifest["outputs"][0]["sha256"]


def _done(cfg: PipelineConfig, stage: Stage, upstream: str | None, key: str | None = None) -> dict | None:
    """The stage's manifest if it records a completed run on the input
    whose digest is `upstream` (None: any input) and its first output is
    on disk. `run` also passes its config `key` and asks more: that key
    in the manifest, and every output still matching its digest.
    """
    manifest = _load_manifest(cfg, stage.name)
    if (
        manifest is None
        or not manifest.get("completed")
        or upstream is not None and manifest.get("upstream") != upstream
        or key is not None and manifest.get("config_hash") != key
    ):
        return None
    strict = key is not None
    for entry in manifest["outputs"] if strict else manifest["outputs"][:1]:
        path = os.path.join(cfg.output_dir, entry["path"])
        if not os.path.exists(path) or strict and sha256_file(path) != entry["sha256"]:
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
            records = ingested
        else:
            records = _read_jsonl(os.path.join(cfg.output_dir, stage.reads))
        # Looked up at call time, so the stage functions can be wrapped.
        result = globals()[f"stage_{stage.name}"](cfg, records)
        outputs = list(result.outputs)
        if result.rows is not None:
            outputs.insert(0, _write_output(cfg, stage.writes[0], result.rows))
        manifest = {
            "stage": stage.name,
            "completed": True,
            "config_hash": key,
            "upstream": upstream,
            "input_records": result.input_records,
            "output_records": (
                len(result.rows) if result.output_records is None else result.output_records
            ),
            "counters": dict(sorted(result.counters.items())),
            "outputs": [
                {"path": rel, "sha256": sha256_file(os.path.join(cfg.output_dir, rel)),
                 "records": n}
                for rel, n in outputs
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
        ingested, upstream = _ingest(cfg)
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

    ingested, upstream = _ingest(cfg)
    for stage in STAGES:
        if stage.reads is not None:  # the previous stage's first output
            ingested, upstream = None, _input_digest(manifest)
        manifest = _done(cfg, stage, upstream, key)
        if manifest is None:
            manifest = _execute(cfg, stage, upstream, key, ingested)
            summary.completed_stages.append(stage.name)
        else:
            summary.skipped_stages.append(stage.name)
    summary.output_files = [entry["path"] for entry in manifest["outputs"]]

    summary.stats = emit_stats(cfg)
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
