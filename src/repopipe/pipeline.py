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

import functools
import hashlib
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .config import PipelineConfig, config_hash, require_valid, sha256_file
from .corpus import LanguageMap, SourceFile, compute_file_stats, detect_language
from .decontam import ContaminationIndex, build_contamination_index, scan_text
from .dedup import (
    MinHashSignature,
    find_near_duplicates,
    minhash_signature,
    signature_similarity,
)
from .deps import RepoSample, concatenate_with_paths, order_repo_files
from .filters import (
    DATA_FILE_LANGUAGES,
    FilterThresholds,
    apply_base_filters,
    apply_quality_heuristics,
    filter_data_file,
    filter_html,
)
from .fim import FimConfig, SentinelSet, fim_transform
from .ingest import RawRepo, load_repos
from .packing import ByteTokenizer, pack_entries
from .stats import CorpusStats, compute_corpus_stats, render_stats_table, stats_to_dict

FILES_OUT = "work/files.jsonl"
SAMPLES_OUT = "work/samples.jsonl"
DEDUP_OUT = "work/samples_dedup.jsonl"
CLEAN_OUT = "work/samples_clean.jsonl"
ENTRIES_DIR = "entries"
UNKNOWN_LANGUAGE = "(unknown)"
_GRAPH_SUFFIX = ".deps.txt"
_NAME_MAX = 255  # bytes in one file name


@dataclass(frozen=True)
class Stage:
    """One step of the pipeline. The runner hands `stage_<name>` the
    records of `reads` (None: the ingested repos) and writes the rows it
    returns to `writes`. `config` lists the dotted config fields the
    stage reads; its command takes the CLI flags that set them.
    """

    name: str
    reads: str | None
    writes: str
    config: tuple[str, ...]
    about: str


STAGES = (
    Stage("filter", None, FILES_OUT,
          ("inputs", "language_map", "filters", "stages.filter"), "quality filtering"),
    Stage("order", FILES_OUT, SAMPLES_OUT,
          ("stages.order", "dump_graphs"), "dependency-ordered concatenation"),
    Stage("dedup", SAMPLES_OUT, DEDUP_OUT,
          ("dedup", "stages.dedup"), "repo-level near-deduplication"),
    Stage("decontaminate", DEDUP_OUT, CLEAN_OUT,
          ("decontaminate", "filters", "stages.decontaminate"), "screening + decontamination"),
    Stage("build", CLEAN_OUT, ENTRIES_DIR,
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
    stats: CorpusStats | None = None
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


def _read_jsonl(path: str) -> list[dict]:
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(json.loads(line))
    return out


def _manifest_path(cfg: PipelineConfig, stage: str) -> str:
    return os.path.join(cfg.output_dir, "manifests", f"{stage}.json")


def _load_manifest(cfg: PipelineConfig, stage: str) -> dict | None:
    try:
        with open(_manifest_path(cfg, stage), "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None


def _outputs_hash(manifest: dict) -> str:
    canonical = json.dumps(manifest.get("outputs", []), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# -----------------------
# Parallel fan-out
# -----------------------

def _pmap(fn: Callable, items: Sequence, workers: int) -> list:
    """Order-preserving map, optionally over a process pool."""
    if workers <= 1 or len(items) < 2:
        return [fn(item) for item in items]
    chunksize = max(1, len(items) // (workers * 4))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items, chunksize=chunksize))


@functools.lru_cache(maxsize=4)
def _lang_map(path: str | None) -> LanguageMap:
    return LanguageMap.load(path)


def _bump(counters: dict[str, int], key: str, by: int = 1) -> None:
    counters[key] = counters.get(key, 0) + by


# -----------------------
# Stage 1: filter
# -----------------------

def _filter_repo_worker(args: tuple[RawRepo, FilterThresholds, str | None, bool]) -> tuple[list[dict], dict[str, int]]:
    raw_repo, thresholds, lang_map_path, enabled = args
    lang_map = _lang_map(lang_map_path)
    kept: list[dict] = []
    counters: dict[str, int] = {}
    for rf in raw_repo.files:
        language = detect_language(rf.path, lang_map)
        if enabled and language is None:
            _bump(counters, "unrecognized_language")
            continue
        sf = SourceFile(
            repo_id=raw_repo.repo_id,
            path=rf.path,
            language=language,
            content=rf.content,
            byte_size=len(rf.content.encode("utf-8")),
        )
        if enabled:
            stats = compute_file_stats(sf.content)
            verdict = apply_base_filters(sf, stats, thresholds)
            if verdict.accepted and language == "HTML":
                verdict = filter_html(sf.content, thresholds)
            if verdict.accepted and language in DATA_FILE_LANGUAGES:
                verdict = filter_data_file(sf.content, language, thresholds)
            if not verdict.accepted:
                _bump(counters, verdict.rule_fired)
                continue
        kept.append(asdict(sf))
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
    _lang_map.cache_clear()  # the table file may have changed since the last run
    tasks = [(repo, cfg.filters, cfg.language_map, cfg.stages.filter) for repo in raw_repos]
    counters: dict[str, int] = {}
    rows: list[dict] = []
    for kept, repo_counters in _pmap(_filter_repo_worker, tasks, cfg.workers):
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

def _order_repo_worker(args: tuple[str, list[dict], bool]) -> tuple[dict | None, list[tuple[str, str]]]:
    repo_id, file_records, enabled = args
    files = [SourceFile(**rec) for rec in file_records]
    if not files:
        return None, []
    if enabled:
        ordered, edges = order_repo_files(files)
    else:
        ordered, edges = list(files), []
    sample = concatenate_with_paths(repo_id, ordered)
    lang_bytes: dict[str, int] = {}
    lang_files: dict[str, int] = {}
    for f in files:
        lang = f.language or UNKNOWN_LANGUAGE
        lang_bytes[lang] = lang_bytes.get(lang, 0) + f.byte_size
        lang_files[lang] = lang_files.get(lang, 0) + 1
    record = {
        "repo_id": sample.repo_id,
        "ordered_paths": list(sample.ordered_paths),
        "char_count": sample.char_count,
        "lang_bytes": dict(sorted(lang_bytes.items())),
        "lang_files": dict(sorted(lang_files.items())),
        "text": sample.text,
    }
    return record, edges


def graph_file_name(repo_id: str) -> str:
    """Edge-list file name for a repo: `%`, `/`, `\\` and a leading `.`
    are percent-encoded, so distinct ids give distinct names and every
    name is a plain file directly under reports/graphs/. A name over the
    255-byte limit keeps a prefix, then `%%` (which percent-encoding never
    emits) and the sha256 of the id.
    """
    name = repo_id.replace("%", "%25").replace("/", "%2F").replace("\\", "%5C")
    if name.startswith("."):
        name = "%2E" + name[1:]
    if len(name.encode("utf-8")) > _NAME_MAX - len(_GRAPH_SUFFIX):
        digest = hashlib.sha256(repo_id.encode("utf-8")).hexdigest()
        keep = _NAME_MAX - len(_GRAPH_SUFFIX) - 2 - len(digest)
        name = name.encode("utf-8")[:keep].decode("utf-8", "ignore") + "%%" + digest
    return name + _GRAPH_SUFFIX


def stage_order(cfg: PipelineConfig, file_records: list[dict]) -> StageResult:
    by_repo: dict[str, list[dict]] = {}
    for rec in file_records:
        by_repo.setdefault(rec["repo_id"], []).append(rec)
    tasks = [(rid, by_repo[rid], cfg.stages.order) for rid in sorted(by_repo)]
    results = _pmap(_order_repo_worker, tasks, cfg.workers)

    rows = [rec for rec, _ in results if rec is not None]
    outputs = []
    if cfg.dump_graphs:
        graphs_dir = os.path.join(cfg.output_dir, "reports", "graphs")
        os.makedirs(graphs_dir, exist_ok=True)
        for (rid, _, _), (_, edges) in zip(tasks, results):
            rel = f"reports/graphs/{graph_file_name(rid)}"
            with open(os.path.join(cfg.output_dir, rel), "w", encoding="utf-8") as fh:
                for dependent, dependency in edges:
                    fh.write(f"{dependent}\t{dependency}\n")
            outputs.append((rel, len(edges)))
    return StageResult(rows, len(file_records), outputs=outputs, fields={
        "output_file_total": sum(len(r["ordered_paths"]) for r in rows),
    })


# -----------------------
# Stage 3: dedup
# -----------------------

def _signature_worker(args: tuple[str, str, int, int, int, int]) -> tuple[str, tuple[int, ...], int]:
    repo_id, text, char_count, num_perm, shingle_width, seed = args
    sample = RepoSample(repo_id=repo_id, ordered_paths=(), text=text, char_count=char_count)
    sig = minhash_signature(sample, num_perm=num_perm, shingle_width=shingle_width, seed=seed)
    return sig.repo_id, sig.values, sig.num_perm


def stage_dedup(cfg: PipelineConfig, records: list[dict]) -> StageResult:
    if not (cfg.stages.dedup and records):
        return StageResult(records, len(records))
    d = cfg.dedup
    tasks = [
        (rec["repo_id"], rec["text"], rec["char_count"], d.num_perm, d.shingle_width, d.seed)
        for rec in records
    ]
    sig_rows = _pmap(_signature_worker, tasks, cfg.workers)
    signatures = [
        MinHashSignature(repo_id=rid, values=vals, num_perm=num) for rid, vals, num in sig_rows
    ]
    char_counts = {rec["repo_id"]: rec["char_count"] for rec in records}
    clusters = find_near_duplicates(
        signatures, threshold=d.threshold, bands=d.bands, rows=d.rows, char_counts=char_counts
    )
    drop: set[str] = set()
    for cluster in clusters:
        drop.update(rid for rid in cluster.member_repo_ids if rid != cluster.representative)
    retained = [rec for rec in records if rec["repo_id"] not in drop]
    outputs = []
    if d.report:
        sig_by_id = {s.repo_id: s for s in signatures}
        report_rows = [
            {
                "members": list(c.member_repo_ids),
                "representative": c.representative,
                "similarity_to_representative": {
                    rid: round(
                        signature_similarity(sig_by_id[rid], sig_by_id[c.representative]), 4
                    )
                    for rid in c.member_repo_ids
                    if rid != c.representative
                },
            }
            for c in clusters
        ]
        rel = "reports/dedup_report.jsonl"
        outputs.append((rel, _write_jsonl(os.path.join(cfg.output_dir, rel), report_rows)))
    counters = {"near_duplicate": len(drop)} if drop else {}
    return StageResult(retained, len(records), counters=counters, outputs=outputs)


# -----------------------
# Stage 4: quality screening + decontamination
# -----------------------

def _screen_worker(
    args: tuple[dict, FilterThresholds, bool, ContaminationIndex | None]
) -> tuple[bool, str | None, dict | None]:
    record, thresholds, heuristics_on, index = args
    if heuristics_on:
        verdict = apply_quality_heuristics(record["text"], thresholds)
        if not verdict.accepted:
            return False, verdict.rule_fired, None
    if index is not None and len(index):
        report = scan_text(record["text"], index)
        if report.hit:
            entry = {
                "repo_id": record["repo_id"],
                "benchmarks": list(report.benchmarks),
                "matched_entries": list(report.matched_entries),
            }
            return False, "contaminated", entry
    return True, None, None


def load_benchmark_strings(paths: Sequence[str]) -> list[tuple[str, str]]:
    """Benchmark test data as (text, benchmark) pairs from JSONL files
    of {"text": ..., "benchmark": ...} records; a missing benchmark
    field falls back to the file's basename.
    """
    rows: list[tuple[str, str]] = []
    for path in paths:
        default_label = os.path.splitext(os.path.basename(path))[0]
        for obj in _read_jsonl(path):
            rows.append((str(obj["text"]), str(obj.get("benchmark", default_label))))
    return rows


def stage_decontaminate(cfg: PipelineConfig, records: list[dict]) -> StageResult:
    if not (cfg.stages.decontaminate and records):
        return StageResult(records, len(records), fields={"benchmark_strings_skipped_short": 0})
    index: ContaminationIndex | None = None
    if cfg.decontaminate.benchmark_files:
        index = build_contamination_index(load_benchmark_strings(cfg.decontaminate.benchmark_files))
    tasks = [(rec, cfg.filters, cfg.decontaminate.quality_heuristics, index) for rec in records]
    counters: dict[str, int] = {}
    clean: list[dict] = []
    report_rows: list[dict] = []
    for rec, (passed, reason, entry) in zip(records, _pmap(_screen_worker, tasks, cfg.workers)):
        if passed:
            clean.append(rec)
        else:
            _bump(counters, reason)
            if entry is not None:
                report_rows.append(entry)
    outputs = []
    if cfg.decontaminate.report and index is not None:
        rel = "reports/contamination_report.jsonl"
        outputs.append((rel, _write_jsonl(os.path.join(cfg.output_dir, rel), report_rows)))
    return StageResult(clean, len(records), counters=counters, outputs=outputs, fields={
        "benchmark_strings_skipped_short": index.skipped_short if index is not None else 0,
    })


# -----------------------
# Stage 5: build (FIM + packing)
# -----------------------

def _fim_worker(args: tuple[str, int, FimConfig, tuple[str, str, str, str]]) -> str | None:
    text, doc_index, fim_cfg, sentinel_tuple = args
    return fim_transform(text, doc_index, fim_cfg, SentinelSet(*sentinel_tuple))


def stage_build(cfg: PipelineConfig, records: list[dict]) -> StageResult:
    """Disabled, the stage writes no entries and drops any it wrote before."""
    if not cfg.stages.build:
        return StageResult(None, len(records), 0, fields={
            "entry_len": cfg.build.entry_len, "fim_applied": 0, "total_tokens": 0,
            "dropped_tokens": 0, "padded_tokens": 0,
        })
    sentinels = cfg.build.sentinel_set()
    fim_cfg = FimConfig(fim_rate=cfg.build.fim_rate, mode=cfg.build.fim_mode, seed=cfg.seed)
    counters: dict[str, int] = {}

    tasks = [
        (rec["text"], idx, fim_cfg, sentinels.as_tuple()) for idx, rec in enumerate(records)
    ]
    transformed = _pmap(_fim_worker, tasks, cfg.workers)
    docs: list[str] = []
    fim_applied = 0
    for rec, doc in zip(records, transformed):
        if doc is None:
            _bump(counters, "sentinel_collision")
            continue
        if doc.startswith(sentinels.fim_start):
            fim_applied += 1
        docs.append(doc)

    tokenizer = ByteTokenizer(sentinels)
    pack = pack_entries(docs, tokenizer, cfg.build.entry_len, pad_final=cfg.build.pad_final)
    if pack.skipped_docs:
        _bump(counters, "tokenizer_failure", pack.skipped_docs)

    entries_dir = os.path.join(cfg.output_dir, ENTRIES_DIR)
    os.makedirs(entries_dir, exist_ok=True)
    per_shard = cfg.build.entries_per_shard
    outputs = []
    shards = [
        pack.entries[i : i + per_shard] for i in range(0, len(pack.entries), per_shard)
    ] or [[]]
    for shard_idx, shard in enumerate(shards):
        stem = f"{ENTRIES_DIR}/entries-{shard_idx:05d}"
        if cfg.build.output_format == "bin":
            flat = np.array([e.token_ids for e in shard], dtype="<u4")
            with open(os.path.join(cfg.output_dir, stem + ".bin"), "wb") as fh:
                fh.write(flat.tobytes())
            outputs.append((stem + ".bin", len(shard)))
            rel = stem + ".boundaries.jsonl"
            rows = ({"doc_boundaries": list(e.doc_boundaries)} for e in shard)
        else:
            rel = stem + ".jsonl"
            rows = (
                {"token_ids": list(e.token_ids), "doc_boundaries": list(e.doc_boundaries)}
                for e in shard
            )
        outputs.append((rel, _write_jsonl(os.path.join(cfg.output_dir, rel), rows)))
    # Shards of an earlier build with other sharding or format are stale.
    listed = {os.path.basename(rel) for rel, _ in outputs}
    for name in os.listdir(entries_dir):
        if name.startswith("entries-") and name not in listed:
            os.remove(os.path.join(entries_dir, name))

    fields = {
        "entry_len": cfg.build.entry_len,
        "fim_applied": fim_applied,
        "total_tokens": pack.total_tokens,
        "dropped_tokens": pack.dropped_tokens,
        "padded_tokens": pack.padded_tokens,
    }
    return StageResult(None, len(records), len(pack.entries), counters, outputs, fields)


# -----------------------
# Stats
# -----------------------

def best_stats_source(cfg: PipelineConfig) -> str | None:
    """Most advanced stage output that carries per-language data."""
    for rel in (CLEAN_OUT, DEDUP_OUT, SAMPLES_OUT, FILES_OUT):
        path = os.path.join(cfg.output_dir, rel)
        if os.path.exists(path):
            return rel
    return None


def collect_drop_counters(cfg: PipelineConfig) -> dict[str, dict[str, int]]:
    counters: dict[str, dict[str, int]] = {}
    for stage in STAGES:
        manifest = _load_manifest(cfg, stage.name) or {}
        if manifest.get("ingest_counters"):
            counters["ingest"] = dict(manifest["ingest_counters"])
        if manifest.get("counters"):
            counters[stage.name] = dict(manifest["counters"])
    return counters


def emit_stats(cfg: PipelineConfig) -> CorpusStats:
    """Aggregate per-language sizes from the most advanced stage output,
    render the summary table, and write stats.txt / stats.json.
    """
    source = best_stats_source(cfg)
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
    stats = compute_corpus_stats(lang_bytes, lang_files, collect_drop_counters(cfg))
    os.makedirs(cfg.output_dir, exist_ok=True)
    with open(os.path.join(cfg.output_dir, "stats.txt"), "w", encoding="utf-8") as fh:
        fh.write(render_stats_table(stats))
    with open(os.path.join(cfg.output_dir, "stats.json"), "w", encoding="utf-8") as fh:
        json.dump(stats_to_dict(stats), fh, sort_keys=True, indent=2, ensure_ascii=False)
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


def _stage_is_current(cfg: PipelineConfig, stage: Stage, upstream: str, key: str) -> dict | None:
    """The stage's manifest, when it proves the stage needs no re-run:
    same config key, same upstream bytes, outputs intact on disk.
    """
    manifest = _load_manifest(cfg, stage.name)
    if (
        manifest is None
        or not manifest.get("completed")
        or manifest.get("config_hash") != key
        or manifest.get("upstream") != upstream
    ):
        return None
    for entry in manifest.get("outputs", []):
        out_path = os.path.join(cfg.output_dir, entry["path"])
        if not os.path.exists(out_path) or sha256_file(out_path) != entry["sha256"]:
            return None
    return manifest


def _execute(cfg: PipelineConfig, stage: Stage, upstream: str, key: str, ingested=None) -> dict:
    """Run one stage and write its manifest. The manifest goes last, so a
    stage cut short leaves none and the next run redoes it; files the
    stage's previous manifest listed and the new one does not are deleted.
    """
    try:
        if stage.reads is None:
            records = ingested
        else:
            records = _read_jsonl(os.path.join(cfg.output_dir, stage.reads))
        # Looked up at call time, so the stage functions can be wrapped.
        result = globals()[f"stage_{stage.name}"](cfg, records)
        outputs = list(result.outputs)
        if result.rows is not None:
            n = _write_jsonl(os.path.join(cfg.output_dir, stage.writes), result.rows)
            outputs.insert(0, (stage.writes, n))
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
        listed = {rel for rel, _ in outputs}
        for entry in (_load_manifest(cfg, stage.name) or {}).get("outputs", []):
            stale = os.path.join(cfg.output_dir, entry["path"])
            if entry["path"] not in listed and os.path.isfile(stale):
                os.remove(stale)
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
    its new manifest. Every stage after the first needs the manifest of
    the one before it; without it, StageFailure names the stage.
    """
    require_valid(cfg)
    i = [stage.name for stage in STAGES].index(name)
    if i == 0:
        ingested, upstream = _ingest(cfg)
        return _execute(cfg, STAGES[0], upstream, config_hash(cfg), ingested)
    previous = STAGES[i - 1].name
    manifest = _load_manifest(cfg, previous)
    if manifest is None:
        missing = _manifest_path(cfg, previous)
        raise StageFailure(
            name, RuntimeError(f"stage {previous!r} has not completed (missing {missing})")
        )
    return _execute(cfg, STAGES[i], _outputs_hash(manifest), config_hash(cfg))


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
        manifest = _stage_is_current(cfg, stage, upstream, key)
        if manifest is None:
            manifest = _execute(cfg, stage, upstream, key, ingested)
            summary.completed_stages.append(stage.name)
        else:
            summary.skipped_stages.append(stage.name)
        ingested = None  # only the first stage reads the raw repos
        upstream = _outputs_hash(manifest)
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
