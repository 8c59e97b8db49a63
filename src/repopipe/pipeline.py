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
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .config import PipelineConfig, config_hash, require_valid
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

STAGE_ORDER = ("filter", "order", "dedup", "decontaminate", "build")

FILES_OUT = "work/files.jsonl"
SAMPLES_OUT = "work/samples.jsonl"
DEDUP_OUT = "work/samples_dedup.jsonl"
CLEAN_OUT = "work/samples_clean.jsonl"
ENTRIES_DIR = "entries"
UNKNOWN_LANGUAGE = "(unknown)"


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

def _sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


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


def _write_manifest(cfg: PipelineConfig, stage: str, manifest: dict) -> dict:
    path = _manifest_path(cfg, stage)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2, ensure_ascii=False)
        fh.write("\n")
    return manifest


def _outputs_entry(cfg: PipelineConfig, rel_path: str, records: int) -> dict:
    return {
        "path": rel_path,
        "sha256": _sha256_file(os.path.join(cfg.output_dir, rel_path)),
        "records": records,
    }


def _outputs_hash(manifest: dict) -> str:
    canonical = json.dumps(manifest.get("outputs", []), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _stage_is_current(cfg: PipelineConfig, stage: str, upstream: str) -> dict | None:
    """The stage's manifest, when it proves the stage needs no re-run:
    same config, same upstream bytes, outputs intact on disk.
    """
    path = _manifest_path(cfg, stage)
    if not os.path.exists(path):
        return None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None
    if not manifest.get("completed"):
        return None
    if manifest.get("config_hash") != config_hash(cfg):
        return None
    if manifest.get("upstream") != upstream:
        return None
    for entry in manifest.get("outputs", []):
        out_path = os.path.join(cfg.output_dir, entry["path"])
        if not os.path.exists(out_path) or _sha256_file(out_path) != entry["sha256"]:
            return None
    return manifest


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
        kept.append(
            {
                "repo_id": sf.repo_id,
                "path": sf.path,
                "language": sf.language,
                "byte_size": sf.byte_size,
                "content": sf.content,
            }
        )
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
    cfg: PipelineConfig,
    upstream: str,
    raw_repos: list[RawRepo],
    ingest_counters: dict[str, int],
) -> dict:
    tasks = [(repo, cfg.filters, cfg.language_map, cfg.stages.filter) for repo in raw_repos]
    results = _pmap(_filter_repo_worker, tasks, cfg.workers)
    counters: dict[str, int] = {}
    records: list[dict] = []
    for kept, repo_counters in results:
        records.extend(kept)
        for key, count in repo_counters.items():
            _bump(counters, key, count)
    out_path = os.path.join(cfg.output_dir, FILES_OUT)
    n = _write_jsonl(out_path, records)
    manifest = {
        "stage": "filter",
        "completed": True,
        "config_hash": config_hash(cfg),
        "upstream": upstream,
        "raw_records": sum(len(r.files) for r in raw_repos) + sum(ingest_counters.values()),
        "input_records": sum(len(r.files) for r in raw_repos),
        "output_records": n,
        "ingest_counters": dict(sorted(ingest_counters.items())),
        "counters": dict(sorted(counters.items())),
        "outputs": [_outputs_entry(cfg, FILES_OUT, n)],
    }
    return _write_manifest(cfg, "filter", manifest)


# -----------------------
# Stage 2: order
# -----------------------

def _order_repo_worker(args: tuple[str, list[dict], bool]) -> tuple[dict | None, list[tuple[str, str]]]:
    repo_id, file_records, enabled = args
    files = [
        SourceFile(
            repo_id=rec["repo_id"],
            path=rec["path"],
            language=rec["language"],
            content=rec["content"],
            byte_size=rec["byte_size"],
        )
        for rec in file_records
    ]
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
    name is a plain file directly under reports/graphs/.
    """
    name = repo_id.replace("%", "%25").replace("/", "%2F").replace("\\", "%5C")
    if name.startswith("."):
        name = "%2E" + name[1:]
    return f"{name}.deps.txt"


def stage_order(cfg: PipelineConfig, upstream: str) -> dict:
    file_records = _read_jsonl(os.path.join(cfg.output_dir, FILES_OUT))
    by_repo: dict[str, list[dict]] = {}
    for rec in file_records:
        by_repo.setdefault(rec["repo_id"], []).append(rec)
    tasks = [(rid, by_repo[rid], cfg.stages.order) for rid in sorted(by_repo)]
    results = _pmap(_order_repo_worker, tasks, cfg.workers)

    records = [rec for rec, _ in results if rec is not None]
    extra_outputs = []
    if cfg.dump_graphs:
        graphs_dir = os.path.join(cfg.output_dir, "reports", "graphs")
        os.makedirs(graphs_dir, exist_ok=True)
        for (rid, _, _), (_, edges) in zip(tasks, results):
            rel = f"reports/graphs/{graph_file_name(rid)}"
            with open(os.path.join(cfg.output_dir, rel), "w", encoding="utf-8") as fh:
                for dependent, dependency in edges:
                    fh.write(f"{dependent}\t{dependency}\n")
            extra_outputs.append(_outputs_entry(cfg, rel, len(edges)))
    out_path = os.path.join(cfg.output_dir, SAMPLES_OUT)
    n = _write_jsonl(out_path, records)
    manifest = {
        "stage": "order",
        "completed": True,
        "config_hash": config_hash(cfg),
        "upstream": upstream,
        "input_records": len(file_records),
        "output_records": n,
        "output_file_total": sum(len(r["ordered_paths"]) for r in records),
        "counters": {},
        "outputs": [_outputs_entry(cfg, SAMPLES_OUT, n), *extra_outputs],
    }
    return _write_manifest(cfg, "order", manifest)


# -----------------------
# Stage 3: dedup
# -----------------------

def _signature_worker(args: tuple[str, str, int, int, int, int]) -> tuple[str, tuple[int, ...], int]:
    repo_id, text, char_count, num_perm, shingle_width, seed = args
    sample = RepoSample(repo_id=repo_id, ordered_paths=(), text=text, char_count=char_count)
    sig = minhash_signature(sample, num_perm=num_perm, shingle_width=shingle_width, seed=seed)
    return sig.repo_id, sig.values, sig.num_perm


def stage_dedup(cfg: PipelineConfig, upstream: str) -> dict:
    records = _read_jsonl(os.path.join(cfg.output_dir, SAMPLES_OUT))
    counters: dict[str, int] = {}
    outputs = []
    if cfg.stages.dedup and records:
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
        if drop:
            _bump(counters, "near_duplicate", len(drop))
        retained = [rec for rec in records if rec["repo_id"] not in drop]
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
            n_rep = _write_jsonl(os.path.join(cfg.output_dir, rel), report_rows)
            outputs.append(_outputs_entry(cfg, rel, n_rep))
    else:
        retained = records
    out_path = os.path.join(cfg.output_dir, DEDUP_OUT)
    n = _write_jsonl(out_path, retained)
    outputs.insert(0, _outputs_entry(cfg, DEDUP_OUT, n))
    manifest = {
        "stage": "dedup",
        "completed": True,
        "config_hash": config_hash(cfg),
        "upstream": upstream,
        "input_records": len(records),
        "output_records": n,
        "counters": dict(sorted(counters.items())),
        "outputs": outputs,
    }
    return _write_manifest(cfg, "dedup", manifest)


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


def stage_decontaminate(cfg: PipelineConfig, upstream: str) -> dict:
    records = _read_jsonl(os.path.join(cfg.output_dir, DEDUP_OUT))
    counters: dict[str, int] = {}
    outputs = []
    skipped_short = 0
    if cfg.stages.decontaminate and records:
        index: ContaminationIndex | None = None
        if cfg.decontaminate.benchmark_files:
            index = build_contamination_index(
                load_benchmark_strings(cfg.decontaminate.benchmark_files)
            )
            skipped_short = index.skipped_short
        tasks = [
            (rec, cfg.filters, cfg.decontaminate.quality_heuristics, index) for rec in records
        ]
        results = _pmap(_screen_worker, tasks, cfg.workers)
        clean: list[dict] = []
        report_rows: list[dict] = []
        for rec, (passed, reason, entry) in zip(records, results):
            if passed:
                clean.append(rec)
            else:
                _bump(counters, reason)
                if entry is not None:
                    report_rows.append(entry)
        if cfg.decontaminate.report and cfg.decontaminate.benchmark_files:
            rel = "reports/contamination_report.jsonl"
            n_rep = _write_jsonl(os.path.join(cfg.output_dir, rel), report_rows)
            outputs.append(_outputs_entry(cfg, rel, n_rep))
    else:
        clean = records
    out_path = os.path.join(cfg.output_dir, CLEAN_OUT)
    n = _write_jsonl(out_path, clean)
    outputs.insert(0, _outputs_entry(cfg, CLEAN_OUT, n))
    manifest = {
        "stage": "decontaminate",
        "completed": True,
        "config_hash": config_hash(cfg),
        "upstream": upstream,
        "input_records": len(records),
        "output_records": n,
        "benchmark_strings_skipped_short": skipped_short,
        "counters": dict(sorted(counters.items())),
        "outputs": outputs,
    }
    return _write_manifest(cfg, "decontaminate", manifest)


# -----------------------
# Stage 5: build (FIM + packing)
# -----------------------

def _fim_worker(args: tuple[str, int, FimConfig, tuple[str, str, str, str]]) -> str | None:
    text, doc_index, fim_cfg, sentinel_tuple = args
    return fim_transform(text, doc_index, fim_cfg, SentinelSet(*sentinel_tuple))


def stage_build(cfg: PipelineConfig, upstream: str) -> dict:
    records = _read_jsonl(os.path.join(cfg.output_dir, CLEAN_OUT))
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
        if cfg.build.output_format == "jsonl":
            rel = f"{ENTRIES_DIR}/entries-{shard_idx:05d}.jsonl"
            _write_jsonl(
                os.path.join(cfg.output_dir, rel),
                (
                    {"token_ids": list(e.token_ids), "doc_boundaries": list(e.doc_boundaries)}
                    for e in shard
                ),
            )
            outputs.append(_outputs_entry(cfg, rel, len(shard)))
        else:
            rel = f"{ENTRIES_DIR}/entries-{shard_idx:05d}.bin"
            flat = np.array([e.token_ids for e in shard], dtype="<u4")
            with open(os.path.join(cfg.output_dir, rel), "wb") as fh:
                fh.write(flat.tobytes())
            outputs.append(_outputs_entry(cfg, rel, len(shard)))
            rel_b = f"{ENTRIES_DIR}/entries-{shard_idx:05d}.boundaries.jsonl"
            _write_jsonl(
                os.path.join(cfg.output_dir, rel_b),
                ({"doc_boundaries": list(e.doc_boundaries)} for e in shard),
            )
            outputs.append(_outputs_entry(cfg, rel_b, len(shard)))
    # Shards of an earlier build with other sharding or format are stale.
    listed = {os.path.basename(o["path"]) for o in outputs}
    for name in os.listdir(entries_dir):
        if name.startswith("entries-") and name not in listed:
            os.remove(os.path.join(entries_dir, name))

    manifest = {
        "stage": "build",
        "completed": True,
        "config_hash": config_hash(cfg),
        "upstream": upstream,
        "input_records": len(records),
        "output_records": len(pack.entries),
        "entry_len": cfg.build.entry_len,
        "fim_applied": fim_applied,
        "total_tokens": pack.total_tokens,
        "dropped_tokens": pack.dropped_tokens,
        "padded_tokens": pack.padded_tokens,
        "counters": dict(sorted(counters.items())),
        "outputs": outputs,
    }
    return _write_manifest(cfg, "build", manifest)


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
    for stage in STAGE_ORDER:
        path = _manifest_path(cfg, stage)
        if not os.path.exists(path):
            continue
        with open(path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
        if manifest.get("ingest_counters"):
            counters["ingest"] = dict(manifest["ingest_counters"])
        if manifest.get("counters"):
            counters[stage] = dict(manifest["counters"])
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

def run_pipeline(cfg: PipelineConfig) -> RunSummary:
    """Execute every stage in order, skipping stages whose checkpoint
    manifest is still valid; a re-run after interruption therefore
    resumes after the last completed stage.
    """
    require_valid(cfg)
    os.makedirs(cfg.output_dir, exist_ok=True)
    summary = RunSummary()

    raw_repos, ingest_counters, upstream = ingest_and_fingerprint(cfg)
    for stage in STAGE_ORDER:
        if stage == "build" and not cfg.stages.build:
            break
        manifest = _stage_is_current(cfg, stage, upstream)
        if manifest is not None:
            summary.skipped_stages.append(stage)
        else:
            try:
                if stage == "filter":
                    manifest = stage_filter(cfg, upstream, raw_repos, ingest_counters)
                elif stage == "order":
                    manifest = stage_order(cfg, upstream)
                elif stage == "dedup":
                    manifest = stage_dedup(cfg, upstream)
                elif stage == "decontaminate":
                    manifest = stage_decontaminate(cfg, upstream)
                else:
                    manifest = stage_build(cfg, upstream)
            except Exception as exc:  # halt with the stage name attached
                raise StageFailure(stage, exc) from exc
            summary.completed_stages.append(stage)
        upstream = _outputs_hash(manifest)
        if stage == "build":
            summary.output_files = [
                entry["path"] for entry in manifest["outputs"]
            ]

    summary.stats = emit_stats(cfg)
    run_record = {
        "config_hash": config_hash(cfg),
        "stages_completed": summary.completed_stages,
        "stages_skipped": summary.skipped_stages,
        "output_files": summary.output_files,
    }
    with open(os.path.join(cfg.output_dir, "run.json"), "w", encoding="utf-8") as fh:
        json.dump(run_record, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return summary
