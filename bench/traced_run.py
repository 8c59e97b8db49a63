"""One `repopipe run` in this process, with spans around the public
functions the pipeline calls, and per-layer metrics written as JSON.

    python3 bench/traced_run.py SRC_DIR CONFIG OUT_JSON

The spans live in this file, not in the program: each wrapper replaces a
name in the module namespace the caller looks it up in, so nothing under
src/ changes. With one worker every stage runs in this process, so every
call is seen. Self time is a span's duration minus its child spans.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time

RSS_SAMPLE_S = 0.005
STAGES = ("filter", "order", "dedup", "decontaminate", "build")


class Tracer:
    """Durations and self times of spans summed per name; counts at the
    same boundaries."""

    def __init__(self) -> None:
        self.stack: list[list] = []  # [name, start, child_time, excluded_time]
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.counts: dict[str, float] = {}
        self.hwm: dict[str, int] = {}
        self._statm = os.open("/proc/self/statm", os.O_RDONLY)
        self._page = os.sysconf("SC_PAGE_SIZE")
        self._stop = threading.Event()
        self._sampler = threading.Thread(target=self._sample_loop, daemon=True)

    def rss(self) -> int:
        return int(os.pread(self._statm, 128, 0).split()[1]) * self._page

    def _note_rss(self) -> None:
        rss = self.rss()
        for frame in tuple(self.stack):
            if rss > self.hwm.get(frame[0], 0):
                self.hwm[frame[0]] = rss

    def _sample_loop(self) -> None:
        while not self._stop.wait(RSS_SAMPLE_S):
            self._note_rss()

    def __enter__(self) -> "Tracer":
        self._sampler.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._sampler.join()
        os.close(self._statm)

    def enter(self, name: str) -> None:
        self.stack.append([name, time.perf_counter(), 0.0, 0.0])
        self._note_rss()

    def exit(self) -> None:
        self._note_rss()
        end = time.perf_counter()
        name, start, child, excluded = self.stack.pop()
        dur = end - start - excluded
        self.total[name] = self.total.get(name, 0.0) + dur
        self.self_time[name] = self.self_time.get(name, 0.0) + dur - child
        if self.stack:
            self.stack[-1][2] += dur
        if name.startswith("pipeline."):
            self.count("pipeline.stages_run")

    def exclude(self, seconds: float) -> None:
        """Time spent counting, kept out of every open span."""
        for frame in self.stack:
            frame[3] += seconds

    def count(self, key: str, by: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + by


def wrap(tracer: Tracer, owner, attr: str, name: str, counter=None) -> None:
    fn = getattr(owner, attr)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if counter is not None:
            t0 = time.perf_counter()
            counter(result, args)
            tracer.exclude(time.perf_counter() - t0)
        return result

    setattr(owner, attr, traced)


def instrument(tracer: Tracer, threshold: float, fim_start: str) -> None:
    from repopipe import dedup, deps, packing, pipeline

    c = tracer.count
    wrap(tracer, pipeline, "ingest_and_fingerprint", "ingest",
         lambda r, a: c("ingest.files", sum(len(repo.files) for repo in r[0])))
    for stage in STAGES:
        wrap(tracer, pipeline, f"stage_{stage}", f"pipeline.{stage}")
    wrap(tracer, pipeline, "emit_stats", "stats")

    wrap(tracer, pipeline, "detect_language", "filters.detect_language",
         lambda r, a: c("filters.files_dropped", r is None))
    dropped = lambda r, a: c("filters.files_dropped", not r.accepted)  # noqa: E731
    wrap(tracer, pipeline, "compute_file_stats", "filters.file_stats")
    wrap(tracer, pipeline, "apply_base_filters", "filters.base", dropped)
    wrap(tracer, pipeline, "filter_html", "filters.html", dropped)
    wrap(tracer, pipeline, "filter_data_file", "filters.data", dropped)

    wrap(tracer, pipeline, "order_repo_files", "deps.order", lambda r, a: c("deps.edges", len(r[1])))
    wrap(tracer, pipeline, "concatenate_with_paths", "deps.concat")
    wrap(tracer, deps, "extract_dependencies", "deps.extract")
    wrap(tracer, deps, "topological_sort", "deps.toposort")

    wrap(tracer, pipeline, "minhash_signature", "dedup.signature")
    wrap(tracer, pipeline, "find_near_duplicates", "dedup.lsh")
    wrap(tracer, dedup, "shingle_set", "dedup.shingle_set", lambda r, a: c("dedup.shingles", len(r)))

    def pair(sim, args):
        c("dedup.pairs_checked")
        c("dedup.pairs_merged", sim >= threshold)

    wrap(tracer, dedup, "signature_similarity", "dedup.similarity", pair)

    def index(idx, args):
        c("decontam.index_entries", len(idx))
        c("decontam.exact_lengths", len(idx.exact_lengths))

    wrap(tracer, pipeline, "build_contamination_index", "decontam.index", index)
    wrap(tracer, pipeline, "apply_quality_heuristics", "decontam.heuristics")
    wrap(tracer, pipeline, "scan_text", "decontam.scan",
         lambda r, a: c("decontam.tokens_scanned", len(a[0].split())))

    wrap(tracer, pipeline, "fim_transform", "fim",
         lambda r, a: c("fim.applied", r is not None and r.startswith(fim_start)))

    def packed(res, args):
        c("packing.tokens", res.total_tokens)
        c("packing.entries", len(res.entries))

    wrap(tracer, pipeline, "pack_entries", "packing", packed)
    wrap(tracer, packing.ByteTokenizer, "encode", "packing.encode")


def layer_metrics(tracer: Tracer, out_dir: str) -> dict[str, tuple[float, str]]:
    t, s, n = tracer.total, tracer.self_time, tracer.counts
    mb = lambda b: b / 1e6  # noqa: E731

    def tsum(*names: str) -> float:
        return sum(t.get(x, 0.0) for x in names)

    checked = n.get("dedup.pairs_checked", 0)
    m = {
        "ingest.s": (tsum("ingest"), "s"),
        "ingest.files": (n.get("ingest.files", 0), "count"),
        "filters.s": (tsum("filters.detect_language", "filters.file_stats", "filters.base",
                           "filters.html", "filters.data"), "s"),
        "filters.file_stats_s": (tsum("filters.file_stats"), "s"),
        "filters.html_s": (tsum("filters.html"), "s"),
        "filters.files_dropped": (n.get("filters.files_dropped", 0), "count"),
        "deps.s": (tsum("deps.order", "deps.concat"), "s"),
        "deps.extract_s": (tsum("deps.extract"), "s"),
        "deps.toposort_s": (tsum("deps.toposort"), "s"),
        "deps.edges": (n.get("deps.edges", 0), "count"),
        "dedup.s": (tsum("dedup.signature", "dedup.lsh"), "s"),
        "dedup.signature_s": (tsum("dedup.signature"), "s"),
        "dedup.lsh_s": (tsum("dedup.lsh"), "s"),
        "dedup.shingles": (n.get("dedup.shingles", 0), "count"),
        "dedup.pairs_checked": (checked, "count"),
        "dedup.pairs_merged": (n.get("dedup.pairs_merged", 0), "count"),
        "dedup.pair_yield": (n.get("dedup.pairs_merged", 0) / checked if checked else 0.0, "ratio"),
        "dedup.rss_hwm_mb": (mb(max(tracer.hwm.get("dedup.signature", 0), tracer.hwm.get("dedup.lsh", 0))), "MB"),
        "decontam.s": (tsum("decontam.index", "decontam.scan", "decontam.heuristics"), "s"),
        "decontam.index_s": (tsum("decontam.index"), "s"),
        "decontam.scan_s": (tsum("decontam.scan"), "s"),
        "decontam.heuristics_s": (tsum("decontam.heuristics"), "s"),
        "decontam.tokens_scanned": (n.get("decontam.tokens_scanned", 0), "count"),
        "decontam.index_entries": (n.get("decontam.index_entries", 0), "count"),
        "decontam.exact_lengths": (n.get("decontam.exact_lengths", 0), "count"),
        "fim.s": (tsum("fim"), "s"),
        "fim.applied": (n.get("fim.applied", 0), "count"),
        "packing.s": (tsum("packing"), "s"),
        "packing.encode_s": (tsum("packing.encode"), "s"),
        "packing.tokens": (n.get("packing.tokens", 0), "count"),
        "packing.entries": (n.get("packing.entries", 0), "count"),
        "pipeline.stages_run": (n.get("pipeline.stages_run", 0), "count"),
        "stats.s": (tsum("stats"), "s"),
    }
    for stage in STAGES:
        span = f"pipeline.{stage}"
        m[f"{span}.self_s"] = (s.get(span, 0.0), "s")
        m[f"{span}.rss_hwm_mb"] = (mb(tracer.hwm.get(span, 0)), "MB")
        with open(os.path.join(out_dir, "manifests", f"{stage}.json"), encoding="utf-8") as fh:
            outputs = json.load(fh)["outputs"]
        m[f"{span}.out_mb"] = (mb(sum(os.path.getsize(os.path.join(out_dir, o["path"])) for o in outputs)), "MB")
    return m


def main() -> int:
    src, config, out_json = sys.argv[1:4]
    sys.path.insert(0, src)
    from repopipe import cli
    from repopipe.config import load_config

    cfg = load_config(config)
    with Tracer() as tracer:
        instrument(tracer, cfg.dedup.threshold, cfg.build.sentinel_set().fim_start)
        code = cli.main(["run", "--config", config, "--workers", "1"])
    metrics = layer_metrics(tracer, cfg.output_dir) if code == 0 else {}
    with open(out_json, "w", encoding="utf-8") as fh:
        json.dump({"exit": code, "metrics": metrics}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
