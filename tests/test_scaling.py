"""Wall-time budgets for the cases that used to grow faster than
linearly: ordering a repo with thousands of files and a dense import
graph, packing one multi-MB document, and extracting references from a
file with a long run of blank lines, many unclosed Go import blocks or
many JavaScript imports that never reach a `from`. And memory budgets:
the peak of each stage is set by its largest document, not by how many
there are, and the per-sample kernels hold a slice of their sample, not
a token list of all of it.
"""

from __future__ import annotations

import itertools
import json
import random
import shutil
import time
import tracemalloc
from pathlib import Path

import pytest
from conftest import code_lines, fixture_config, write_repo
from repopipe import pipeline
from repopipe.config import PipelineConfig
from repopipe.corpus import SourceFile
from repopipe.decontam import build_contamination_index, scan_text
from repopipe.dedup import minhash_signature
from repopipe.deps import EXTRACTION_LANGUAGES, extract_dependencies, order_repo_files
from repopipe.filters import apply_quality_heuristics
from repopipe.packing import ByteTokenizer, pack_entries
from repopipe.pipeline import CLEAN_OUT, run_stage


def dense_repo(n_files: int = 4000, seed: int = 0) -> list[SourceFile]:
    """n_files split evenly over five languages, in nested packages;
    each file imports up to five earlier files of its language."""
    rng = random.Random(seed)
    per_lang = n_files // 5
    files: list[SourceFile] = []
    for lang, ext in (("Python", ".py"), ("C", ".h"), ("Go", ".go"), ("JavaScript", ".js"), ("Java", ".java")):
        stems = [f"src/m{i % 7}/p{i % 40}/f{i}" for i in range(per_lang)]
        for i, stem in enumerate(stems):
            refs = [stems[j] for j in rng.sample(range(i), min(i, rng.randint(0, 5)))]
            if lang == "Python":
                lines = [f"import {r.replace('/', '.')}" for r in refs]
            elif lang == "C":
                lines = [f'#include "{r}.h"' for r in refs]
            elif lang == "Go":
                lines = [f'import "example.com/mod/{r.rsplit("/", 1)[0]}"' for r in refs]
            elif lang == "JavaScript":
                lines = [f"import x from '{r}';" for r in refs]
            else:
                lines = [f"import {r.replace('/', '.')};" for r in refs]
            content = "\n".join(lines) + f"\nvalue_{i} = {i}\n"
            files.append(SourceFile("big", stem + ext, lang, content, len(content)))
    return files


def test_order_4000_file_dense_repo_within_budget():
    files = dense_repo()
    started = time.monotonic()
    ordered, edges = order_repo_files(files)
    elapsed = time.monotonic() - started
    assert len(ordered) == 4000
    assert len(edges) > 10_000
    assert elapsed < 3.0, f"ordering 4,000 files took {elapsed:.1f}s (budget 3s)"


def test_pack_8mb_document_within_budget():
    rng = random.Random(0)
    doc = "".join(rng.choice("abcdefgh \n") for _ in range(1 << 16)) * 128  # 8 MiB
    started = time.monotonic()
    result = pack_entries([doc], ByteTokenizer(), 4096)
    elapsed = time.monotonic() - started
    assert len(result.entries) == len(doc) // 4096
    assert result.dropped_tokens == len(doc) % 4096
    assert elapsed < 5.0, f"packing an 8 MiB document took {elapsed:.1f}s (budget 5s)"


def _extract_seconds(language: str, content: str) -> float:
    file = SourceFile("r", "main", language, content, len(content))
    started = time.monotonic()
    extract_dependencies(file, ["main", "fmt/fmt.go", "x.h"])
    return time.monotonic() - started


def test_blank_line_run_extracts_within_budget():
    # Each line start of the run once rescanned the rest of it: 20,000
    # blank lines took 1.2-2.8 s per language.
    content = "\n" * 40_000 + "x" * 7_000
    seconds = {lang: round(_extract_seconds(lang, content), 2) for lang in sorted(EXTRACTION_LANGUAGES)}
    slow = {lang: t for lang, t in seconds.items() if t >= 0.5}
    assert not slow, f"40,000 blank lines took this many seconds (budget 0.5s): {slow}"


def test_unclosed_go_import_blocks_extract_within_budget():
    # Each block start once scanned to the end of the file for a `)`.
    content = 'import (\n\t"fmt"\n' * 8_000  # 128 KB
    elapsed = _extract_seconds("Go", content)
    assert elapsed < 0.5, f"8,000 unclosed import blocks took {elapsed:.1f}s (budget 0.5s)"


def test_js_imports_without_from_extract_within_budget():
    # Each `import` once ran on to the end of the file looking for a
    # `from`: 4,000 lines took 1.2 s.
    content = "import x\n" * 8_000  # 72 KB
    elapsed = _extract_seconds("JavaScript", content)
    assert elapsed < 0.5, f"8,000 import lines without `from` took {elapsed:.1f}s (budget 0.5s)"


def build_peak_bytes(tmp_path, n_repos: int) -> int:
    """tracemalloc peak of the build stage over `n_repos` one-file repos
    of about 200 KB each, numpy's allocations included."""
    corpus = tmp_path / f"corpus-{n_repos}"
    for i in range(n_repos):
        write_repo(corpus, f"repo_{i:03d}", {"main.py": code_lines(seed=i, n_lines=4000)})
    cfg = PipelineConfig(inputs=[str(corpus)], output_dir=str(tmp_path / f"out-{n_repos}"))
    cfg.stages.dedup = cfg.stages.decontaminate = False
    cfg.build.entry_len, cfg.build.output_format = 1024, "bin"
    for stage in ("filter", "order", "dedup", "decontaminate"):
        run_stage(cfg, stage)
    tracemalloc.start()
    try:
        manifest = run_stage(cfg, "build")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert manifest["input_records"] == n_repos
    return peak


def test_build_peak_does_not_grow_with_document_count(tmp_path):
    one, four = build_peak_bytes(tmp_path, 4), build_peak_bytes(tmp_path, 16)
    assert four <= 1.15 * one, f"build peak {one / 1e6:.1f} MB on 4 documents, {four / 1e6:.1f} MB on 16"


def traced_peak(fn, *args):
    """(fn(*args), the tracemalloc peak of the call), numpy's
    allocations included."""
    tracemalloc.start()
    try:
        result = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def stage_peaks(tmp_path: Path, copies: int, monkeypatch) -> dict[str, int]:
    """Peaks of the order, dedup and decontaminate stage functions, not
    counting the runner's hashing of their outputs, on `copies` copies
    of the fixture corpus, each copy of a repo under its own repo id.
    Each stage runs twice and the second run is measured, so what a
    first run leaves cached (reference extraction leaves a bounded set of
    small strings alive) counts at neither size. Decontaminate runs with dedup switched off,
    which would otherwise drop every copy."""
    cfg = fixture_config(tmp_path / f"copies-{copies}")
    corpus = Path(cfg.inputs[0])
    for repo in sorted(p.name for p in corpus.iterdir()):
        for k in range(1, copies):
            shutil.copytree(corpus / repo, corpus / f"{repo}_{k}")
    assert run_stage(cfg, "filter")["ingest_counters"] == {}
    peaks: dict[str, int] = {}
    for stage in ("order", "dedup", "decontaminate"):
        def traced(cfg, source, fn=getattr(pipeline, f"stage_{stage}"), stage=stage):
            result, peaks[stage] = traced_peak(fn, cfg, source)
            return result

        if stage == "decontaminate":
            cfg.stages.dedup = False
            run_stage(cfg, "dedup")
        run_stage(cfg, stage)
        with monkeypatch.context() as patch:
            patch.setattr(pipeline, f"stage_{stage}", traced)
            run_stage(cfg, stage)
    return peaks


def test_stage_peaks_do_not_grow_with_repo_count(tmp_path, monkeypatch):
    one, four = stage_peaks(tmp_path, 1, monkeypatch), stage_peaks(tmp_path, 4, monkeypatch)
    # Dedup keeps each repo's signature (1 KB) and LSH band keys.
    limits = {"order": 1.15 * one["order"], "decontaminate": 1.15 * one["decontaminate"],
              "dedup": 1.15 * one["dedup"] + 5_000 * 12}
    grown = {stage: (one[stage], four[stage]) for stage in limits if four[stage] > limits[stage]}
    assert not grown, f"peak bytes at 1x and 4x the repos: {grown}"


def eight_mib_sample() -> str:
    """8 MiB of generated code. The kernels keep one entry per distinct
    token, as any exact count must, so the text cycles through four
    2,000-line blocks, as a real repo repeats its names, rather than
    making up three new tokens on every line."""
    blocks = itertools.cycle([code_lines(seed=s, n_lines=2000) for s in range(4)])
    parts, size = [], 0
    while size < 8 << 20:
        parts.append(next(blocks))
        size += len(parts[-1])
    return "".join(parts)[: 8 << 20]


@pytest.fixture(scope="module")
def big_sample() -> str:
    return eight_mib_sample()


def test_minhash_peak_within_six_times_the_sample(big_sample):
    _, peak = traced_peak(minhash_signature, big_sample)
    assert peak <= 6 * len(big_sample.encode()), f"peak {peak / len(big_sample):.2f}x the sample"


def test_quality_heuristics_peak_within_twice_the_sample(big_sample):
    verdict, peak = traced_peak(apply_quality_heuristics, big_sample)
    assert verdict.accepted
    assert peak <= 2 * len(big_sample.encode()), f"peak {peak / len(big_sample):.2f}x the sample"


def test_scan_peak_within_twice_the_sample(big_sample):
    lines = big_sample[:5_000].splitlines()
    index = build_contamination_index([(" ".join(lines[i : i + 3]), "b") for i in range(0, 60, 3)])
    report, peak = traced_peak(scan_text, big_sample, index)
    assert report.hit
    assert peak <= 2 * len(big_sample.encode()), f"peak {peak / len(big_sample):.2f}x the sample"


@pytest.mark.parametrize("fim_rate, limit", [(1.0, 4.5), (0.0, 3.0)], ids=["fim", "no-fim"])
def test_build_peak_within_a_few_times_the_sample(tmp_path, big_sample, fim_rate, limit):
    write_repo(tmp_path / "corpus", "big", {"main.py": big_sample})
    cfg = PipelineConfig(inputs=[str(tmp_path / "corpus")], output_dir=str(tmp_path / "out"))
    cfg.stages.dedup = cfg.stages.decontaminate = False
    cfg.build.fim_rate, cfg.build.output_format = fim_rate, "bin"
    for stage in ("filter", "order", "dedup", "decontaminate"):
        run_stage(cfg, stage)
    with open(Path(cfg.output_dir) / CLEAN_OUT, encoding="utf-8") as fh:
        size = len(json.loads(fh.readline())["text"].encode())
    manifest, peak = traced_peak(run_stage, cfg, "build")
    assert manifest["fim_applied"] == int(fim_rate)
    assert peak <= limit * size, f"peak {peak / size:.2f}x the sample"
