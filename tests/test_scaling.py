"""Wall-time budgets for the cases that used to grow faster than
linearly: ordering a repo with thousands of files and a dense import
graph, packing one multi-MB document, and extracting references from a
file with a long run of blank lines, many unclosed Go import blocks or
many JavaScript imports that never reach a `from`. And a memory budget:
the build stage's peak is set by its largest document, not by how many
there are.
"""

from __future__ import annotations

import random
import time
import tracemalloc

from conftest import code_lines, write_repo
from repopipe.config import PipelineConfig
from repopipe.corpus import SourceFile
from repopipe.deps import EXTRACTION_LANGUAGES, extract_dependencies, order_repo_files
from repopipe.packing import ByteTokenizer, pack_entries
from repopipe.pipeline import run_stage


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
