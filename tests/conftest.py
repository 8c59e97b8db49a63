"""Shared fixture-corpus builders.

The planted corpus is fully deterministic: four repos, one
near-duplicate pair (alpha/beta), one contaminated repo (gamma), one
clean unique repo (delta) with a real import chain, plus a benchmark
file that gamma leaks.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import json
import random
from pathlib import Path

import pytest

from repopipe import pipeline
from repopipe.config import PipelineConfig

BENCH_TEXT = (
    "def planted_reference_solution(values): return sorted(set(values), reverse=True)"
)


def code_lines(seed: int, n_lines: int = 60) -> str:
    rng = random.Random(seed)
    lines = []
    for i in range(n_lines):
        lines.append(f"value_{i} = helper_{seed}_{rng.randint(0, 9999)}(arg_{i}, {i})")
    return "\n".join(lines) + "\n"


def write_repo(root: Path, repo_id: str, files: dict[str, str]) -> None:
    for rel, content in files.items():
        path = root / repo_id / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content, encoding="utf-8")


def build_fixture_corpus(tmp: Path) -> tuple[Path, Path]:
    """Returns (corpus_dir, benchmark_file)."""
    corpus = tmp / "corpus"
    corpus.mkdir(parents=True, exist_ok=True)

    shared = code_lines(seed=11, n_lines=80)
    write_repo(
        corpus,
        "repo_alpha",
        {
            "main.py": shared + "alpha_specific = finalize(value_0)\n",
            "extra.py": "extra_payload = assemble(value_1, value_2)\n",
        },
    )
    # Same content with one changed line and no extra file: smaller, so
    # alpha is the representative.
    write_repo(
        corpus,
        "repo_beta",
        {"main.py": shared + "beta_specific = finalize(value_0)\n"},
    )
    write_repo(
        corpus,
        "repo_gamma",
        {
            "solution.py": (
                code_lines(seed=23, n_lines=20)
                + f"# {BENCH_TEXT}\n"
                + "gamma_tail = wrap_up(value_3)\n"
            )
        },
    )
    write_repo(
        corpus,
        "repo_delta",
        {
            "main.py": "import util\n\n" + code_lines(seed=37, n_lines=30),
            "util.py": code_lines(seed=41, n_lines=25),
        },
    )

    bench = tmp / "benchmarks.jsonl"
    with open(bench, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"text": BENCH_TEXT, "benchmark": "bench-a"}) + "\n")
        fh.write(json.dumps({"text": "unrelated short probe string here", "benchmark": "bench-b"}) + "\n")
    return corpus, bench


def fixture_config(tmp: Path, out_name: str = "out", workers: int = 1) -> PipelineConfig:
    corpus, bench = build_fixture_corpus(tmp)
    cfg = PipelineConfig(
        inputs=[str(corpus)],
        output_dir=str(tmp / out_name),
        seed=7,
        workers=workers,
    )
    cfg.decontaminate.benchmark_files = [str(bench)]
    cfg.dedup.report = True
    cfg.build.entry_len = 64
    cfg.build.entries_per_shard = 8
    return cfg


def output_digest(out: Path) -> dict[str, str]:
    """sha256 of every output file but run.json, which records what ran."""
    return {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file() and p.name != "run.json"
    }


@pytest.fixture
def pooled(monkeypatch) -> list[int]:
    """Pools start at a stage's first item (POOL_MIN_CHARS = 0), one item
    per task (CHUNK_CHARS = 1). The list gets one entry per process pool
    started, the number of items sent to it, so a test can assert that its
    run really forked."""
    counts: list[int] = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            counts.append(0)

        def submit(self, fn, chunk):
            counts[-1] += len(chunk)
            return super().submit(fn, chunk)

    monkeypatch.setattr(pipeline, "POOL_MIN_CHARS", 0)
    monkeypatch.setattr(pipeline, "CHUNK_CHARS", 1)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    return counts


@pytest.fixture
def fixture_corpus(tmp_path: Path) -> tuple[Path, Path]:
    return build_fixture_corpus(tmp_path)


@pytest.fixture
def pipeline_config(tmp_path: Path) -> PipelineConfig:
    return fixture_config(tmp_path)
