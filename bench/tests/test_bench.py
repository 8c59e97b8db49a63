"""The benchmark at small size: generator, workloads, traced run and
output checks, plus corrupted outputs that each check must reject.

    PYTHONPATH=src python -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run as bench_run  # noqa: E402
from check_outputs import (  # noqa: E402
    CheckError,
    check_all,
    check_build,
    check_decontam,
    check_dedup,
    check_filter,
    check_order,
    read_jsonl,
)
from gen_corpus import generate  # noqa: E402

SEED = 3


def write_jsonl(path: Path, rows: list[dict]) -> None:
    text = "".join(json.dumps(r, sort_keys=True, ensure_ascii=False) + "\n" for r in rows)
    path.write_text(text, encoding="utf-8")


def pipeline_run(tmp: Path, workload: str) -> tuple[dict, Path, Path]:
    truth = generate(workload, SEED, str(tmp), small=True)
    out = tmp / "out"
    cfg = {
        "inputs": [str(tmp / "corpus")],
        "output_dir": str(out),
        "seed": SEED,
        "decontaminate": {"benchmark_files": [str(tmp / "benchmarks.jsonl")]},
        "build": {"entry_len": 256, "output_format": "bin" if workload == "monorepo" else "jsonl"},
    }
    (tmp / "config.json").write_text(json.dumps(cfg), encoding="utf-8")
    subprocess.run(
        [sys.executable, "-m", "repopipe.cli", "run", "--config", str(tmp / "config.json")],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        check=True,
        capture_output=True,
    )
    return truth, out, tmp / "corpus"


@pytest.fixture(scope="module", params=["mixed", "monorepo"])
def done(request, tmp_path_factory):
    return pipeline_run(tmp_path_factory.mktemp(request.param), request.param)


@pytest.fixture
def copy(done, tmp_path):
    """A private copy of the output directory to corrupt."""
    truth, out, corpus = done
    dst = tmp_path / "out"
    shutil.copytree(out, dst)
    return truth, dst, corpus


def test_generator_is_seeded(tmp_path):
    a = generate("mixed", SEED, str(tmp_path / "a"), small=True)
    b = generate("mixed", SEED, str(tmp_path / "b"), small=True)
    c = generate("mixed", SEED + 1, str(tmp_path / "c"), small=True)
    assert a == b and a != c
    assert (tmp_path / "a/benchmarks.jsonl").read_bytes() == (tmp_path / "b/benchmarks.jsonl").read_bytes()
    assert a["leaks"] and a["near_misses"] and len(a["clusters"]) == 2
    assert all(n == 1 for n in a["filter_drops"].values())


def test_correct_output_passes_every_check(done):
    truth, out, corpus = done
    check_all(str(out), truth, str(corpus), bench_run.FIM_RATE)


def test_flipped_token_is_rejected(copy):
    truth, out, _ = copy
    shard = sorted((out / "entries").glob("entries-00000.*"))[0]
    if shard.suffix == ".bin":
        ids = np.fromfile(shard, dtype="<u4")
        ids[len(ids) // 2] ^= 1
        ids.tofile(shard)
    else:
        rows = read_jsonl(str(shard))
        rows[0]["token_ids"][len(rows[0]["token_ids"]) // 2] ^= 1
        write_jsonl(shard, rows)
    with pytest.raises(CheckError):
        check_build(str(out), truth, bench_run.FIM_RATE)


def test_leaked_repo_left_in_is_rejected(copy):
    truth, out, _ = copy
    if not truth["leaks"]:
        pytest.skip("this workload plants no leaks")
    leaked = next(iter(truth["leaks"]))
    before = read_jsonl(str(out / "work/samples_dedup.jsonl"))
    clean = read_jsonl(str(out / "work/samples_clean.jsonl"))
    keep = {r["repo_id"] for r in clean} | {leaked}
    write_jsonl(out / "work/samples_clean.jsonl", [r for r in before if r["repo_id"] in keep])
    with pytest.raises(CheckError):
        check_decontam(str(out), truth)


def test_excluded_near_miss_is_rejected(copy):
    truth, out, _ = copy
    near = next(iter(truth["near_misses"]))
    clean = read_jsonl(str(out / "work/samples_clean.jsonl"))
    write_jsonl(out / "work/samples_clean.jsonl", [r for r in clean if r["repo_id"] != near])
    with pytest.raises(CheckError):
        check_decontam(str(out), truth)


def test_wrong_dedup_survivor_is_rejected(copy):
    truth, out, _ = copy
    if not truth["clusters"]:
        pytest.skip("this workload plants no clusters")
    cluster = truth["clusters"][-1]
    loser = next(m for m in cluster["members"] if m != cluster["survivor"])
    samples = {r["repo_id"]: r for r in read_jsonl(str(out / "work/samples.jsonl"))}
    rows = read_jsonl(str(out / "work/samples_dedup.jsonl"))
    rows = [samples[loser] if r["repo_id"] == cluster["survivor"] else r for r in rows]
    write_jsonl(out / "work/samples_dedup.jsonl", sorted(rows, key=lambda r: r["repo_id"]))
    with pytest.raises(CheckError):
        check_dedup(str(out), truth)


def test_swapped_dependency_order_is_rejected(copy):
    truth, out, corpus = copy
    rows = read_jsonl(str(out / "work/samples.jsonl"))
    row = next(r for r in rows if truth["edges"][r["repo_id"]])
    dependent, dependency = truth["edges"][row["repo_id"]][0]
    order = row["ordered_paths"]
    i, j = order.index(dependent), order.index(dependency)
    order[i], order[j] = order[j], order[i]
    write_jsonl(out / "work/samples.jsonl", rows)
    with pytest.raises(CheckError, match="must precede"):
        check_order(str(out), truth, str(corpus))


def test_dropped_clean_file_is_rejected(copy):
    truth, out, _ = copy
    rows = read_jsonl(str(out / "work/files.jsonl"))
    write_jsonl(out / "work/files.jsonl", rows[1:])
    with pytest.raises(CheckError):
        check_filter(str(out), truth)


def test_peak_rss_is_the_childs_not_the_harness(tmp_path):
    ballast = b"x" * 200_000_000  # lifts this process's peak RSS above 200 MB
    _, rss, code = bench_run.launch([sys.executable, "-c", "pass"], str(tmp_path / "log"))
    assert code == 0 and bench_run.harness_peak_mb() > 200 and rss < 100
    del ballast


@pytest.fixture
def small_bench(tmp_path, monkeypatch):
    """run.py's workloads on the small corpora, under tmp_path."""
    monkeypatch.setattr(bench_run, "WORK", str(tmp_path))
    monkeypatch.setattr(bench_run, "SETUP_LAUNCHES", 1)
    monkeypatch.setattr(bench_run, "generate", lambda *a: generate(*a, small=True))


def _declared(kind: str) -> set[str]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"] for m in json.load(fh)[kind]}


@pytest.mark.parametrize("workload", ["mixed", "monorepo", "rebuild"])
def test_workload_reports_every_end_to_end_metric(small_bench, workload):
    result = bench_run.run(workload, SEED, 0, trace=False)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 1 + bench_run.ROUND_RESUMES + (workload == "rebuild")
    assert set(result["metrics"]) == _declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_per_layer_metric(small_bench):
    result = bench_run.run("rebuild", SEED, 0, trace=True)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == _declared("per_layer")
    assert result["metrics"]["pipeline.stages_run"]["value"] == 5
    assert result["metrics"]["ingest.files"]["value"] > 0
