"""The benchmark's per-layer spans still see every call they time.

bench/traced_run.py wraps pipeline functions by module attribute, so a
call that no longer goes through one of those names leaves its metric at
0 without failing anything. This runs it, in a subprocess because the
wrappers patch module globals, on the small `mixed` corpus, and on the seed-1 `monorepo` corpus for the
work counts that a faster kernel must leave as they were.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

from gen_corpus import generate  # noqa: E402


def traced(tmp_path: Path, workload: str, seed: int, small: bool, **fields) -> dict:
    """The report of one traced run of the generated corpus."""
    generate(workload, seed, str(tmp_path), small=small)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "inputs": [str(tmp_path / "corpus")],
        "output_dir": str(tmp_path / "out"),
        "seed": seed,
        "decontaminate": {"benchmark_files": [str(tmp_path / "benchmarks.jsonl")]},
        **fields,
    }), encoding="utf-8")
    result = tmp_path / "trace.json"
    subprocess.run(
        [sys.executable, str(ROOT / "bench" / "traced_run.py"), str(ROOT / "src"), str(config), str(result)],
        check=True,
        capture_output=True,
    )
    report = json.loads(result.read_text(encoding="utf-8"))
    assert report["exit"] == 0
    return report


def test_every_per_layer_metric_is_positive(tmp_path):
    report = traced(tmp_path, "mixed", 3, small=True)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    # bench/run.py adds trace.overhead_s, from a pair of runs.
    assert set(report["metrics"]) == {m["name"] for m in declared} - {"trace.overhead_s"}
    assert len(report["metrics"]) == 48
    assert {name: value for name, (value, _) in report["metrics"].items() if not value > 0} == {}


def test_monorepo_work_counts_are_unchanged(tmp_path):
    """Shingles hashed and tokens screened on the bench's seed-1 `monorepo`
    run, as the regex tokenizer and the per-token heuristics counted them."""
    report = traced(tmp_path, "monorepo", 1, small=False,
                    build={"fim_rate": 0.5, "output_format": "bin"})
    counts = {name: report["metrics"][name][0] for name in ("dedup.shingles", "decontam.tokens_scanned")}
    assert counts == {"dedup.shingles": 506_100, "decontam.tokens_scanned": 619_833}
