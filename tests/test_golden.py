"""The byte-identity gate: whole runs of the small bench corpora must
give the output digests and `run` stdout recorded in
tests/golden/digests.json.

Each case generates a corpus with `bench/gen_corpus.generate(name, 1,
dir, small=True)` and runs `repopipe run` in-process from that
directory, with relative `inputs`, `output_dir` and `benchmark_files`:
`config_hash` covers those paths, so absolute temporary paths would move
every manifest. Only a change that declares new output bytes may
rewrite the table, with `python tests/golden/regenerate.py`.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from conftest import output_digest
from repopipe.cli import main

ROOT = Path(__file__).resolve().parents[1]
TABLE = ROOT / "tests" / "golden" / "digests.json"
sys.path.insert(0, str(ROOT / "bench"))

from gen_corpus import generate  # noqa: E402

CORPORA = ("mixed", "monorepo", "rebuild")
REPORTS = {"dump_graphs": True, "dedup": {"report": True}, "decontaminate": {"report": True}}
# name: config fields over the defaults, inputs and benchmark files.
VARIANTS = {
    "w1-jsonl": {},
    "w2-bin-reports": {**REPORTS, "workers": 2, "build": {"output_format": "bin"}},
    "w1-pad-shards-reports": {**REPORTS, "build": {"pad_final": True, "entry_len": 1024, "entries_per_shard": 3}},
}
JSONL_INPUT = ("mixed", "w2-jsonl-input")  # the one corpus also run from a JSONL file
CASES = [(corpus, variant) for corpus in CORPORA for variant in VARIANTS] + [JSONL_INPUT]


def corpus_dir(corpus: str, root: Path) -> Path:
    """The seed-1 small corpus, generated under `root` once."""
    where = root / corpus
    if not where.exists():
        generate(corpus, 1, str(where), small=True)
    return where


def run_case(variant: str) -> dict:
    """Run one case from the current directory, which holds its corpus;
    return the digest of every output file but run.json, and run's stdout."""
    if variant == JSONL_INPUT[1]:  # the corpus's files as JSONL lines, in path order
        with open("corpus.jsonl", "w", encoding="utf-8") as fh:
            for path in sorted(Path("corpus").rglob("*")):
                if path.is_file():
                    repo_id, rel = path.relative_to("corpus").as_posix().split("/", 1)
                    row = {"repo_id": repo_id, "path": rel, "content": path.read_text(encoding="utf-8")}
                    fh.write(json.dumps(row) + "\n")
        fields = {"inputs": ["corpus.jsonl"], "workers": 2}
    else:
        fields = {"inputs": ["corpus"], **VARIANTS[variant]}
    out = f"out-{variant}"
    config = {
        "output_dir": out,
        "seed": 1,
        **fields,
        "decontaminate": {"benchmark_files": ["benchmarks.jsonl"], **fields.get("decontaminate", {})},
    }
    with open(f"{out}.json", "w", encoding="utf-8") as fh:
        json.dump(config, fh)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(["run", "--config", f"{out}.json"])
    assert code == 0
    return {"files": output_digest(Path(out)), "stdout": stdout.getvalue()}


def record(root: Path) -> dict:
    """Every case's result, keyed "corpus/variant", run under `root`."""
    table = {}
    here = os.getcwd()
    try:
        for corpus, variant in CASES:
            os.chdir(corpus_dir(corpus, root))
            table[f"{corpus}/{variant}"] = run_case(variant)
    finally:
        os.chdir(here)
    return table


@pytest.fixture(scope="module")
def corpora(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("golden")


@pytest.mark.parametrize("corpus,variant", CASES)
def test_output_bytes_match_the_golden_table(corpora, monkeypatch, request, corpus, variant):
    expected = json.loads(TABLE.read_text(encoding="utf-8"))[f"{corpus}/{variant}"]
    monkeypatch.chdir(corpus_dir(corpus, corpora))
    # The small corpora are far below POOL_MIN_CHARS; `pooled` sets it
    # to 0, so that the 2-worker cases still fork.
    pooled = request.getfixturevalue("pooled") if variant.startswith("w2") else None
    assert run_case(variant) == expected
    if pooled is not None:
        assert len(pooled) == 3, pooled  # order, dedup and decontaminate
