"""The package root loads no stage module, and the config module no
other repopipe module. So importing the root, the config and the
language table, then loading and validating a config, loads neither
numpy, the pipeline, the filter and build kernels, `html.parser` (the
HTML filter's) nor OpenSSL's `_hashlib`; the kernels take their config
sections from the config module. A resume and `stats` load neither
numpy, the process pool, nor any stage kernel module: `pipeline` binds
the kernel names on first use, before ingest on a run that will run a
stage, and a name set in its namespace before that, such as a tracer's
wrapper, is the one the stages call. A 2-worker run whose stages all
stay below the pool threshold loads no pool module."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import repopipe
from conftest import fixture_config
from repopipe.config import config_to_dict
from repopipe.pipeline import run_pipeline, run_stage


POOL = ["concurrent.futures.process", "multiprocessing"]
KERNELS = [f"repopipe.{name}" for name in ("corpus", "decontam", "dedup", "deps", "filters", "packing")]
HEAVY = [*POOL, "numpy", *KERNELS, "html.parser"]


def run_child(code: str, *args: str) -> str:
    """The last line `code` prints to stdout in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(repopipe.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return out.stdout.strip().splitlines()[-1]


def write_config(cfg, path) -> str:
    path.write_text(json.dumps(config_to_dict(cfg)))
    return str(path)


def test_config_and_corpus_load_no_numpy_or_pipeline(tmp_path):
    path = write_config(fixture_config(tmp_path), tmp_path / "config.json")
    unloaded = ["numpy", "repopipe.pipeline", "repopipe.filters", "repopipe.packing", "html.parser", "_hashlib"]
    code = (
        "import sys, repopipe, repopipe.config, repopipe.corpus\n"
        "from repopipe.config import load_config, require_valid\n"
        "require_valid(load_config(sys.argv[1]))\n"
        f"print(sorted(set({unloaded!r}) & set(sys.modules)))\n"
    )
    assert run_child(code, path) == "[]"
    from repopipe import config, filters, packing

    assert filters.FilterThresholds is config.FilterThresholds
    assert packing.SentinelSet is config.SentinelSet


def test_resume_stats_and_default_config_load_no_numpy_or_pool(tmp_path):
    cfg = fixture_config(tmp_path)
    run_pipeline(cfg)
    config = write_config(cfg, tmp_path / "config.json")
    code = (
        "import sys\n"
        "from repopipe.cli import main\n"
        "assert main(sys.argv[1:]) == 0\n"
        f"print(sorted(set({HEAVY!r}) & set(sys.modules)))\n"
    )
    for argv in (["run", "--config", config], ["stats", "--config", config], ["--print-default-config"]):
        assert run_child(code, *argv) == "[]", argv
    run_record = json.loads((tmp_path / "out" / "run.json").read_text())
    assert run_record["stages_completed"] == []


def test_two_worker_run_below_the_pool_threshold_loads_no_pool(tmp_path):
    # Every stage's input is far below POOL_MIN_CHARS, so no stage starts
    # a pool, and the run pays for no pool module either.
    cfg = fixture_config(tmp_path, workers=2)
    config = write_config(cfg, tmp_path / "config.json")
    code = (
        "import sys\n"
        "from repopipe.cli import main\n"
        "assert main(sys.argv[1:]) == 0\n"
        f"print(sorted(set({POOL!r}) & set(sys.modules)))\n"
    )
    assert run_child(code, "run", "--config", config) == "[]"
    run_record = json.loads((tmp_path / "out" / "run.json").read_text())
    assert run_record["stages_completed"] == ["filter", "order", "dedup", "decontaminate", "build"]


def test_dedup_pool_starts_after_the_parent_imports_numpy(tmp_path):
    # Forked pool workers inherit the parent's modules; without numpy
    # there, each worker would import it again.
    cfg = fixture_config(tmp_path)
    run_stage(cfg, "filter")
    run_stage(cfg, "order")
    cfg.workers = 2
    config = write_config(cfg, tmp_path / "config.json")
    code = (
        "import concurrent.futures, sys\n"
        "import repopipe.pipeline\n"
        "from repopipe.config import load_config\n"
        "from repopipe.pipeline import run_stage\n"
        "repopipe.pipeline.POOL_MIN_CHARS = 0\n"
        "repopipe.pipeline.CHUNK_CHARS = 1\n"
        "assert 'numpy' not in sys.modules\n"
        "seen = []\n"
        "class Pool(concurrent.futures.ProcessPoolExecutor):\n"
        "    def __init__(self, *args, **kwargs):\n"
        "        seen.append('numpy' in sys.modules)\n"
        "        super().__init__(*args, **kwargs)\n"
        "concurrent.futures.ProcessPoolExecutor = Pool\n"
        "run_stage(load_config(sys.argv[1]), 'dedup')\n"
        "print(seen)\n"
    )
    assert run_child(code, config) == "[True]"


def test_a_run_binds_the_kernels_before_ingest_unless_it_resumes(tmp_path):
    # Kernels imported after ingest, with every repo held, raised a fresh
    # run's peak RSS; a resume must not import them at all.
    cfg = fixture_config(tmp_path)
    config = write_config(cfg, tmp_path / "config.json")
    code = (
        "import sys\n"
        "from repopipe import pipeline\n"
        "from repopipe.cli import main\n"
        "seen = []\n"
        "load_repos = pipeline.load_repos\n"
        "def loading(*args):\n"
        "    seen.append('repopipe.dedup' in sys.modules)\n"
        "    return load_repos(*args)\n"
        "pipeline.load_repos = loading\n"
        "assert main(sys.argv[1:]) == 0\n"
        "print(seen)\n"
    )
    assert run_child(code, "run", "--config", config) == "[True]"
    assert run_child(code, "run", "--config", config) == "[False]"


def test_kernel_names_resolve_and_wrappers_set_before_a_run_apply(tmp_path):
    # How bench/traced_run.py times the kernels: it replaces names in
    # `pipeline`'s namespace before the run starts.
    cfg = fixture_config(tmp_path)
    config = write_config(cfg, tmp_path / "config.json")
    code = (
        "import sys\n"
        "from repopipe import pipeline\n"
        "from repopipe.config import load_config\n"
        "assert 'repopipe.dedup' not in sys.modules\n"
        "from repopipe import dedup\n"
        "assert pipeline.minhash_signature is dedup.minhash_signature\n"
        "assert not hasattr(pipeline, 'no_such_name')\n"
        "calls = []\n"
        "detect = pipeline.detect_language\n"
        "def counted(*args):\n"
        "    calls.append(args[0])\n"
        "    return detect(*args)\n"
        "setattr(pipeline, 'detect_language', counted)\n"
        "pipeline.run_pipeline(load_config(sys.argv[1]))\n"
        "print(len(calls))\n"
    )
    calls = int(run_child(code, config))
    filter_manifest = json.loads((tmp_path / "out" / "manifests" / "filter.json").read_text())
    assert calls == filter_manifest["input_records"] > 0
