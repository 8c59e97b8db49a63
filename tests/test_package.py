"""The package root loads no stage module, so importing it, the config
and the language table loads neither numpy nor the pipeline."""

from __future__ import annotations

import os
import subprocess
import sys

import repopipe


def test_config_and_corpus_load_no_numpy_or_pipeline():
    code = (
        "import sys, repopipe, repopipe.config, repopipe.corpus\n"
        "print(sorted({'numpy', 'repopipe.pipeline'} & set(sys.modules)))\n"
    )
    src = os.path.dirname(os.path.dirname(repopipe.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
