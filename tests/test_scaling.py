"""Wall-time budgets for the two cases that used to grow faster than
linearly: ordering a repo with thousands of files and a dense import
graph, and packing one multi-MB document.
"""

from __future__ import annotations

import random
import time

from repopipe.corpus import SourceFile
from repopipe.deps import order_repo_files
from repopipe.packing import ByteTokenizer, pack_entries


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
