"""Rewrite tests/golden/digests.json from the current code.

    PYTHONPATH=src python tests/golden/regenerate.py

Run it only for a change that declares new output bytes, and list the
files whose digests moved in CHANGES.md.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from test_golden import TABLE, record  # noqa: E402


def main() -> None:
    with tempfile.TemporaryDirectory() as root:
        table = record(Path(root))
    with open(TABLE, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(table)} cases written to {TABLE}")


if __name__ == "__main__":
    main()
