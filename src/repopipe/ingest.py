"""Corpus ingestion from already-downloaded repository trees or JSONL.

Two input shapes are accepted per configured path:

  - a directory: every immediate subdirectory is one repository
    (repo_id = subdirectory name), walked recursively in sorted order;
    dot-directories (.git and friends) are skipped, and so is a
    symlinked file or directory, which may lie outside the corpus or
    nowhere, and a FIFO or other entry that is not a regular file;
  - a *.jsonl file: one object per file with repo_id, path, content.

Files that fail UTF-8 decoding, or whose repo id, path or content holds
a lone surrogate (no UTF-8 output can hold one), or that repeat a path
within their repo are dropped with a counted reason. JSONL is read with
surrogateescape, so a byte that is not UTF-8 becomes a lone surrogate:
in a record's repo id, path or content it counts as a decode error, and
so does a line holding one that does not parse as such a record.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

DROP_DECODE_ERROR = "decode_error"
DROP_DUPLICATE_PATH = "duplicate_path"
DROP_BAD_RECORD = "bad_record"
DROP_SYMLINK = "symlink"
DROP_NOT_REGULAR_FILE = "not_regular_file"


@dataclass
class RawFile:
    path: str
    content: str


@dataclass
class RawRepo:
    repo_id: str
    files: list[RawFile] = field(default_factory=list)


def _walk_repo_dir(root: str, counters: dict[str, int]) -> list[tuple[str, str]]:
    """(repo-relative posix path, absolute path) pairs, each directory's
    files then its subdirectories' in sorted order. A symlink or an entry
    that is neither file nor directory is skipped and counted."""
    out: list[tuple[str, str]] = []
    stack = [(root, "")]
    while stack:
        path, rel = stack.pop()
        try:
            with os.scandir(path) as it:
                entries = sorted(it, key=lambda e: e.name)
        except OSError:
            continue
        subdirs = []
        for entry in entries:
            if entry.name.startswith("."):
                continue
            if entry.is_symlink():
                reason = DROP_SYMLINK
            elif entry.is_dir(follow_symlinks=False):
                subdirs.append((entry.path, rel + entry.name + "/"))
                continue
            elif entry.is_file(follow_symlinks=False):
                out.append((rel + entry.name, entry.path))
                continue
            else:
                reason = DROP_NOT_REGULAR_FILE
            counters[reason] = counters.get(reason, 0) + 1
        stack.extend(reversed(subdirs))
    return out


def load_repos(inputs: list[str], counters: dict[str, int] | None = None) -> list[RawRepo]:
    """Load all configured inputs into per-repo file lists, repos sorted
    by repo_id. Drop reasons accumulate into `counters` when given.
    """
    counters = counters if counters is not None else {}
    repos: dict[str, RawRepo] = {}
    seen_paths: dict[str, set[str]] = {}

    def add_file(repo_id: str, path: str, content: str) -> None:
        try:  # lone surrogates, from a JSON `\ud800` escape or a non-UTF-8 file name
            for text in (repo_id, path, content):
                text.encode("utf-8")
        except UnicodeEncodeError:
            counters[DROP_DECODE_ERROR] = counters.get(DROP_DECODE_ERROR, 0) + 1
            return
        repo = repos.setdefault(repo_id, RawRepo(repo_id=repo_id))
        seen = seen_paths.setdefault(repo_id, set())
        if path in seen:
            counters[DROP_DUPLICATE_PATH] = counters.get(DROP_DUPLICATE_PATH, 0) + 1
            return
        seen.add(path)
        repo.files.append(RawFile(path=path, content=content))

    for source in inputs:
        if os.path.isdir(source):
            for entry in sorted(os.listdir(source)):
                repo_root = os.path.join(source, entry)
                if not os.path.isdir(repo_root) or entry.startswith("."):
                    continue
                for rel, abs_path in _walk_repo_dir(repo_root, counters):
                    with open(abs_path, "rb") as fh:
                        raw = fh.read()
                    try:
                        content = raw.decode("utf-8")
                    except UnicodeDecodeError:
                        counters[DROP_DECODE_ERROR] = counters.get(DROP_DECODE_ERROR, 0) + 1
                        continue
                    add_file(entry, rel, content)
        else:
            with open(source, "r", encoding="utf-8", errors="surrogateescape") as fh:
                for line in fh:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        obj = json.loads(line)
                        repo_id = obj["repo_id"]
                        path = obj["path"]
                        content = obj["content"]
                    except (json.JSONDecodeError, KeyError, TypeError):
                        try:
                            line.encode("utf-8")
                            reason = DROP_BAD_RECORD
                        except UnicodeEncodeError:
                            reason = DROP_DECODE_ERROR
                        counters[reason] = counters.get(reason, 0) + 1
                        continue
                    texts = (repo_id, path, content)
                    if not (repo_id and path and all(isinstance(t, str) for t in texts)):
                        counters[DROP_BAD_RECORD] = counters.get(DROP_BAD_RECORD, 0) + 1
                        continue
                    add_file(*texts)

    return [repos[rid] for rid in sorted(repos)]
