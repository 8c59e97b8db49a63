"""Corpus ingestion from already-downloaded repository trees or JSONL.

Two input shapes are accepted per configured path:

  - a directory: every immediate subdirectory is one repository
    (repo_id = subdirectory name), walked recursively in sorted order;
    dot-directories (.git and friends) are skipped, and so is a
    symlinked file or directory, which may lie outside the corpus or
    nowhere, and a FIFO or other entry that is not a regular file;
  - a *.jsonl file: one object per file with repo_id, path, content,
    one per line; only "\n" ends a line, so a bare "\r" stays inside it.
    Each path is normalised (`./a.py` is `a.py`, `a//b.py` is `a/b.py`),
    and one that leaves the repo or names no file is a bad record.

Files that fail UTF-8 decoding, or whose repo id, path or content holds
a lone surrogate (no UTF-8 output can hold one), or that repeat a path
within their repo are dropped with a counted reason. A JSONL line that
is not UTF-8 counts as a decode error, whichever field holds the byte.
A file that cannot be read or a directory that cannot be listed raises
OSError, which fails the filter stage.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import posixpath
from dataclasses import dataclass
from typing import Iterator

DROP_DECODE_ERROR = "decode_error"
DROP_DUPLICATE_PATH = "duplicate_path"
DROP_BAD_RECORD = "bad_record"
DROP_SYMLINK = "symlink"
DROP_NOT_REGULAR_FILE = "not_regular_file"
NOT_UTF8 = "not UTF-8"  # the problem read_jsonl names for such a line


@dataclass
class RawFile:
    path: str
    content: str
    sha256: bytes  # digest of the content's UTF-8 bytes


@dataclass
class RawRepo:
    repo_id: str
    files: list[RawFile]


def read_jsonl(path: str) -> Iterator[tuple[int, object, str | None]]:
    """(line number, value, None) for each non-blank line of a JSONL file
    read from outside, or (line number, None, problem) for a line that is
    not UTF-8 or not JSON. Only "\n" ends a line: JSON allows a bare "\r"
    between tokens."""
    with open(path, "rb") as fh:
        for number, line in enumerate(fh, 1):
            try:
                text = line.decode("utf-8")
                if text.isspace():
                    continue
                value, problem = json.loads(text), None
            except UnicodeDecodeError:
                value, problem = None, NOT_UTF8
            except json.JSONDecodeError as exc:
                value, problem = None, f"not JSON: {exc}"
            yield number, value, problem


def _walk_repo_dir(root: str, counters: dict[str, int]) -> list[tuple[str, str]]:
    """(repo-relative posix path, absolute path) pairs, each directory's
    files then its subdirectories' in sorted order. A symlink or an entry
    that is neither file nor directory is skipped and counted; a
    directory that cannot be listed raises OSError, as a file that
    cannot be read does when load_repos opens it."""
    out: list[tuple[str, str]] = []
    stack = [(root, "")]
    while stack:
        path, rel = stack.pop()
        with os.scandir(path) as it:
            entries = sorted(it, key=lambda e: e.name)
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
    repos: dict[str, dict[str, RawFile]] = {}  # repo_id -> path -> file, in first-seen order

    def drop(reason: str) -> None:
        counters[reason] = counters.get(reason, 0) + 1

    def add_file(repo_id: str, path: str, content: str, data: bytes | None = None) -> None:
        """`data`, when given, is the bytes `content` was decoded from."""
        if path.splitlines() != [path]:  # a line break would split its path header
            return drop(DROP_BAD_RECORD)
        try:  # lone surrogates, from a JSON `\ud800` escape or a non-UTF-8 file name
            (repo_id + path).encode("utf-8")
            data = content.encode("utf-8") if data is None else data
        except UnicodeEncodeError:
            return drop(DROP_DECODE_ERROR)
        files = repos.setdefault(repo_id, {})
        if path in files:
            return drop(DROP_DUPLICATE_PATH)
        files[path] = RawFile(path, content, hashlib.sha256(data).digest())

    for source in inputs:
        if os.path.isdir(source):
            for entry in sorted(os.listdir(source)):
                repo_root = os.path.join(source, entry)
                if not os.path.isdir(repo_root) or entry.startswith("."):
                    continue
                for rel, abs_path in _walk_repo_dir(repo_root, counters):
                    fd = os.open(abs_path, os.O_RDONLY)
                    try:  # by os.read in 64 KiB blocks, without io's buffer objects
                        raw = b"".join(iter(functools.partial(os.read, fd, 1 << 16), b""))
                    finally:
                        os.close(fd)
                    try:
                        content = raw.decode("utf-8")
                    except UnicodeDecodeError:
                        drop(DROP_DECODE_ERROR)
                        continue
                    add_file(entry, rel, content, raw)
        else:
            for _, obj, problem in read_jsonl(source):
                if problem == NOT_UTF8:
                    drop(DROP_DECODE_ERROR)
                    continue
                try:  # a line that is not JSON has obj None; normpath takes str paths only
                    texts = (obj["repo_id"], posixpath.normpath(obj["path"]), obj["content"])
                except (KeyError, TypeError):
                    texts = (None, ".", None)
                # normpath made "./a.py" "a.py"; a first part "" (absolute), "." or ".." is no repo file.
                if not (texts[0] and all(isinstance(t, str) for t in texts)) \
                        or texts[1].partition("/")[0] in ("", ".", ".."):
                    drop(DROP_BAD_RECORD)
                    continue
                add_file(*texts)

    return [RawRepo(rid, list(repos[rid].values())) for rid in sorted(repos)]
