"""Core data types, language identification, and per-file statistics.

Everything here is immutable and pure so downstream stages can fan out
over files without shared state.
"""

from __future__ import annotations

import json
import os
import string
from dataclasses import dataclass


@dataclass(frozen=True)
class LanguageMap:
    """Extension/basename lookup table over the closed language set."""

    languages: frozenset[str]
    extensions: dict[str, str]
    basenames: dict[str, str]

    @classmethod
    def from_dict(cls, raw: object) -> "LanguageMap":
        if not isinstance(raw, dict):
            raise ValueError("not a JSON object")
        for key in ("languages", "extensions", "basenames"):
            if key not in raw:
                raise ValueError(f"missing key {key!r}")
        if not (isinstance(raw["languages"], list) and all(isinstance(v, str) for v in raw["languages"])):
            raise ValueError('"languages" must be a list of strings')
        for key in ("extensions", "basenames"):
            if not (isinstance(raw[key], dict) and all(isinstance(v, str) for v in raw[key].values())):
                raise ValueError(f'"{key}" must map strings to strings')
        languages = frozenset(raw["languages"])
        extensions = dict(raw["extensions"])
        basenames = dict(raw["basenames"])
        # `detect_language` looks up a name's lower-cased suffix from its
        # last dot, and a name holds no "/" and is not "" or ".", so any
        # other key could match no file.
        for ext in extensions:
            if not (len(ext) > 1 and ext.rfind(".") == 0 and "/" not in ext and ext == ext.lower()):
                raise ValueError(f"extension {ext!r} is not a lower-case suffix such as '.py'")
        for base in basenames:
            if base in ("", ".") or "/" in base:
                raise ValueError(f"basename {base!r} is not a file name")
        unknown = {v for v in extensions.values() if v not in languages}
        unknown |= {v for v in basenames.values() if v not in languages}
        if unknown:
            raise ValueError(f"extension map targets unknown languages: {sorted(unknown)}")
        return cls(languages=languages, extensions=extensions, basenames=basenames)

    @classmethod
    def load(cls, path: str | None = None) -> "LanguageMap":
        """Load the bundled table, or an override file with the same schema.
        A malformed file raises ValueError naming its path and the problem."""
        source = path if path is not None else os.path.join(os.path.dirname(__file__), "data", "languages.json")
        with open(source, "rb") as fh:
            try:
                raw = json.load(fh)
            except ValueError as exc:  # JSONDecodeError, or UnicodeDecodeError
                raise ValueError(f"{source}: not JSON: {exc}") from None
        try:
            return cls.from_dict(raw)
        except ValueError as exc:
            raise ValueError(f"{source}: {exc}") from None


def detect_language(path: str, lang_map: LanguageMap) -> str | None:
    """Map a repo-relative path to a language name, or None if unrecognized.

    Basenames (Makefile, Dockerfile, ...) take priority over extensions;
    extensions are matched case-insensitively. Pure function of the path.
    """
    if not path:
        raise ValueError("path must be non-empty")
    # The name as PurePosixPath gives it: the last part that is not "" or ".".
    name = next((part for part in reversed(path.split("/")) if part not in ("", ".")), "")
    if name in lang_map.basenames:
        return lang_map.basenames[name]
    dot = name.rfind(".")
    if 0 < dot < len(name) - 1:
        return lang_map.extensions.get(name[dot:].lower())
    return None


@dataclass(frozen=True)
class SourceFile:
    """One file of one repository; the pipeline's atomic input."""

    repo_id: str
    path: str
    language: str | None
    content: str
    byte_size: int


@dataclass(frozen=True)
class FileStats:
    """The quantities the quality filters test."""

    avg_line_len: float
    max_line_len: int
    alphabetic_fraction: float


def compute_file_stats(content: str) -> FileStats:
    """Line lengths in characters (code points), newlines excluded;
    alphabetic = Unicode letter category, as a fraction of all characters.
    """
    if not content:
        return FileStats(0.0, 0, 0.0)
    line_lens = [len(line) for line in content.splitlines()]
    if content.isascii():  # the letters are then exactly ascii_letters
        alpha = len(content) - len(content.encode().translate(None, string.ascii_letters.encode()))
    else:
        alpha = sum(map(str.isalpha, content))
    return FileStats(
        avg_line_len=sum(line_lens) / len(line_lens),
        max_line_len=max(line_lens),
        alphabetic_fraction=alpha / len(content),
    )
