"""Core data types, language identification, and per-file statistics.

Everything here is immutable and pure so downstream stages can fan out
over files without shared state.
"""

from __future__ import annotations

import json
import string
from dataclasses import dataclass
from importlib import resources
from pathlib import PurePosixPath


@dataclass(frozen=True)
class LanguageMap:
    """Extension/basename lookup table over the closed language set."""

    languages: frozenset[str]
    extensions: dict[str, str]
    basenames: dict[str, str]

    @classmethod
    def from_dict(cls, raw: dict) -> "LanguageMap":
        languages = frozenset(raw["languages"])
        extensions = dict(raw["extensions"])
        basenames = dict(raw["basenames"])
        unknown = {v for v in extensions.values() if v not in languages}
        unknown |= {v for v in basenames.values() if v not in languages}
        if unknown:
            raise ValueError(f"extension map targets unknown languages: {sorted(unknown)}")
        return cls(languages=languages, extensions=extensions, basenames=basenames)

    @classmethod
    def load(cls, path: str | None = None) -> "LanguageMap":
        """Load the bundled table, or an override file with the same schema."""
        if path is None:
            with resources.files("repopipe.data").joinpath("languages.json").open("rb") as fh:
                raw = json.load(fh)
        else:
            with open(path, "rb") as fh:
                raw = json.load(fh)
        return cls.from_dict(raw)


def detect_language(path: str, lang_map: LanguageMap) -> str | None:
    """Map a repo-relative path to a language name, or None if unrecognized.

    Basenames (Makefile, Dockerfile, ...) take priority over extensions;
    extensions are matched case-insensitively. Pure function of the path.
    """
    if not path:
        raise ValueError("path must be non-empty")
    name = PurePosixPath(path).name
    if name in lang_map.basenames:
        return lang_map.basenames[name]
    suffix = PurePosixPath(path).suffix.lower()
    if suffix:
        return lang_map.extensions.get(suffix)
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
    char_count: int


def compute_file_stats(content: str) -> FileStats:
    """Line lengths in characters (code points), newlines excluded from
    lines but counted in char_count; alphabetic = Unicode letter category.
    """
    char_count = len(content)
    if char_count == 0:
        return FileStats(0.0, 0, 0.0, 0)
    line_lens = [len(line) for line in content.splitlines()]
    if content.isascii():  # the letters are then exactly ascii_letters
        alpha = char_count - len(content.encode().translate(None, string.ascii_letters.encode()))
    else:
        alpha = sum(map(str.isalpha, content))
    return FileStats(
        avg_line_len=sum(line_lens) / len(line_lens),
        max_line_len=max(line_lens),
        alphabetic_fraction=alpha / char_count,
        char_count=char_count,
    )
