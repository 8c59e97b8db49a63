"""Tokenization interface and fixed-length entry packing.

Token streams of all documents are concatenated in order and sliced
into entries of exactly entry_len tokens. The trailing partial slice is
dropped by default or padded with eos when configured; either way token
accounting is exact: entry tokens + dropped tail = total tokens.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, Protocol, runtime_checkable

from .fim import DEFAULT_SENTINELS, SentinelSet


@runtime_checkable
class Tokenizer(Protocol):
    """Pluggable text -> token-id mapping; a trained BPE vocabulary can
    be dropped in as long as sentinels encode to stable id sequences.
    """

    eos_id: int

    def encode(self, text: str) -> list[int]:
        ...

    def decode(self, ids: Iterable[int]) -> str:
        ...


class ByteTokenizer:
    """Fallback tokenizer: one id per byte (0..255), one reserved id per
    sentinel literal (256..259). Exact and dependency-free, which keeps
    packing byte-auditable.
    """

    def __init__(self, sentinels: SentinelSet = DEFAULT_SENTINELS) -> None:
        literals = sentinels.as_tuple()
        self._sentinel_ids = {s: 256 + i for i, s in enumerate(literals)}
        self._ids_to_sentinel = {v: k for k, v in self._sentinel_ids.items()}
        longest_first = sorted(literals, key=len, reverse=True)
        self._splitter = re.compile("(" + "|".join(map(re.escape, longest_first)) + ")")
        self.eos_id = self._sentinel_ids[sentinels.eos]

    @property
    def vocab_size(self) -> int:
        return 256 + len(self._sentinel_ids)

    def encode(self, text: str) -> list[int]:
        ids: list[int] = []
        for part in self._splitter.split(text):
            if not part:
                continue
            if part in self._sentinel_ids:
                ids.append(self._sentinel_ids[part])
            else:
                ids.extend(part.encode("utf-8"))
        return ids

    def decode(self, ids: Iterable[int]) -> str:
        out: list[str] = []
        buf = bytearray()
        for tid in ids:
            if tid < 256:
                buf.append(tid)
            else:
                if buf:
                    out.append(buf.decode("utf-8"))
                    buf = bytearray()
                out.append(self._ids_to_sentinel[tid])
        if buf:
            out.append(buf.decode("utf-8"))
        return "".join(out)


@dataclass(frozen=True)
class PackedEntry:
    """Fixed-length token sequence; doc_boundaries are the in-entry
    offsets where contained documents start.
    """

    token_ids: tuple[int, ...]
    doc_boundaries: tuple[int, ...]


@dataclass
class PackResult:
    entries: list[PackedEntry] = field(default_factory=list)
    total_tokens: int = 0
    dropped_tokens: int = 0
    padded_tokens: int = 0
    skipped_docs: int = 0


def pack_entries(
    docs: Iterable[str],
    tokenizer: Tokenizer,
    entry_len: int,
    pad_final: bool = False,
) -> PackResult:
    """Single ordered streaming pass with bounded buffering. A document
    the tokenizer rejects is skipped and counted, never truncated.
    """
    if entry_len < 2:
        raise ValueError(f"entry_len must be >= 2, got {entry_len}")
    result = PackResult()
    buffer: list[int] = []  # the leftover (< entry_len tokens) plus the current doc
    starts: list[int] = []  # doc-start offsets within the buffer
    for doc in docs:
        try:
            ids = tokenizer.encode(doc)
        except Exception:
            result.skipped_docs += 1
            continue
        starts.append(len(buffer))
        buffer.extend(ids)
        result.total_tokens += len(ids)
        # Cut every full entry by offset, then keep the leftover once.
        # Every start lies within the leftover that preceded this doc,
        # so all of them fall in the first entry cut.
        cut = len(buffer) - len(buffer) % entry_len
        for lo in range(0, cut, entry_len):
            bounds = tuple(starts) if lo == 0 else ()
            result.entries.append(PackedEntry(tuple(buffer[lo : lo + entry_len]), bounds))
        if cut:
            buffer = buffer[cut:]
            starts = []
    if buffer:
        if pad_final:
            pad = entry_len - len(buffer)
            result.padded_tokens = pad
            chunk = buffer + [tokenizer.eos_id] * pad
            result.entries.append(PackedEntry(tuple(chunk), tuple(starts)))
        else:
            result.dropped_tokens = len(buffer)
    return result
