"""Tokenization interface and fixed-length entry packing.

Token streams of all documents are concatenated in order into one
uint32 stream, viewed as entries of exactly entry_len tokens. The
trailing partial slice is dropped by default or padded with eos when
configured; either way token accounting is exact: entry tokens +
dropped tail = total tokens.
"""

from __future__ import annotations

import re
from array import array
from dataclasses import dataclass
from typing import Iterable, Protocol, Sequence, runtime_checkable

import numpy as np

from .fim import DEFAULT_SENTINELS, SentinelSet


@runtime_checkable
class Tokenizer(Protocol):
    """Pluggable text -> token-id mapping; a trained BPE vocabulary can
    be dropped in as long as sentinels encode to stable id sequences.
    """

    eos_id: int

    def encode(self, text: str) -> Sequence[int]:
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

    def encode(self, text: str) -> array:
        """An array("I") of ids; byte runs go through numpy, not one
        Python int per byte."""
        ids = array("I")
        for part in self._splitter.split(text):
            if not part:
                continue
            if part in self._sentinel_ids:
                ids.append(self._sentinel_ids[part])
            else:
                run = np.frombuffer(part.encode("utf-8"), np.uint8).astype("=u4")
                ids.frombytes(run.view(np.uint8))
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


@dataclass(eq=False)
class PackResult:
    """`entries` is an (n, entry_len) uint32 matrix, one row per entry;
    doc_boundaries[k] lists the offsets in row k where documents start.
    """

    entries: np.ndarray
    doc_boundaries: list[list[int]]
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
    """Single ordered pass that appends every document's ids to one
    uint32 stream and views it as rows of entry_len tokens. A document
    the tokenizer rejects is skipped and counted, never truncated.
    `encode` must return a sequence of ids below 2**32.
    """
    if entry_len < 2:
        raise ValueError(f"entry_len must be >= 2, got {entry_len}")
    stream = array("I")
    assert stream.itemsize == 4, "array('I') must hold 32-bit ids"
    starts: list[int] = []  # stream offset where each document starts
    skipped = 0
    for doc in docs:
        try:
            ids = tokenizer.encode(doc)
        except Exception:
            skipped += 1
            continue
        starts.append(len(stream))
        stream.extend(ids)
    total = len(stream)
    tail = total % entry_len
    padded = entry_len - tail if tail and pad_final else 0
    stream.fromlist([tokenizer.eos_id] * padded)
    n = len(stream) // entry_len
    # Row k holds the starts in [k * entry_len, (k + 1) * entry_len).
    offsets = np.asarray(starts, dtype=np.int64)
    cuts = np.searchsorted(offsets, np.arange(1, n + 1) * entry_len)
    return PackResult(
        entries=np.frombuffer(stream, np.uint32)[: n * entry_len].reshape(n, entry_len),
        doc_boundaries=[b.tolist() for b in np.split(offsets % entry_len, cuts)[:n]],
        total_tokens=total,
        dropped_tokens=0 if pad_final else tail,
        padded_tokens=padded,
        skipped_docs=skipped,
    )
