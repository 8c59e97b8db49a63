"""Build's kernels: the document-level fill-in-the-middle transform,
the byte tokenizer, and fixed-length entry packing.

With probability fim_rate a document is split at two uniformly chosen
character positions into prefix / middle / suffix and re-emitted with
sentinel literals so the middle trails its surrounding context;
otherwise the document passes through with only the end-of-sequence
sentinel appended. One derived RNG stream per document, so results are
independent of scheduling. The tokenizer maps each sentinel literal to
one reserved id and never cuts one.

Token streams of documents are concatenated in order into one uint32
stream, viewed as entries of exactly entry_len tokens. The trailing
partial slice is dropped by default or padded with eos when configured;
either way token accounting is exact: entry tokens + dropped tail =
total tokens. The partial slice can instead be carried into the next
call, so a caller can pack one document at a time.
"""

from __future__ import annotations

import random
import re
from array import array
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from .config import PSM, SPM, SentinelSet

if TYPE_CHECKING:  # numpy loads where it is used: see `dedup`'s imports
    import numpy as np

ENCODE_SLICE = 1 << 16  # characters per numpy conversion: a 256 KiB uint32 temporary


@dataclass(frozen=True)
class FimConfig:
    fim_rate: float = 0.5
    mode: str = PSM
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.fim_rate <= 1.0:
            raise ValueError(f"fim_rate must be in [0, 1], got {self.fim_rate}")
        if self.mode not in (PSM, SPM):
            raise ValueError(f"mode must be {PSM!r} or {SPM!r}, got {self.mode!r}")


def fim_split(
    doc: str,
    i: int,
    j: int,
    sentinels: SentinelSet = SentinelSet(),
    mode: str = PSM,
) -> str:
    """Lay out the three segments for fixed cut points 0 <= i <= j <= len.

    psm: fim_start + prefix + fim_hole + suffix + fim_end + middle + eos
    spm: fim_start + suffix + fim_hole + prefix + fim_end + middle + eos
    """
    if not 0 <= i <= j <= len(doc):
        raise ValueError(f"cut points out of range: i={i}, j={j}, len={len(doc)}")
    pre, middle, suf = doc[:i], doc[i:j], doc[j:]
    first, second = (pre, suf) if mode == PSM else (suf, pre)
    s = sentinels
    return "".join((s.fim_start, first, s.fim_hole, second, s.fim_end, middle, s.eos))


def fim_transform(
    doc: str,
    doc_index: int,
    cfg: FimConfig,
    sentinels: SentinelSet = SentinelSet(),
) -> str | None:
    """Transform one document; None means a sentinel literal occurred in
    the content and the document must be dropped (callers count these).
    """
    if not doc:
        raise ValueError("document must be non-empty")
    if any(s in doc for s in sentinels.as_tuple()):
        return None
    rng = random.Random(cfg.seed + doc_index)
    if rng.random() >= cfg.fim_rate:
        return doc + sentinels.eos
    a = rng.randint(0, len(doc))
    b = rng.randint(0, len(doc))
    i, j = min(a, b), max(a, b)
    return fim_split(doc, i, j, sentinels, cfg.mode)


class ByteTokenizer:
    """Build's tokenizer: one id per byte (0..255), one reserved id per
    sentinel literal (256..259). Exact and dependency-free, which keeps
    packing byte-auditable.
    """

    def __init__(self, sentinels: SentinelSet = SentinelSet()) -> None:
        literals = sentinels.as_tuple()
        self._sentinel_ids = {s: 256 + i for i, s in enumerate(literals)}
        self._ids_to_sentinel = {v: k for k, v in self._sentinel_ids.items()}
        longest_first = sorted(literals, key=len, reverse=True)
        self._splitter = re.compile("(" + "|".join(map(re.escape, longest_first)) + ")")
        self.eos_id = self._sentinel_ids[sentinels.eos]
        self.vocab_size = 256 + len(literals)

    def encode(self, text: str) -> array:
        """An array("I") of ids; the text between sentinels goes through
        numpy in slices of ENCODE_SLICE characters, neither one Python
        int per byte nor one uint32 temporary per document."""
        import numpy as np
        ids = array("I")
        pos = 0
        for match in [*self._splitter.finditer(text), None]:
            end = match.start() if match else len(text)
            for lo in range(pos, end, ENCODE_SLICE):
                run = text[lo : min(lo + ENCODE_SLICE, end)].encode("utf-8")
                ids.frombytes(np.frombuffer(run, np.uint8).astype("=u4").view(np.uint8))
            if match:
                ids.append(self._sentinel_ids[match.group()])
                pos = match.end()
        return ids

    def slices(self, text: str) -> Iterator[str]:
        """`text` in pieces of ENCODE_SLICE or more characters (the last
        may be shorter, and "" stays one piece), none cut inside a
        sentinel literal, so the ids of the pieces in turn are the ids
        of `text`."""
        matches = self._splitter.finditer(text)
        match = next(matches, None)
        start = 0
        while True:
            cut = start + ENCODE_SLICE
            while match and match.end() <= cut:
                match = next(matches, None)
            if match and match.start() < cut:
                cut = match.end()
            yield text[start:cut]
            if cut >= len(text):
                return
            start = cut

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
    `carry` is the unfilled last row, as its ids and the offsets in it
    where documents start, for a next call to continue from.
    """

    entries: np.ndarray
    doc_boundaries: list[list[int]]
    total_tokens: int = 0
    dropped_tokens: int = 0
    padded_tokens: int = 0
    skipped_docs: int = 0
    carry: tuple[Sequence[int], list[int]] = ((), ())


def pack_entries(
    docs: Iterable[str],
    tokenizer: ByteTokenizer,
    entry_len: int,
    pad_final: bool = False,
    carry: tuple[Sequence[int], Sequence[int]] = ((), ()),
    continued: bool = False,
) -> PackResult:
    """Single ordered pass that appends every document's ids to one
    uint32 stream and views it as rows of entry_len tokens. A document
    the tokenizer rejects is skipped and counted, never truncated. Any
    `tokenizer` with `encode` and `eos_id` will do, if `encode` returns a
    sequence of ids below 2**32.

    A previous result's `carry` starts the stream, so chained calls, the
    last with no documents, give the rows of one call over them all.
    `total_tokens` counts this call's documents only. With `continued`,
    the first of `docs` goes on with the document the carry ends in, so
    a document can be packed one piece at a time.
    """
    if entry_len < 2:
        raise ValueError(f"entry_len must be >= 2, got {entry_len}")
    import numpy as np
    stream = array("I", carry[0])
    assert stream.itemsize == 4, "array('I') must hold 32-bit ids"
    starts = list(carry[1])  # stream offset where each document starts
    skipped = 0
    for k, doc in enumerate(docs):
        try:
            ids = tokenizer.encode(doc)
        except Exception:
            skipped += 1
            continue
        if k or not continued:
            starts.append(len(stream))
        stream.extend(ids)
    total = len(stream) - len(carry[0])
    tail = len(stream) % entry_len
    padded = entry_len - tail if tail and pad_final else 0
    stream.fromlist([tokenizer.eos_id] * padded)
    n = len(stream) // entry_len
    # Row k holds the starts in [k * entry_len, (k + 1) * entry_len);
    # the starts after the last row belong to the unfilled one.
    offsets = np.asarray(starts, dtype=np.int64)
    cuts = np.searchsorted(offsets, np.arange(1, n + 1) * entry_len)
    bounds = [b.tolist() for b in np.split(offsets % entry_len, cuts)]
    return PackResult(
        entries=np.frombuffer(stream, np.uint32)[: n * entry_len].reshape(n, entry_len),
        doc_boundaries=bounds[:n],
        total_tokens=total,
        dropped_tokens=0 if pad_final else tail,
        padded_tokens=padded,
        skipped_docs=skipped,
        carry=(stream[n * entry_len :], bounds[n]),
    )
