"""Repository-level near-deduplication via MinHash signatures and LSH.

Each concatenated repo sample is one dedup unit; clusters of
near-duplicates are pruned to a single representative, never individual
files, so repository structure stays intact.
"""

from __future__ import annotations

import hashlib
import re
from array import array
from collections import defaultdict
from dataclasses import dataclass
from itertools import count
from typing import TYPE_CHECKING, Mapping, Sequence

from .deps import connected_components
from .filters import text_slices

# numpy loads in the functions that use it, here and in `packing`, not
# at module level: a fresh run binds the kernel modules before ingest, and
# loading numpy that early raised its peak RSS (median of 5 seed-1 CLI
# runs of the bench corpora: `mixed` 40.4 -> 42.7 MB, `monorepo` 47.7 -> 52.2).
if TYPE_CHECKING:
    import numpy as np

_TOKEN = re.compile(r"\w+")
# On ASCII text `\w` is exactly [0-9A-Za-z_], so mapping every other ASCII
# character to a space and splitting gives the tokens of _TOKEN.findall.
_NOT_WORD = str.maketrans({c: " " for c in map(chr, range(128)) if not (c.isalnum() or c == "_")})
# Each constant meets an array as np.uint64(...), so every operation stays
# in uint64 under numpy's old value-based casting as under NEP 50. (A bare
# int gives the same bits with the uint64 arrays here, but float64 with a
# numpy scalar before 2.0.) The shingle base is odd, hence invertible mod
# 2**64; the rest is splitmix64.
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_DONOR_BLOCK = 64  # densification attempts drawn per round
_BIN_BLOCK = 1 << 16  # shingle hashes mixed and binned per numpy call


def _mix(x: np.ndarray) -> np.ndarray:
    """splitmix64's output function, elementwise; a fresh array."""
    import numpy as np
    z = x + np.uint64(_GOLDEN)
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    return z


def shingle_set(text: str, width: int) -> np.ndarray:
    """Sorted distinct hashes of the word-level shingles: lowercase,
    split on whitespace/punctuation boundaries, `width` consecutive
    tokens. A shingle's hash is the polynomial of its tokens' 8-byte
    blake2b digests (read little-endian) in base _GOLDEN, mod 2**64.
    Texts shorter than one shingle yield the single truncated shingle.
    Each slice of the text is lowered and tokenized into one id array;
    a slice that is ASCII once lowered is split on a translated copy,
    without the regex engine.
    """
    import numpy as np
    pos: defaultdict[str, int] = defaultdict(count().__next__)  # token -> id, in first-seen order
    ids = array("q")
    for part in text_slices(text):
        low = part.lower()
        tokens = low.translate(_NOT_WORD).split() if low.isascii() else _TOKEN.findall(low)
        ids.extend(map(pos.__getitem__, tokens))
    digests = b"".join([hashlib.blake2b(t.encode(), digest_size=8).digest() for t in pos])
    seq = np.frombuffer(digests, "<u8")[np.frombuffer(ids, np.int64)]
    del ids
    n = max(len(seq) - width + 1, 1)
    hashes = np.zeros(n, dtype=np.uint64)
    base = np.uint64(_GOLDEN)
    for k in range(min(width, len(seq))):
        hashes *= base
        hashes += seq[k : k + n]
    del seq
    hashes.sort()
    return hashes[np.concatenate(([True], hashes[1:] != hashes[:-1]))]


def _densify(values: np.ndarray, full: np.ndarray, key: np.ndarray) -> None:
    """Optimal densification (Shrivastava, ICML 2017), in place: empty
    bin i takes the value of the first full bin among its donor draws
    mix(key ^ (i << 32 | a)) % num_perm for attempts a = 1, 2, ...
    """
    import numpy as np
    num_perm = np.uint64(len(values))
    empty = np.flatnonzero(~full).astype(np.uint64)
    attempt = 1
    while len(empty):
        tries = np.arange(attempt, attempt + _DONOR_BLOCK, dtype=np.uint64)
        draws = _mix(key ^ ((empty[:, None] << np.uint64(32)) | tries)) % num_perm
        hit = full[draws.astype(np.intp)]
        found = hit.any(axis=1)
        first = hit.argmax(axis=1)[found]
        values[empty[found].astype(np.intp)] = values[draws[found, first].astype(np.intp)]
        empty = empty[~found]
        attempt += _DONOR_BLOCK


def minhash_signature(
    text: str,
    num_perm: int = 128,
    shingle_width: int = 5,
    seed: int = 1,
) -> tuple[int, ...]:
    """Densified one-permutation MinHash (Li, Owen & Zhang, NeurIPS 2012),
    one 64-bit value per bin: each shingle hash is mixed once by
    splitmix64 keyed by `seed`, binned by `% num_perm`, and each bin
    keeps its minimum, taken over blocks of _BIN_BLOCK hashes; empty
    bins are filled by `_densify`.
    Deterministic given (seed, num_perm); identical shingle sets give
    identical signatures.
    """
    if num_perm < 16:
        raise ValueError(f"num_perm must be >= 16, got {num_perm}")
    if not text:
        raise ValueError("cannot sign an empty sample")
    import numpy as np
    key = _mix(np.array([seed % 2**64], dtype=np.uint64))
    hashes = shingle_set(text, shingle_width)
    values = np.full(num_perm, np.iinfo(np.uint64).max, dtype=np.uint64)
    full = np.zeros(num_perm, dtype=bool)
    for lo in range(0, len(hashes), _BIN_BLOCK):
        mixed = _mix(hashes[lo : lo + _BIN_BLOCK] ^ key)
        bins = (mixed % np.uint64(num_perm)).astype(np.intp)
        counts = np.bincount(bins, minlength=num_perm)
        hit = counts > 0
        # Per-bin minima as a segmented min over the hashes grouped by
        # bin; ufunc.at would be faster on numpy >= 1.25 but is slow before it.
        lows = np.minimum.reduceat(mixed[np.argsort(bins)], (np.cumsum(counts) - counts)[hit])
        values[hit] = np.minimum(values[hit], lows)
        full |= hit
    _densify(values, full, key)
    return tuple(values.tolist())


def signature_similarity(a: Sequence[int], b: Sequence[int]) -> float:
    """Fraction of matching slots; an unbiased Jaccard estimate."""
    if len(a) != len(b):
        raise ValueError("signatures have different lengths")
    return sum(1 for x, y in zip(a, b) if x == y) / len(a)


@dataclass(frozen=True)
class DuplicateCluster:
    """A connected group of near-duplicate repos and its retained member."""

    member_repo_ids: tuple[str, ...]
    representative: str

    def __post_init__(self) -> None:
        if self.representative not in self.member_repo_ids:
            raise ValueError("representative must be a cluster member")


def choose_representative(members: Sequence[str], char_counts: Mapping[str, int]) -> str:
    """Largest sample wins; ties go to the lexicographically smaller id."""
    return min(members, key=lambda rid: (-char_counts[rid], rid))


def find_near_duplicates(
    signatures: Mapping[str, Sequence[int]],
    char_counts: Mapping[str, int],
    threshold: float = 0.85,
    bands: int = 16,
    rows: int = 8,
) -> list[DuplicateCluster]:
    """LSH banding over signatures keyed by repo id proposes candidate
    pairs; clusters are the connected components of the pairs whose
    similarity reaches the threshold, compared at most once and only
    while their ends are apart, each represented by the member
    `choose_representative` picks from char_counts. Singletons are omitted.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    ids = list(signatures)
    sigs = list(signatures.values())
    if any(len(sig) != bands * rows for sig in sigs):
        raise ValueError(f"every signature must hold bands*rows = {bands}x{rows} values")

    buckets: dict[tuple[int, bytes], list[int]] = {}
    for idx, sig in enumerate(sigs):
        arr = array("Q", sig)
        for band in range(bands):
            key = (band, arr[band * rows : (band + 1) * rows].tobytes())
            buckets.setdefault(key, []).append(idx)

    failed: set[tuple[int, int]] = set()  # compared, below the threshold

    def joins(x: int, y: int) -> bool:
        if (x, y) not in failed and signature_similarity(sigs[x], sigs[y]) >= threshold:
            return True
        failed.add((x, y))
        return False

    # Each bucket lists its indices in ascending order, so x < y.
    pairs = ((x, y) for bucket in buckets.values() for i, x in enumerate(bucket) for y in bucket[i + 1 :])
    clusters: list[DuplicateCluster] = []
    for members in connected_components(len(sigs), pairs, joins):
        if len(members) < 2:
            continue
        member_ids = tuple(sorted(ids[i] for i in members))
        rep = choose_representative(member_ids, char_counts)
        clusters.append(DuplicateCluster(member_repo_ids=member_ids, representative=rep))
    return clusters
