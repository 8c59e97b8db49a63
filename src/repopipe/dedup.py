"""Repository-level near-deduplication via MinHash signatures and LSH.

Each concatenated repo sample is one dedup unit; clusters of
near-duplicates are pruned to a single representative, never individual
files, so repository structure stays intact.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Mapping, Sequence

import numpy as np

from .deps import RepoSample, connected_components

_MERSENNE_PRIME = np.uint64((1 << 61) - 1)
_TOKEN = re.compile(r"\w+")
_SIGN_CHUNK = 4096  # shingles per block of the running minimum


def shingle_set(text: str, width: int) -> set[str]:
    """Word-level shingles: lowercase, split on whitespace/punctuation
    boundaries, join `width` consecutive tokens. Texts shorter than one
    shingle yield the single truncated shingle.
    """
    tokens = _TOKEN.findall(text.lower())
    if len(tokens) < width:
        return {" ".join(tokens)}
    return set(map(" ".join, zip(*(islice(tokens, k, None) for k in range(width)))))


def _hash_shingles(shingles: Iterable[str]) -> np.ndarray:
    """The 8-byte blake2b digest of each shingle, read little-endian."""
    digests = b"".join([hashlib.blake2b(s.encode(), digest_size=8).digest() for s in shingles])
    return np.frombuffer(digests, dtype="<u8")


def _permutations(num_perm: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    a = rng.integers(1, int(_MERSENNE_PRIME), size=num_perm, dtype=np.uint64)
    b = rng.integers(0, int(_MERSENNE_PRIME), size=num_perm, dtype=np.uint64)
    return a, b


@dataclass(frozen=True)
class MinHashSignature:
    """Per-permutation 64-bit minima over a sample's shingle hashes."""

    repo_id: str
    values: tuple[int, ...]
    num_perm: int


def minhash_signature(
    sample: RepoSample,
    num_perm: int = 128,
    shingle_width: int = 5,
    seed: int = 1,
) -> MinHashSignature:
    """Deterministic given (seed, num_perm); identical shingle sets give
    identical signatures.
    """
    if num_perm < 16:
        raise ValueError(f"num_perm must be >= 16, got {num_perm}")
    if not sample.text:
        raise ValueError("cannot sign an empty sample")
    hashes = _hash_shingles(shingle_set(sample.text, shingle_width))
    a, b = _permutations(num_perm, seed)
    # Running minimum over (num_perm, _SIGN_CHUNK) tables of permuted
    # hashes, so memory stays bounded however many shingles there are;
    # uint64 wraparound in the multiply is deliberate, matching common
    # MinHash implementations.
    values = np.full(num_perm, np.iinfo(np.uint64).max, dtype=np.uint64)
    for i in range(0, len(hashes), _SIGN_CHUNK):
        table = a[:, None] * hashes[None, i : i + _SIGN_CHUNK]
        table += b[:, None]
        table %= _MERSENNE_PRIME
        np.minimum(values, table.min(axis=1), out=values)
    return MinHashSignature(
        repo_id=sample.repo_id,
        values=tuple(int(v) for v in values),
        num_perm=num_perm,
    )


def signature_similarity(a: MinHashSignature, b: MinHashSignature) -> float:
    """Fraction of matching slots; an unbiased Jaccard estimate."""
    if a.num_perm != b.num_perm:
        raise ValueError("signatures have different num_perm")
    matches = sum(1 for x, y in zip(a.values, b.values) if x == y)
    return matches / a.num_perm


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
    signatures: Sequence[MinHashSignature],
    threshold: float = 0.85,
    bands: int = 16,
    rows: int = 8,
    char_counts: Mapping[str, int] | None = None,
) -> list[DuplicateCluster]:
    """LSH banding proposes candidate pairs; pairs are kept only when
    their signature similarity reaches the threshold; clusters are the
    connected components of kept pairs. Singletons are omitted.

    Representatives follow the size rule when char_counts is given,
    otherwise the smallest repo_id stands in.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    if not signatures:
        return []
    num_perm = signatures[0].num_perm
    if any(s.num_perm != num_perm for s in signatures):
        raise ValueError("all signatures must share num_perm")
    if bands * rows != num_perm:
        raise ValueError(f"bands*rows must equal num_perm ({bands}x{rows} != {num_perm})")

    buckets: dict[tuple[int, bytes], list[int]] = {}
    for idx, sig in enumerate(signatures):
        arr = np.asarray(sig.values, dtype=np.uint64)
        for band in range(bands):
            key = (band, arr[band * rows : (band + 1) * rows].tobytes())
            buckets.setdefault(key, []).append(idx)

    # Each bucket lists its indices in ascending order, so x < y.
    checked: set[tuple[int, int]] = set()
    merged: list[tuple[int, int]] = []
    for bucket in buckets.values():
        for i, x in enumerate(bucket):
            for y in bucket[i + 1 :]:
                if (x, y) in checked:
                    continue
                checked.add((x, y))
                if signature_similarity(signatures[x], signatures[y]) >= threshold:
                    merged.append((x, y))

    clusters: list[DuplicateCluster] = []
    for members in connected_components(len(signatures), merged):
        if len(members) < 2:
            continue
        ids = tuple(sorted(signatures[i].repo_id for i in members))
        if char_counts is not None:
            rep = choose_representative(ids, char_counts)
        else:
            rep = ids[0]
        clusters.append(DuplicateCluster(member_repo_ids=ids, representative=rep))
    return clusters

