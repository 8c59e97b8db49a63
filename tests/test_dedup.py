from __future__ import annotations

import hashlib
import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from repopipe import dedup
from repopipe.dedup import (
    DuplicateCluster,
    choose_representative,
    find_near_duplicates,
    minhash_signature,
    shingle_set,
    signature_similarity,
)

# --- independent oracle: exact Jaccard over word shingles -------------

_ORACLE_TOKEN = re.compile(r"\w+")


def oracle_shingles(text: str, width: int) -> set[str]:
    toks = _ORACLE_TOKEN.findall(text.lower())
    if len(toks) < width:
        return {" ".join(toks)}
    return {" ".join(toks[i : i + width]) for i in range(len(toks) - width + 1)}


def exact_jaccard(a: str, b: str, width: int = 5) -> float:
    sa, sb = oracle_shingles(a, width), oracle_shingles(b, width)
    return len(sa & sb) / len(sa | sb)


# --- independent oracle: dedup's hashes over Python ints mod 2**64 ------

_M64 = 2**64 - 1


def python_splitmix64(x: int) -> int:
    z = (x + 0x9E3779B97F4A7C15) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def python_shingle_set(text: str, width: int) -> list[int]:
    """Sorted distinct shingle hashes: the polynomial in base
    0x9E3779B97F4A7C15 of each run of `width` token digests."""
    seq = [
        int.from_bytes(hashlib.blake2b(t.encode(), digest_size=8).digest(), "little")
        for t in _ORACLE_TOKEN.findall(text.lower())
    ]
    hashes = set()
    for i in range(max(len(seq) - width + 1, 1)):
        h = 0
        for d in seq[i : i + width]:
            h = (h * 0x9E3779B97F4A7C15 + d) & _M64
        hashes.add(h)
    return sorted(hashes)


def dedup_input(texts: dict[str, str], **kwargs) -> tuple[dict, dict]:
    """find_near_duplicates' signatures and char_counts for texts keyed
    by repo id."""
    signatures = {rid: minhash_signature(t, **kwargs) for rid, t in texts.items()}
    return signatures, {rid: len(t) for rid, t in texts.items()}


def random_text(rng: random.Random, prefix: str, n_tokens: int = 240) -> list[str]:
    return [f"{prefix}_{i}_{rng.randint(0, 99999)}" for i in range(n_tokens)]


def perturb(tokens: list[str], rng: random.Random, k: int) -> list[str]:
    """Replace k tokens, spaced out so each hit perturbs distinct shingles."""
    out = list(tokens)
    positions = list(range(6, len(tokens) - 6, max(7, len(tokens) // (k + 1))))[:k]
    for p in positions:
        out[p] = f"sub_{rng.randint(0, 99999)}_{p}"
    return out


class TestSignature:
    def test_identical_texts_identical_signatures(self):
        text = "the quick brown fox jumps over the lazy dog " * 30
        s1 = minhash_signature(text)
        s2 = minhash_signature(text)
        assert s1 == s2

    def test_shingle_set_semantics_order_independent(self):
        # Same shingle set at width 1, different token order.
        rng = random.Random(3)
        toks = random_text(rng, "w", 120)
        shuffled = list(toks)
        rng.shuffle(shuffled)
        s1 = minhash_signature(" ".join(toks), shingle_width=1)
        s2 = minhash_signature(" ".join(shuffled), shingle_width=1)
        assert s1 == s2

    def test_match_fraction_tracks_jaccard_half(self):
        # Exact Jaccard 1/2 at width 1: second text adds as many new
        # tokens as it shares.
        rng = random.Random(17)
        base = random_text(rng, "base", 100)
        extra = random_text(rng, "extra", 100)
        t1, t2 = " ".join(base), " ".join(base + extra)
        sa = oracle_shingles(t1, 1)
        sb = oracle_shingles(t2, 1)
        assert len(sa & sb) / len(sa | sb) == pytest.approx(0.5)
        s1 = minhash_signature(t1, num_perm=128, shingle_width=1)
        s2 = minhash_signature(t2, num_perm=128, shingle_width=1)
        assert abs(signature_similarity(s1, s2) - 0.5) <= 0.15

    def test_deterministic_across_calls(self):
        text = "alpha beta gamma delta " * 50
        assert minhash_signature(text) == minhash_signature(text)

    def test_short_text_single_truncated_shingle(self):
        s = minhash_signature("only three tokens", shingle_width=5)
        assert len(s) == 128

    def test_golden_values(self):
        # Pinned, so a change in numpy's integer promotion (or in any
        # constant) shows up as a changed value, not only as a changed
        # cluster somewhere downstream.
        text = "the quick brown fox jumps over the lazy dog"
        assert shingle_set(text, 5).tolist() == [
            2247479744533809214, 3377820807482938788, 8189267298377266199,
            10458173425102925378, 13367440680171246321,
        ]
        s = minhash_signature(text, num_perm=16, shingle_width=5, seed=1)
        assert s[:4] == (
            15897312432279876219, 13342612545834489863, 12784274225584955474, 8624054968808167955,
        )
        s = minhash_signature(text, num_perm=16, shingle_width=2, seed=7)
        assert s[:4] == (
            13067506693598074736, 11831557251777760545, 8698850239035061250, 8210881239056348427,
        )

    def test_mix_matches_python_int_splitmix64(self):
        # Checks the bits under whichever integer promotion the installed
        # numpy uses: value-based before 2.0, NEP 50 from it.
        xs = np.random.default_rng(0).integers(0, 2**64, size=1000, dtype=np.uint64)
        xs = np.concatenate([xs, np.array([0, 1, 2**63 - 1, 2**63, 2**64 - 1], dtype=np.uint64)])
        assert (xs >= 2**63).sum() > 400
        assert dedup._mix(xs).tolist() == [python_splitmix64(x) for x in xs.tolist()]

    @pytest.mark.parametrize("text", [
        "", "one", "only three tokens", "the quick brown fox jumps over the lazy dog",
        "Ünïcode wörter, DIGITS 123 and_underscores " * 7, "x = f(y)\n" * 40,
    ])
    @pytest.mark.parametrize("width", [1, 2, 5])
    def test_shingle_set_matches_python_int_polynomial(self, text, width):
        assert shingle_set(text, width).tolist() == python_shingle_set(text, width)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        st.integers(min_value=1, max_value=400),
        st.integers(min_value=0, max_value=400),
        st.integers(min_value=0, max_value=400),
        st.integers(min_value=0, max_value=2**32),
    )
    def test_similarity_within_binomial_bound_of_jaccard(self, shared, only_a, only_b, seed):
        # Width-1 shingles over distinct tokens: exact Jaccard is
        # shared / union. A k-slot MinHash matches a slot with
        # probability J, so the estimate has the binomial standard
        # deviation sqrt(J (1 - J) / k); allow 4 of them plus one slot.
        # The full-table estimator is held to the same bound.
        k = 128
        a = [f"s{i}" for i in range(shared)] + [f"a{i}" for i in range(only_a)]
        b = [f"s{i}" for i in range(shared)] + [f"b{i}" for i in range(only_b)]
        ta, tb = " ".join(a), " ".join(b)
        jaccard = len(set(a) & set(b)) / len(set(a) | set(b))
        bound = 4 * math.sqrt(jaccard * (1 - jaccard) / k) + 1 / k
        sa = minhash_signature(ta, num_perm=k, shingle_width=1, seed=seed)
        sb = minhash_signature(tb, num_perm=k, shingle_width=1, seed=seed)
        assert abs(signature_similarity(sa, sb) - jaccard) <= bound
        fa = oracles.full_table_values(ta, k, 1, seed)
        fb = oracles.full_table_values(tb, k, 1, seed)
        assert abs(sum(x == y for x, y in zip(fa, fb)) / k - jaccard) <= bound

    def test_num_perm_floor(self):
        with pytest.raises(ValueError):
            minhash_signature("x y z", num_perm=8)

    def test_empty_text_rejected(self):
        with pytest.raises(ValueError):
            minhash_signature("")


class TestFindNearDuplicates:
    def test_ninety_percent_overlap_clusters(self):
        rng = random.Random(23)
        base = random_text(rng, "p")
        near = perturb(base, rng, k=2)
        t1, t2 = " ".join(base), " ".join(near)
        assert exact_jaccard(t1, t2) >= 0.85
        clusters = find_near_duplicates(*dedup_input({"a": t1, "b": t2}), threshold=0.85)
        assert len(clusters) == 1
        assert clusters[0].member_repo_ids == ("a", "b")

    def test_disjoint_texts_no_clusters(self):
        rng = random.Random(29)
        t1 = " ".join(random_text(rng, "x"))
        t2 = " ".join(random_text(rng, "y"))
        assert exact_jaccard(t1, t2) == 0.0
        assert find_near_duplicates(*dedup_input({"a": t1, "b": t2}), threshold=0.85) == []

    def test_transitive_cluster_of_three(self):
        rng = random.Random(31)
        base = random_text(rng, "t")
        texts = [" ".join(base), " ".join(perturb(base, rng, 1)), " ".join(perturb(base, rng, 2))]
        for i in range(3):
            for j in range(i + 1, 3):
                assert exact_jaccard(texts[i], texts[j]) >= 0.85
        inputs = dedup_input({f"r{i}": t for i, t in enumerate(texts)})
        clusters = find_near_duplicates(*inputs, threshold=0.85)
        assert len(clusters) == 1
        assert clusters[0].member_repo_ids == ("r0", "r1", "r2")

    def test_mismatched_num_perm_rejected(self):
        text = "a b c d e f g h i j " * 20
        s1 = minhash_signature(text, num_perm=128)
        s2 = minhash_signature(text, num_perm=64)
        with pytest.raises(ValueError):
            find_near_duplicates({"a": s1, "b": s2}, {"a": 200, "b": 200}, bands=16, rows=8)

    def test_banding_shape_must_cover_signature(self):
        s = minhash_signature("x y z " * 30)
        with pytest.raises(ValueError):
            find_near_duplicates({"a": s}, {"a": 180}, bands=10, rows=10)

    @pytest.mark.parametrize("threshold", [0.0, 1.0, -0.5, 1.5])
    def test_threshold_outside_the_open_unit_interval_rejected(self, threshold):
        s = minhash_signature("x y z " * 30)
        with pytest.raises(ValueError, match="threshold must be in"):
            find_near_duplicates({"a": s}, {"a": 180}, threshold=threshold)

    def test_similarity_of_signatures_of_unequal_length_rejected(self):
        with pytest.raises(ValueError, match="different lengths"):
            signature_similarity((1, 2, 3), (1, 2))

    def test_representative_uses_sizes_when_given(self):
        rng = random.Random(41)
        base = random_text(rng, "s")
        t1, t2 = " ".join(base), " ".join(perturb(base, rng, 1))
        sigs = {"big": minhash_signature(t1), "sml": minhash_signature(t2)}
        clusters = find_near_duplicates(sigs, {"big": 9000, "sml": 100}, threshold=0.85)
        assert clusters[0].representative == "big"


def representatives(texts: dict[str, str]) -> list[str]:
    clusters = find_near_duplicates(*dedup_input(texts), threshold=0.85)
    return [c.representative for c in clusters]


class TestDedupRepos:
    """Which repo of a cluster survives: the representative that
    find_near_duplicates picks from char_counts."""

    def test_largest_sample_retained(self):
        assert representatives({"B": "x " * 4000, "A": "x " * 5000}) == ["A"]

    def test_equal_size_tie_lexicographic(self):
        assert representatives({"Y": "q " * 100, "X": "q " * 100}) == ["X"]

    def test_retained_count_identity(self):
        rng = random.Random(47)
        bases = [random_text(rng, f"v{i}", 240) for i in range(3)]
        texts = [bases[0], perturb(bases[0], rng, 1), perturb(bases[0], rng, 2), bases[1],
                 bases[2], perturb(bases[2], rng, 1)]
        samples = {f"r{i}": " ".join(t) for i, t in enumerate(texts)}
        clusters = find_near_duplicates(*dedup_input(samples), threshold=0.85)
        assert [c.member_repo_ids for c in clusters] == [("r0", "r1", "r2"), ("r4", "r5")]
        dropped = sum(len(c.member_repo_ids) - 1 for c in clusters)
        assert len(samples) - dropped == 3

    def test_idempotent(self):
        rng = random.Random(53)
        base = random_text(rng, "idem")
        samples = {
            "a": " ".join(base),
            "b": " ".join(perturb(base, rng, 1)),
            "c": " ".join(random_text(rng, "other")),
        }

        def survivors(ss):
            clusters = find_near_duplicates(*dedup_input(ss), threshold=0.85)
            drop = {rid for c in clusters for rid in c.member_repo_ids if rid != c.representative}
            return {rid: t for rid, t in ss.items() if rid not in drop}

        once = survivors(samples)
        assert len(once) == 2
        assert list(survivors(once)) == list(once)

    def test_invalid_representative_rejected(self):
        with pytest.raises(ValueError):
            DuplicateCluster(member_repo_ids=("A", "B"), representative="C")

    def test_choose_representative_rules(self):
        sizes = {"a": 10, "b": 20, "c": 20}
        assert choose_representative(["a", "b", "c"], sizes) == "b"
        assert choose_representative(["c", "b"], sizes) == "b"
