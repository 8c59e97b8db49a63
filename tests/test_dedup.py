from __future__ import annotations

import random
import re

import pytest

from repopipe.dedup import (
    DuplicateCluster,
    choose_representative,
    find_near_duplicates,
    minhash_signature,
    signature_similarity,
)
from repopipe.deps import RepoSample

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


def sample(repo_id: str, text: str) -> RepoSample:
    return RepoSample(repo_id=repo_id, ordered_paths=(), text=text, char_count=len(text))


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
        s1 = minhash_signature(sample("a", text))
        s2 = minhash_signature(sample("b", text))
        assert s1.values == s2.values

    def test_shingle_set_semantics_order_independent(self):
        # Same shingle set at width 1, different token order.
        rng = random.Random(3)
        toks = random_text(rng, "w", 120)
        shuffled = list(toks)
        rng.shuffle(shuffled)
        s1 = minhash_signature(sample("a", " ".join(toks)), shingle_width=1)
        s2 = minhash_signature(sample("b", " ".join(shuffled)), shingle_width=1)
        assert s1.values == s2.values

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
        s1 = minhash_signature(sample("a", t1), num_perm=128, shingle_width=1)
        s2 = minhash_signature(sample("b", t2), num_perm=128, shingle_width=1)
        assert abs(signature_similarity(s1, s2) - 0.5) <= 0.15

    def test_deterministic_across_calls(self):
        text = "alpha beta gamma delta " * 50
        assert minhash_signature(sample("a", text)).values == minhash_signature(
            sample("a", text)
        ).values

    def test_short_text_single_truncated_shingle(self):
        s = minhash_signature(sample("a", "only three tokens"), shingle_width=5)
        assert len(s.values) == 128

    def test_num_perm_floor(self):
        with pytest.raises(ValueError):
            minhash_signature(sample("a", "x y z"), num_perm=8)

    def test_empty_text_rejected(self):
        with pytest.raises(ValueError):
            minhash_signature(sample("a", ""))


class TestFindNearDuplicates:
    def test_ninety_percent_overlap_clusters(self):
        rng = random.Random(23)
        base = random_text(rng, "p")
        near = perturb(base, rng, k=2)
        t1, t2 = " ".join(base), " ".join(near)
        assert exact_jaccard(t1, t2) >= 0.85
        sigs = [minhash_signature(sample("a", t1)), minhash_signature(sample("b", t2))]
        clusters = find_near_duplicates(sigs, threshold=0.85)
        assert len(clusters) == 1
        assert clusters[0].member_repo_ids == ("a", "b")

    def test_disjoint_texts_no_clusters(self):
        rng = random.Random(29)
        t1 = " ".join(random_text(rng, "x"))
        t2 = " ".join(random_text(rng, "y"))
        assert exact_jaccard(t1, t2) == 0.0
        sigs = [minhash_signature(sample("a", t1)), minhash_signature(sample("b", t2))]
        assert find_near_duplicates(sigs, threshold=0.85) == []

    def test_transitive_cluster_of_three(self):
        rng = random.Random(31)
        base = random_text(rng, "t")
        texts = [" ".join(base), " ".join(perturb(base, rng, 1)), " ".join(perturb(base, rng, 2))]
        for i in range(3):
            for j in range(i + 1, 3):
                assert exact_jaccard(texts[i], texts[j]) >= 0.85
        sigs = [minhash_signature(sample(f"r{i}", t)) for i, t in enumerate(texts)]
        clusters = find_near_duplicates(sigs, threshold=0.85)
        assert len(clusters) == 1
        assert clusters[0].member_repo_ids == ("r0", "r1", "r2")

    def test_mismatched_num_perm_rejected(self):
        text = "a b c d e f g h i j " * 20
        s1 = minhash_signature(sample("a", text), num_perm=128)
        s2 = minhash_signature(sample("b", text), num_perm=64)
        with pytest.raises(ValueError):
            find_near_duplicates([s1, s2], bands=16, rows=8)

    def test_banding_shape_must_cover_signature(self):
        s = minhash_signature(sample("a", "x y z " * 30))
        with pytest.raises(ValueError):
            find_near_duplicates([s], bands=10, rows=10)

    def test_representative_uses_sizes_when_given(self):
        rng = random.Random(41)
        base = random_text(rng, "s")
        t1, t2 = " ".join(base), " ".join(perturb(base, rng, 1))
        sigs = [minhash_signature(sample("big", t1)), minhash_signature(sample("sml", t2))]
        clusters = find_near_duplicates(
            sigs, threshold=0.85, char_counts={"big": 9000, "sml": 100}
        )
        assert clusters[0].representative == "big"


def representatives(samples: list[RepoSample]) -> list[str]:
    sigs = [minhash_signature(s) for s in samples]
    char_counts = {s.repo_id: s.char_count for s in samples}
    clusters = find_near_duplicates(sigs, threshold=0.85, char_counts=char_counts)
    return [c.representative for c in clusters]


class TestDedupRepos:
    """Which repo of a cluster survives: the representative that
    find_near_duplicates picks from char_counts."""

    def test_largest_sample_retained(self):
        a = sample("A", "x " * 5000)
        b = sample("B", "x " * 4000)
        assert representatives([b, a]) == ["A"]

    def test_equal_size_tie_lexicographic(self):
        x = sample("X", "q " * 100)
        y = sample("Y", "q " * 100)
        assert representatives([y, x]) == ["X"]

    def test_retained_count_identity(self):
        rng = random.Random(47)
        bases = [random_text(rng, f"v{i}", 240) for i in range(3)]
        texts = [bases[0], perturb(bases[0], rng, 1), perturb(bases[0], rng, 2), bases[1],
                 bases[2], perturb(bases[2], rng, 1)]
        samples = [sample(f"r{i}", " ".join(t)) for i, t in enumerate(texts)]
        sigs = [minhash_signature(s) for s in samples]
        clusters = find_near_duplicates(
            sigs, threshold=0.85, char_counts={s.repo_id: s.char_count for s in samples}
        )
        assert [c.member_repo_ids for c in clusters] == [("r0", "r1", "r2"), ("r4", "r5")]
        dropped = sum(len(c.member_repo_ids) - 1 for c in clusters)
        assert len(samples) - dropped == 3

    def test_idempotent(self):
        rng = random.Random(53)
        base = random_text(rng, "idem")
        samples = [
            sample("a", " ".join(base)),
            sample("b", " ".join(perturb(base, rng, 1))),
            sample("c", " ".join(random_text(rng, "other"))),
        ]

        def survivors(ss):
            sigs = [minhash_signature(s) for s in ss]
            clusters = find_near_duplicates(
                sigs, threshold=0.85, char_counts={s.repo_id: s.char_count for s in ss}
            )
            drop = {rid for c in clusters for rid in c.member_repo_ids if rid != c.representative}
            return [s for s in ss if s.repo_id not in drop]

        once = survivors(samples)
        assert len(once) == 2
        assert [s.repo_id for s in survivors(once)] == [s.repo_id for s in once]

    def test_invalid_representative_rejected(self):
        with pytest.raises(ValueError):
            DuplicateCluster(member_repo_ids=("A", "B"), representative="C")

    def test_choose_representative_rules(self):
        sizes = {"a": 10, "b": 20, "c": 20}
        assert choose_representative(["a", "b", "c"], sizes) == "b"
        assert choose_representative(["c", "b"], sizes) == "b"
