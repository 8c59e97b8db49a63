from __future__ import annotations

import random
import string

import pytest

from repopipe.config import EOS, FIM_END, FIM_HOLE, FIM_START, SentinelSet
from repopipe.packing import FimConfig, fim_split, fim_transform

_ALPHABET = string.ascii_letters + string.digits + " \n(){}=.,_"


def reassemble(out: str, sentinels: SentinelSet = SentinelSet(), mode: str = "psm") -> str:
    """Test-side inverse: recover the original document from the
    sentinel-delimited layout.
    """
    if out.startswith(sentinels.fim_start):
        body = out[len(sentinels.fim_start) :]
        assert body.endswith(sentinels.eos)
        body = body[: -len(sentinels.eos)]
        first, rest = body.split(sentinels.fim_hole, 1)
        second, middle = rest.split(sentinels.fim_end, 1)
        pre, suf = (first, second) if mode == "psm" else (second, first)
        return pre + middle + suf
    assert out.endswith(sentinels.eos)
    return out[: -len(sentinels.eos)]


def random_doc(rng: random.Random, max_len: int = 200) -> str:
    n = rng.randint(1, max_len)
    return "".join(rng.choice(_ALPHABET) for _ in range(n))


class TestLayout:
    def test_psm_formula_literal(self):
        out = fim_split("abcdef", 2, 4)
        assert out == "<｜fim_start｜>ab<｜fim_hole｜>ef<｜fim_end｜>cd<|eos_token|>"

    def test_sentinel_literals(self):
        assert FIM_START == "<｜fim_start｜>"
        assert FIM_HOLE == "<｜fim_hole｜>"
        assert FIM_END == "<｜fim_end｜>"
        assert EOS == "<|eos_token|>"
        # fullwidth bar in fim sentinels, ASCII bar in eos
        assert "｜" in FIM_START and "｜" not in EOS
        assert "|" in EOS

    def test_degenerate_cuts_whole_doc_as_middle(self):
        doc = "abcdef"
        out = fim_split(doc, 0, len(doc))
        assert out == FIM_START + FIM_HOLE + FIM_END + doc + EOS

    def test_spm_layout_swaps_context_fields(self):
        out = fim_split("abcdef", 2, 4, mode="spm")
        assert out == FIM_START + "ef" + FIM_HOLE + "ab" + FIM_END + "cd" + EOS

    def test_out_of_range_cuts_rejected(self):
        with pytest.raises(ValueError):
            fim_split("abc", 2, 1)
        with pytest.raises(ValueError):
            fim_split("abc", 0, 4)


class TestTransform:
    def test_rate_zero_identity_plus_eos(self):
        cfg = FimConfig(fim_rate=0.0, seed=1)
        assert fim_transform("abcdef", 0, cfg) == "abcdef" + EOS

    def test_rate_one_always_transforms(self):
        cfg = FimConfig(fim_rate=1.0, seed=1)
        for i in range(50):
            out = fim_transform("some document body", i, cfg)
            assert out.startswith(FIM_START)

    def test_deterministic_given_seed_and_index(self):
        cfg = FimConfig(fim_rate=0.5, seed=42)
        doc = "the contents of a file\nwith lines\n"
        assert fim_transform(doc, 7, cfg) == fim_transform(doc, 7, cfg)

    def test_different_indices_draw_independent_streams(self):
        cfg = FimConfig(fim_rate=1.0, seed=42)
        doc = "the contents of a file with enough length to cut differently"
        outs = {fim_transform(doc, i, cfg) for i in range(20)}
        assert len(outs) > 1

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 4: streams are seeded with seed + doc_index")
    def test_adjacent_seeds_are_not_shifted_streams(self):
        doc = "the contents of a file with enough length to cut differently"
        seed0 = [fim_transform(doc, i + 1, FimConfig(seed=0)) for i in range(40)]
        seed1 = [fim_transform(doc, i, FimConfig(seed=1)) for i in range(40)]
        assert seed1 != seed0

    def test_sentinel_collision_returns_none(self):
        cfg = FimConfig(fim_rate=0.5, seed=1)
        assert fim_transform(f"evil {FIM_HOLE} doc", 0, cfg) is None
        assert fim_transform(f"evil {EOS} doc", 0, cfg) is None

    def test_empty_doc_rejected(self):
        with pytest.raises(ValueError):
            fim_transform("", 0, FimConfig())

    def test_round_trip_both_branches(self):
        cfg = FimConfig(fim_rate=0.5, seed=3)
        rng = random.Random(11)
        transformed = 0
        for i in range(500):
            doc = random_doc(rng)
            out = fim_transform(doc, i, cfg)
            assert out is not None
            if out.startswith(FIM_START):
                transformed += 1
            assert reassemble(out) == doc
        assert 0 < transformed < 500

    def test_round_trip_spm(self):
        cfg = FimConfig(fim_rate=1.0, mode="spm", seed=5)
        rng = random.Random(13)
        for i in range(200):
            doc = random_doc(rng)
            out = fim_transform(doc, i, cfg)
            assert reassemble(out, mode="spm") == doc

    def test_rate_concentration_10k_docs(self):
        cfg = FimConfig(fim_rate=0.5, seed=0)
        n = 10_000
        hits = 0
        for i in range(n):
            out = fim_transform("document body text", i, cfg)
            if out.startswith(FIM_START):
                hits += 1
        # 99% binomial CI around 0.5 at n=10000: half-width 2.576*sqrt(0.25/n)
        half_width = 2.576 * (0.25 / n) ** 0.5
        assert abs(hits / n - 0.5) <= half_width


class TestSentinelSet:
    def test_distinct_sentinels_required(self):
        with pytest.raises(ValueError):
            SentinelSet(fim_start="<X>", fim_hole="<X>", fim_end="<Z>", eos="<E>")

    def test_custom_sentinels_flow_through(self):
        s = SentinelSet(fim_start="<A>", fim_hole="<B>", fim_end="<C>", eos="<D>")
        out = fim_split("abcdef", 2, 4, s)
        assert out == "<A>ab<B>ef<C>cd<D>"

    def test_invalid_config_values_rejected(self):
        with pytest.raises(ValueError):
            FimConfig(fim_rate=1.5)
        with pytest.raises(ValueError):
            FimConfig(mode="msp")
