from __future__ import annotations

import random
import string
import tracemalloc

import pytest

from repopipe.config import EOS, FIM_START, SentinelSet
from repopipe.packing import ByteTokenizer, pack_entries


class TestByteTokenizer:
    def test_plain_text_is_utf8_bytes(self):
        tok = ByteTokenizer()
        assert tok.encode("ab").tolist() == [97, 98]

    def test_sentinels_become_single_ids(self):
        tok = ByteTokenizer()
        ids = tok.encode(f"ab{EOS}")
        assert ids.tolist() == [97, 98, tok.eos_id]
        assert tok.eos_id == 259

    def test_round_trip_with_sentinels(self):
        tok = ByteTokenizer()
        text = FIM_START + "héllo" + EOS
        assert tok.decode(tok.encode(text)) == text

    def test_round_trip_ending_in_plain_bytes(self):
        tok = ByteTokenizer()
        assert tok.decode(tok.encode("ab")) == "ab"
        assert tok.decode(tok.encode(f"{EOS}héllo")) == f"{EOS}héllo"

    def test_multibyte_chars(self):
        tok = ByteTokenizer()
        assert len(tok.encode("中")) == 3

    def test_custom_sentinels(self):
        s = SentinelSet(fim_start="<1>", fim_hole="<2>", fim_end="<3>", eos="<4>")
        tok = ByteTokenizer(s)
        assert tok.encode("<4>").tolist() == [259]


class TestPackEntries:
    def test_exact_split_no_drop(self):
        tok = ByteTokenizer()
        result = pack_entries(["abcdef", "abcd"], tok, entry_len=5)
        assert len(result.entries) == 2
        assert result.dropped_tokens == 0
        assert all(len(row) == 5 for row in result.entries)

    def test_remainder_dropped(self):
        tok = ByteTokenizer()
        result = pack_entries(["abcdefg"], tok, entry_len=5)
        assert len(result.entries) == 1
        assert result.dropped_tokens == 2

    def test_conservation_over_random_docs(self):
        rng = random.Random(7)
        docs = [
            "".join(rng.choice(string.ascii_letters) for _ in range(rng.randint(1, 300)))
            for _ in range(100)
        ]
        tok = ByteTokenizer()
        entry_len = 64
        result = pack_entries(docs, tok, entry_len)
        total = sum(len(tok.encode(d)) for d in docs)
        assert result.total_tokens == total
        assert sum(len(row) for row in result.entries) + result.dropped_tokens == total
        assert all(len(row) == entry_len for row in result.entries)

    def test_doc_boundaries_are_doc_starts(self):
        tok = ByteTokenizer()
        result = pack_entries(["aaaa", "bbb", "cc"], tok, entry_len=4)
        # stream: aaaa|bbbc c -> entry0 starts: [0]; entry1 starts: [0, 3]
        assert result.doc_boundaries[0] == [0]
        assert result.doc_boundaries[1] == [0, 3]
        for bounds in result.doc_boundaries:
            for b in bounds:
                assert 0 <= b < 4

    def test_pad_final_with_eos(self):
        tok = ByteTokenizer()
        result = pack_entries(["abc"], tok, entry_len=5, pad_final=True)
        assert len(result.entries) == 1
        assert result.padded_tokens == 2
        assert result.entries[0][-2:].tolist() == [tok.eos_id, tok.eos_id]

    def test_entry_len_floor(self):
        with pytest.raises(ValueError):
            pack_entries(["abc"], ByteTokenizer(), entry_len=1)

    def test_failing_tokenizer_skips_doc(self):
        class Flaky:
            eos_id = 0

            def encode(self, text):
                if "bad" in text:
                    raise RuntimeError("no")
                return [1] * len(text)

            def decode(self, ids):
                return ""

        result = pack_entries(["okdoc!", "bad doc", "ok"], Flaky(), entry_len=4)
        assert result.skipped_docs == 1
        assert result.total_tokens == len("okdoc!") + len("ok")

    def test_empty_input(self):
        result = pack_entries([], ByteTokenizer(), entry_len=8)
        assert result.entries.shape == (0, 8)
        assert result.doc_boundaries == []
        assert result.total_tokens == 0

    def test_boundaries_count_every_doc_once(self):
        rng = random.Random(9)
        docs = ["x" * rng.randint(1, 40) for _ in range(50)]
        tok = ByteTokenizer()
        result = pack_entries(docs, tok, entry_len=16, pad_final=True)
        n_bounds = sum(len(b) for b in result.doc_boundaries)
        assert n_bounds == len(docs)

    def test_result_holds_at_most_five_bytes_per_token(self):
        # One uint32 per token plus the stream's over-allocation.
        rng = random.Random(11)
        docs = ["".join(rng.choices(string.ascii_letters, k=10_000)) for _ in range(200)]
        tok = ByteTokenizer()
        tracemalloc.start()
        try:
            result = pack_entries(docs, tok, entry_len=4096)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.total_tokens == 2_000_000
        assert retained <= 5 * result.total_tokens, retained / result.total_tokens
