from __future__ import annotations

from repopipe.decontam import (
    build_contamination_index,
    scan_text,
)


TWELVE = "tok0 tok1 tok2 tok3 tok4 tok5 tok6 tok7 tok8 tok9 tok10 tok11"
FIVE = "alpha bravo charlie delta echo"


class TestBuildIndex:
    def test_twelve_token_string_yields_three_grams(self):
        index = build_contamination_index([(TWELVE, "benchA")])
        assert len(index.source_labels) == 3
        assert not index.exact_lengths

    def test_five_token_string_goes_to_exact_set(self):
        index = build_contamination_index([(FIVE, "benchB")])
        assert set(index.source_labels) == {FIVE}
        assert index.exact_lengths == {5}

    def test_two_token_string_ignored_and_counted(self):
        index = build_contamination_index([("too short", "benchC")])
        assert len(index) == 0
        assert index.skipped_short == 1

    def test_labels_attach_to_entries(self):
        index = build_contamination_index([(FIVE, "benchB")])
        assert index.source_labels[FIVE] == "benchB"

    def test_exactly_ten_tokens_single_gram(self):
        ten = " ".join(f"t{i}" for i in range(10))
        index = build_contamination_index([(ten, "b")])
        assert set(index.source_labels) == {ten}
        assert not index.exact_lengths


class TestScan:
    def test_planted_ten_gram_hit_with_benchmark(self):
        index = build_contamination_index([(TWELVE, "humaneval-like")])
        text = "leading filler words here " + " ".join(TWELVE.split()[1:11]) + " trailing bits"
        report = scan_text(text, index)
        assert report.hit
        assert report.benchmarks == ("humaneval-like",)

    def test_nine_token_overlap_is_not_a_hit(self):
        index = build_contamination_index([(TWELVE, "b")])
        nine = " ".join(TWELVE.split()[0:9])
        report = scan_text(f"start {nine} divergent_token end", index)
        assert not report.hit

    def test_empty_sample_no_hit(self):
        index = build_contamination_index([(TWELVE, "b")])
        assert not scan_text("", index).hit

    def test_exact_match_tier(self):
        index = build_contamination_index([(FIVE, "b")])
        assert scan_text(f"pre {FIVE} post", index).hit

    def test_exact_tier_requires_whole_string(self):
        index = build_contamination_index([(FIVE, "b")])
        four = " ".join(FIVE.split()[:4])
        assert not scan_text(f"pre {four} post", index).hit

    def test_whitespace_insertion_does_not_evade(self):
        index = build_contamination_index([(FIVE, "b")])
        spaced = "alpha   bravo\t\tcharlie \n delta    echo"
        assert scan_text(f"xx {spaced} yy", index).hit

    def test_monotone_under_index_growth(self):
        texts = [f"body {FIVE} more", f"other {TWELVE} tail", "clean text with nothing planted"]
        small = build_contamination_index([(FIVE, "b1")])
        big = build_contamination_index([(FIVE, "b1"), (TWELVE, "b2")])
        for t in texts:
            if scan_text(t, small).hit:
                assert scan_text(t, big).hit

    def test_multiple_benchmarks_reported_sorted(self):
        index = build_contamination_index([(FIVE, "zeta"), (TWELVE, "alpha")])
        text = f"{FIVE} joined with {TWELVE}"
        report = scan_text(text, index)
        assert report.benchmarks == ("alpha", "zeta")

    def test_case_preserved(self):
        index = build_contamination_index([("Foo Bar Baz", "b")])
        assert not scan_text("foo bar baz", index).hit
        assert scan_text("Foo Bar Baz", index).hit
