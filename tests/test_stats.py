from __future__ import annotations

import random

from repopipe.stats import compute_corpus_stats, render_stats_table


class TestComputeStats:
    def test_single_language_is_everything(self):
        stats = compute_corpus_stats({"Python": 1234}, {"Python": 3})
        assert len(stats["languages"]) == 1
        assert stats["languages"][0]["proportion"] == 100.0
        assert stats["total"]["size_bytes"] == 1234
        assert stats["total"]["files"] == 3

    def test_three_to_one_ratio(self):
        stats = compute_corpus_stats({"Python": 300, "Go": 100}, {"Python": 3, "Go": 1})
        by_lang = {r["language"]: r["proportion"] for r in stats["languages"]}
        assert by_lang == {"Python": 75.0, "Go": 25.0}

    def test_totals_equal_column_sums(self):
        lang_bytes = {"A": 10, "B": 25, "C": 65}
        lang_files = {"A": 1, "B": 2, "C": 3}
        stats = compute_corpus_stats(lang_bytes, lang_files)
        assert stats["total"]["size_bytes"] == sum(lang_bytes.values())
        assert stats["total"]["files"] == sum(lang_files.values())
        assert sum(r["size_bytes"] for r in stats["languages"]) == stats["total"]["size_bytes"]
        assert sum(r["files"] for r in stats["languages"]) == stats["total"]["files"]

    def test_proportions_sum_near_100_on_random_corpora(self):
        rng = random.Random(2024)
        for _ in range(200):
            n = rng.randint(1, 40)
            lang_bytes = {f"L{i}": rng.randint(1, 10_000_000) for i in range(n)}
            stats = compute_corpus_stats(lang_bytes, {k: 1 for k in lang_bytes})
            assert abs(sum(r["proportion"] for r in stats["languages"]) - 100.0) <= 0.05

    def test_empty_corpus(self):
        stats = compute_corpus_stats({}, {})
        assert stats["languages"] == []
        assert stats["total"]["size_bytes"] == 0

    def test_drop_counters_passed_through_sorted(self):
        stats = compute_corpus_stats(
            {"A": 1}, {"A": 1}, {"filter": {"z_rule": 2, "a_rule": 1}}
        )
        assert list(stats["drop_counters"]["filter"]) == ["a_rule", "z_rule"]


class TestRender:
    def test_table_has_columns_and_total_row(self):
        stats = compute_corpus_stats({"Python": 3_000_000, "Go": 1_000_000}, {"Python": 4, "Go": 2})
        text = render_stats_table(stats)
        for token in ("Language", "Size (GB)", "Files (k)", "Prop. (%)", "Total"):
            assert token in text
        lines = text.strip().splitlines()
        assert lines[-1].startswith("Total")
        assert "100.00" in lines[-1]

    def test_drop_counters_rendered(self):
        stats = compute_corpus_stats({"A": 1}, {"A": 1}, {"filter": {"max_line_len": 5}})
        assert "filter/max_line_len: 5" in render_stats_table(stats)

    def test_machine_readable_shape(self):
        payload = compute_corpus_stats({"Python": 10, "Go": 30}, {"Python": 1, "Go": 1})
        assert payload["total"]["size_bytes"] == 40
        assert payload["total"]["files"] == 2
        assert {row["language"] for row in payload["languages"]} == {"Python", "Go"}
        assert payload["total"]["proportion"] == 100.0
