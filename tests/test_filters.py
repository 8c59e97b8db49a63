from __future__ import annotations

import pytest

from repopipe import filters
from repopipe.corpus import SourceFile, compute_file_stats
from repopipe.filters import (
    RULE_ALPHA_FRACTION,
    RULE_AVG_LINE_LEN,
    RULE_DATA_TOO_LARGE,
    RULE_DATA_TOO_SMALL,
    RULE_LONG_LINES,
    RULE_MAX_LINE_LEN,
    RULE_TOKEN_REPETITION,
    RULE_VISIBLE_MIN_CHARS,
    RULE_VISIBLE_RATIO,
    RULE_XML_DECLARATION,
    FilterVerdict,
    apply_base_filters,
    apply_quality_heuristics,
    extract_visible_text,
    filter_data_file,
    filter_html,
)


def verdict_for(content: str, language: str = "Python") -> FilterVerdict:
    sf = SourceFile(repo_id="r", path="f", language=language, content=content, byte_size=0)
    return apply_base_filters(sf, compute_file_stats(content))


def long_line_file(line_len: int) -> str:
    # One long line diluted with short ones so only max_line_len can fire.
    pad = max(10, (line_len - 100) // 99 + 1)
    return "\n".join(["a" * line_len] + ["a"] * pad)


class TestBaseFilterBoundaries:
    @pytest.mark.parametrize(
        "length,accepted", [(99, True), (100, True), (101, False)]
    )
    def test_avg_line_len_strict_greater(self, length, accepted):
        v = verdict_for("a" * length)
        assert v.accepted == accepted
        if not accepted:
            assert v.rule_fired == RULE_AVG_LINE_LEN

    @pytest.mark.parametrize(
        "length,accepted", [(999, True), (1000, True), (1001, False)]
    )
    def test_max_line_len_strict_greater(self, length, accepted):
        v = verdict_for(long_line_file(length))
        assert v.accepted == accepted
        if not accepted:
            assert v.rule_fired == RULE_MAX_LINE_LEN

    @pytest.mark.parametrize(
        "alpha,accepted", [(24, False), (25, True), (26, True)]
    )
    def test_alpha_fraction_strict_less(self, alpha, accepted):
        content = "a" * alpha + "1" * (100 - alpha)
        v = verdict_for(content)
        assert v.accepted == accepted
        if not accepted:
            assert v.rule_fired == RULE_ALPHA_FRACTION

    def test_mostly_digits_rejected(self):
        v = verdict_for("1234567890\n" * 10)
        assert not v.accepted
        assert v.rule_fired == RULE_ALPHA_FRACTION

    def test_single_1500_char_line_among_short_lines(self):
        v = verdict_for(long_line_file(1500))
        assert not v.accepted
        assert v.rule_fired == RULE_MAX_LINE_LEN

    def test_rule_order_avg_before_max(self):
        # One lone 1500-char line pushes the average past 100 first.
        v = verdict_for("a" * 1500)
        assert v.rule_fired == RULE_AVG_LINE_LEN


class TestXmlRule:
    def test_xml_declaration_rejected(self):
        v = verdict_for('<?xml version="1.0"?>\n<doc>hello there</doc>')
        assert v.rule_fired == RULE_XML_DECLARATION

    def test_xslt_exempt(self):
        v = verdict_for('<?xml version="1.0"?>\n<xsl:stylesheet attr="body"/>', language="XSLT")
        assert v.accepted

    def test_marker_beyond_first_100_chars_ok(self):
        content = ("a" * 100) + '\n<?xml version="1.0"?>'
        v = verdict_for(content)
        assert v.accepted


def html_with(visible: int, total: int) -> str:
    """Exact visible/total character counts; padding hides in a comment."""
    body = "v" * visible
    overhead = len("<p></p><!---->")
    pad = total - visible - overhead
    assert pad >= 0
    return f"<p>{body}</p><!--{'x' * pad}-->"


class TestHtmlFilter:
    @pytest.mark.parametrize("visible,accepted", [(99, False), (100, True), (101, True)])
    def test_visible_min_chars_boundary(self, visible, accepted):
        v = filter_html(html_with(visible, 400))
        assert v.accepted == accepted
        if not accepted:
            assert v.rule_fired == RULE_VISIBLE_MIN_CHARS

    @pytest.mark.parametrize("visible,accepted", [(199, False), (200, True), (201, True)])
    def test_visible_ratio_boundary(self, visible, accepted):
        v = filter_html(html_with(visible, 1000))
        assert v.accepted == accepted
        if not accepted:
            assert v.rule_fired == RULE_VISIBLE_RATIO

    def test_high_ratio_accepted(self):
        v = filter_html(html_with(250, 800))
        assert v.accepted

    def test_low_ratio_rejected(self):
        v = filter_html(html_with(250, 5000))
        assert v.rule_fired == RULE_VISIBLE_RATIO

    def test_short_visible_rejected_despite_ratio(self):
        v = filter_html(html_with(40, 100))
        assert v.rule_fired == RULE_VISIBLE_MIN_CHARS

    def test_script_and_style_not_visible(self):
        html = "<script>var hidden = 1;</script><style>p{}</style><p>shown</p>"
        assert extract_visible_text(html) == "shown"

    def test_whitespace_collapsed(self):
        assert extract_visible_text("<p>a\n\n  b\t c</p>") == "a b c"

    def test_text_collected_before_the_parser_raises_is_kept(self, monkeypatch):
        # Whether HTMLParser raises on input such as "<![foo[" depends on
        # the Python version, so a patched tag handler raises instead.
        starttag = filters._VisibleTextExtractor.handle_starttag

        def handle_starttag(self, tag, attrs):
            if tag == "boom":
                raise ValueError("unparseable")
            starttag(self, tag, attrs)

        monkeypatch.setattr(filters._VisibleTextExtractor, "handle_starttag", handle_starttag)
        assert extract_visible_text("<p>kept  text</p><boom>lost<p>lost too</p>") == "kept text"

    def test_malformed_html_best_effort(self):
        v = filter_html("<p><div>" + "w" * 300 + "<broken")
        assert isinstance(v.accepted, bool)


class TestDataFileFilter:
    @pytest.mark.parametrize("n,accepted,rule", [
        (49, False, RULE_DATA_TOO_SMALL),
        (50, True, None),
        (51, True, None),
        (4999, True, None),
        (5000, True, None),
        (5001, False, RULE_DATA_TOO_LARGE),
    ])
    def test_boundaries_inclusive(self, n, accepted, rule):
        for language in ("JSON", "YAML"):
            v = filter_data_file("x" * n, language)
            assert v.accepted == accepted
            assert v.rule_fired == rule

    def test_thirty_char_json_rejected(self):
        assert filter_data_file("x" * 30, "JSON").rule_fired == RULE_DATA_TOO_SMALL

    def test_4000_char_yaml_accepted(self):
        assert filter_data_file("y" * 4000, "YAML").accepted

    def test_wrong_language_rejected(self):
        with pytest.raises(ValueError):
            filter_data_file("{}", "Python")


class TestQualityHeuristics:
    def test_repeated_token_rejected(self):
        v = apply_quality_heuristics("spam " * 400)
        assert v.rule_fired == RULE_TOKEN_REPETITION

    def test_normal_code_accepted(self):
        code = "\n".join(f"name_{i} = func_{i}(arg_{i})" for i in range(50))
        assert apply_quality_heuristics(code).accepted

    def test_minified_blob_rejected(self):
        blob = "\n".join(
            "".join(f"y{i}_{j}(z{j});" for j in range(40)) for i in range(20)
        )
        v = apply_quality_heuristics(blob)
        assert v.rule_fired == RULE_LONG_LINES

    def test_long_comment_lines_do_not_count(self):
        comments = ["# " + " ".join(f"note_{i}_{j}" for j in range(40)) for i in range(20)]
        content = "\n".join(comments + ["short = 1"])
        assert apply_quality_heuristics(content).accepted

    def test_empty_accepted(self):
        assert apply_quality_heuristics("").accepted


class TestVerdictInvariants:
    def test_partition_over_corpus(self):
        samples = [
            "a" * 101,
            long_line_file(1001),
            "1" * 40,
            "ok_line = 1\n" * 5,
            '<?xml version="1.0"?><a>b</a>',
            "z = compute(1, 2)\n",
        ]
        accepted, rejected = [], []
        for content in samples:
            v = verdict_for(content)
            (accepted if v.accepted else rejected).append(v)
        assert len(accepted) + len(rejected) == len(samples)
        for v in rejected:
            assert v.rule_fired is not None

    def test_filters_pure(self):
        content = "a" * 101
        assert verdict_for(content) == verdict_for(content)
