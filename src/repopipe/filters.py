"""Rule-based quality filtering with auditable per-file verdicts.

Rules are evaluated in a fixed, documented order so rejection-reason
counters are stable across runs. Threshold semantics:

  - avg_line_len / max_line_len: reject on strictly greater than
  - alphabetic_fraction: reject on strictly less than
  - HTML visible text: accept on >= for both minimum chars and ratio
  - JSON/YAML size window: inclusive on both bounds
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from html.parser import HTMLParser
from itertools import compress
from operator import mul
from typing import Iterator

from .config import FilterThresholds  # defined there, so config loads without this module
from .corpus import FileStats, SourceFile

# Rule identifiers, in evaluation order per rule family.
RULE_AVG_LINE_LEN = "avg_line_len"
RULE_MAX_LINE_LEN = "max_line_len"
RULE_ALPHA_FRACTION = "alphabetic_fraction"
RULE_XML_DECLARATION = "xml_declaration"
RULE_VISIBLE_MIN_CHARS = "visible_min_chars"
RULE_VISIBLE_RATIO = "visible_ratio"
RULE_DATA_TOO_SMALL = "data_too_small"
RULE_DATA_TOO_LARGE = "data_too_large"
RULE_TOKEN_REPETITION = "token_repetition"
RULE_LONG_LINES = "long_lines"

_XML_MARKER = "<?xml version="
DATA_FILE_LANGUAGES = frozenset({"JSON", "YAML"})

SLICE_CHARS = 1 << 16  # characters of a sample that a text kernel works on at once
_CUT = {False: re.compile(r"\s"), True: re.compile(r"\n")}


def text_slices(text: str, lines: bool = False) -> Iterator[str]:
    """`text` in slices of SLICE_CHARS or more characters, each cut after
    the first whitespace (with `lines`, newline) from there on: no token
    of `str.split` or `\\w+`, nor with `lines` a line, spans two slices."""
    start = 0
    while start < len(text):
        cut = _CUT[lines].search(text, start + SLICE_CHARS - 1)
        end = cut.end() if cut else len(text)
        yield text[start:end]
        start = end


@dataclass(frozen=True)
class FilterVerdict:
    """Outcome of one filter evaluation: the rule that rejected the file
    and why, or no rule for an accepted file."""

    rule_fired: str | None = None
    detail: str = ""

    @property
    def accepted(self) -> bool:
        return self.rule_fired is None


def apply_base_filters(
    file: SourceFile,
    stats: FileStats,
    thresholds: FilterThresholds = FilterThresholds(),
) -> FilterVerdict:
    """Line-length, alphabetic-fraction, and XML-declaration rules.

    XSLT files are exempt from the XML-declaration rule.
    """
    if stats.avg_line_len > thresholds.max_avg_line_len:
        return FilterVerdict(
            RULE_AVG_LINE_LEN,
            f"avg line length {stats.avg_line_len:.1f} > {thresholds.max_avg_line_len}",
        )
    if stats.max_line_len > thresholds.max_line_len:
        return FilterVerdict(
            RULE_MAX_LINE_LEN,
            f"max line length {stats.max_line_len} > {thresholds.max_line_len}",
        )
    if stats.alphabetic_fraction < thresholds.min_alpha_fraction:
        return FilterVerdict(
            RULE_ALPHA_FRACTION,
            f"alphabetic fraction {stats.alphabetic_fraction:.3f} < {thresholds.min_alpha_fraction}",
        )
    if file.language != "XSLT" and _XML_MARKER in file.content[: thresholds.xml_window]:
        return FilterVerdict(
            RULE_XML_DECLARATION,
            f"{_XML_MARKER!r} within first {thresholds.xml_window} characters",
        )
    return FilterVerdict()


class _VisibleTextExtractor(HTMLParser):
    """Collects text nodes outside script/style subtrees. Tolerant of
    malformed markup; comments and tag attributes are never visible.
    """

    _HIDDEN = {"script", "style"}

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self._hidden_depth = 0
        self.chunks: list[str] = []

    def handle_starttag(self, tag, attrs):
        if tag in self._HIDDEN:
            self._hidden_depth += 1

    def handle_endtag(self, tag):
        if tag in self._HIDDEN and self._hidden_depth > 0:
            self._hidden_depth -= 1

    def handle_data(self, data):
        if self._hidden_depth == 0:
            self.chunks.append(data)


def extract_visible_text(content: str) -> str:
    """Visible text of an HTML document, whitespace runs collapsed."""
    parser = _VisibleTextExtractor()
    try:
        parser.feed(content)
        parser.close()
    except Exception:
        pass  # best effort on pathological markup; keep what was collected
    return " ".join("".join(parser.chunks).split())


def filter_html(
    content: str,
    thresholds: FilterThresholds = FilterThresholds(),
) -> FilterVerdict:
    """Keep HTML only when visible text is both long enough and a large
    enough share of the whole document.
    """
    visible = extract_visible_text(content)
    visible_chars = len(visible)
    total_chars = len(content)
    if visible_chars < thresholds.html_min_visible_chars:
        return FilterVerdict(
            RULE_VISIBLE_MIN_CHARS,
            f"visible text {visible_chars} chars < {thresholds.html_min_visible_chars}",
        )
    ratio = visible_chars / total_chars if total_chars else 0.0
    if ratio < thresholds.html_min_visible_ratio:
        return FilterVerdict(
            RULE_VISIBLE_RATIO,
            f"visible ratio {ratio:.3f} < {thresholds.html_min_visible_ratio}",
        )
    return FilterVerdict()


def filter_data_file(
    content: str,
    language: str,
    thresholds: FilterThresholds = FilterThresholds(),
) -> FilterVerdict:
    """Size window for data-heavy formats (JSON, YAML); bounds inclusive."""
    if language not in DATA_FILE_LANGUAGES:
        raise ValueError(f"data-file rule applies to {sorted(DATA_FILE_LANGUAGES)}, got {language!r}")
    n = len(content)
    if n < thresholds.data_min_chars:
        return FilterVerdict(RULE_DATA_TOO_SMALL, f"{n} chars < {thresholds.data_min_chars}")
    if n > thresholds.data_max_chars:
        return FilterVerdict(RULE_DATA_TOO_LARGE, f"{n} chars > {thresholds.data_max_chars}")
    return FilterVerdict()


_COMMENT_LINE = re.compile(r"^\s*(#|//|/\*|\*|--|;|%|')")


def _is_code(line: str) -> bool:
    return bool(line.strip()) and not _COMMENT_LINE.match(line)


def apply_quality_heuristics(
    content: str,
    thresholds: FilterThresholds = FilterThresholds(),
) -> FilterVerdict:
    """Declared stand-ins for compiler/quality-model screening:

    - reject when a single whitespace token covers more than half of the
      content's characters (degenerate repetition);
    - reject when more than 90% of non-comment lines exceed 200 chars
      (minified or generated blobs).

    One pass counts token lengths and the long code lines. A token's
    count times its length is at most its length's count times that
    length, so tokens themselves are counted only when some length
    passes the repetition limit; code lines only when a long one exists,
    since with none the long-line rule cannot fire for a fraction >= 0.
    """
    if not content:
        return FilterVerdict()
    by_len: Counter[int] = Counter()
    long_lines = 0
    for part in text_slices(content, lines=True):
        by_len.update(map(len, part.split()))
        lines = part.splitlines()
        longer = map(thresholds.long_line_chars.__lt__, map(len, lines))
        long_lines += sum(map(_is_code, compress(lines, longer)))
    limit = thresholds.max_repeated_token_fraction * len(content)
    if by_len and max(map(mul, by_len.values(), by_len)) > limit:
        counts: Counter[str] = Counter()
        for part in text_slices(content, lines=True):
            counts.update(part.split())
        covered = max(map(mul, counts.values(), map(len, counts)))
        if covered > limit:
            top_tok = max(tok for tok, n in counts.items() if n * len(tok) == covered)
            return FilterVerdict(
                RULE_TOKEN_REPETITION,
                f"token {top_tok[:20]!r} covers {covered}/{len(content)} chars",
            )
    if not long_lines:
        return FilterVerdict()
    code_lines = sum(sum(map(_is_code, part.splitlines())) for part in text_slices(content, lines=True))
    if long_lines / code_lines > thresholds.max_long_line_fraction:
        return FilterVerdict(
            RULE_LONG_LINES,
            f"{long_lines}/{code_lines} non-comment lines > {thresholds.long_line_chars} chars",
        )
    return FilterVerdict()
