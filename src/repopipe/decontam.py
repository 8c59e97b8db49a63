"""Benchmark decontamination by token-level n-gram matching.

Test strings of ten or more tokens are indexed by all their sliding
10-grams; strings of three to nine tokens are matched exactly as whole
token sequences; anything shorter is ignored. A sample is excluded
whole on any hit. Normalization collapses whitespace runs and preserves
case, so spacing tricks cannot evade detection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress, count
from typing import Iterable

from .filters import text_slices

NGRAM_SIZE = 10
EXACT_MIN_TOKENS = 3


def tokenize(text: str) -> list[str]:
    """Whitespace tokenization; splitting collapses runs implicitly."""
    return text.split()


@dataclass
class ContaminationIndex:
    """Lookup tables built once from benchmark test data, then read-only."""

    ten_gram_set: set[str] = field(default_factory=set)
    exact_set: set[str] = field(default_factory=set)
    source_labels: dict[str, str] = field(default_factory=dict)
    exact_lengths: set[int] = field(default_factory=set)
    skipped_short: int = 0
    # first token of an entry -> the lengths of the entries it starts
    first_tokens: dict[str, set[int]] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.ten_gram_set) + len(self.exact_set)


def build_contamination_index(
    test_strings: Iterable[tuple[str, str]],
) -> ContaminationIndex:
    """Index (text, benchmark_label) pairs. The first benchmark to
    contribute an entry owns its label.
    """
    index = ContaminationIndex()
    for text, benchmark in test_strings:
        tokens = tokenize(text)
        if len(tokens) < EXACT_MIN_TOKENS:
            index.skipped_short += 1
            continue
        if len(tokens) >= NGRAM_SIZE:
            for i in range(len(tokens) - NGRAM_SIZE + 1):
                gram = " ".join(tokens[i : i + NGRAM_SIZE])
                index.ten_gram_set.add(gram)
                index.source_labels.setdefault(gram, benchmark)
                index.first_tokens.setdefault(tokens[i], set()).add(NGRAM_SIZE)
        else:
            entry = " ".join(tokens)
            index.exact_set.add(entry)
            index.exact_lengths.add(len(tokens))
            index.source_labels.setdefault(entry, benchmark)
            index.first_tokens.setdefault(tokens[0], set()).add(len(tokens))
    return index


@dataclass(frozen=True)
class ContaminationReport:
    hit: bool
    matched_entries: tuple[str, ...] = ()
    benchmarks: tuple[str, ...] = ()


def scan_text(text: str, index: ContaminationIndex) -> ContaminationReport:
    """All matches in the token stream: 10-grams by position, then exact
    strings by ascending length and position. A window is joined and
    looked up only at positions whose token starts an indexed entry of
    that length, in the slice of the text that holds its last token; a
    slice's last NGRAM_SIZE - 1 tokens go on to the next.
    """
    lengths = [NGRAM_SIZE, *sorted(index.exact_lengths)]
    found: dict[int, list[str]] = {n: [] for n in lengths}  # per length, by position
    seen: set[str] = set()
    tokens: list[str] = []
    for part in text_slices(text):
        carried = len(tokens)
        tokens += tokenize(part)
        starts: dict[int, list[int]] = {}  # entry length -> candidate positions, ascending
        for i in compress(count(), map(index.first_tokens.__contains__, tokens)):
            for n in index.first_tokens[tokens[i]]:
                if i + n > carried:
                    starts.setdefault(n, []).append(i)
        for n in lengths:
            entries = index.ten_gram_set if n == NGRAM_SIZE else index.exact_set
            last = len(tokens) - n
            for i in starts.get(n, ()):
                if i > last:
                    break
                window = " ".join(tokens[i : i + n])
                if window in entries and window not in seen:
                    seen.add(window)
                    found[n].append(window)
        del tokens[: -(NGRAM_SIZE - 1)]
    matched = [m for n in lengths for m in found[n]]
    benchmarks = sorted({index.source_labels[m] for m in matched})
    return ContaminationReport(
        hit=bool(matched),
        matched_entries=tuple(matched),
        benchmarks=tuple(benchmarks),
    )
