"""Property tests: the indexed dependency resolver, line-bounded
reference patterns, bounded JS/TS import pattern, union-find
components, near-duplicate clusters that skip pairs already joined,
heap toposort, uint32-stream packer, numpy shingle hashing and
densified one-permutation MinHash give exactly the results of the
brute-force oracles in `oracles.py` on generated inputs. The kernels
that work through a sample one slice at a time give, with the slice
size patched down to a few characters, exactly the results of their
whole-text forms kept there. The byte-table entry-line writer, the
string-split path name and suffix, and the top token looked up only on
rejection give exactly `json.dumps`, the `PurePosixPath` rules and the
keyed `max` kept there. The build stage writes exactly the shards and
manifest of one oracle pack over all its documents, cut into shards.
"""

from __future__ import annotations

import collections
import hashlib
import itertools
import json
import os
import posixpath
import string
import sys
import tempfile
from pathlib import PurePosixPath
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from repopipe import dedup, deps, filters, packing, pipeline
from repopipe.config import PipelineConfig, SentinelSet
from repopipe.corpus import LanguageMap, SourceFile, compute_file_stats, detect_language
from repopipe.decontam import ContaminationReport, build_contamination_index, scan_text
from repopipe.dedup import find_near_duplicates, minhash_signature, shingle_set
from repopipe.deps import (
    connected_components,
    extract_dependencies,
    order_repo_files,
    topological_sort,
)
from repopipe.filters import FilterThresholds, apply_quality_heuristics, text_slices
from repopipe.packing import ByteTokenizer, FimConfig, PackResult, fim_transform, pack_entries

# A small vocabulary makes collisions likely: duplicate basenames,
# directories that are suffixes of one another, refs that hit many paths,
# and a dotted name that reads like an extension.
SEGMENTS = ["a", "b", "lib", "db", "pkg", "index", "util", "user.service", ""]
LANGUAGES = {
    ".py": "Python",
    ".h": "C",
    ".c": "C",
    ".hpp": "C++",
    ".cpp": "C++",
    ".go": "Go",
    ".js": "JavaScript",
    ".ts": "TypeScript",
    ".java": "Java",
    ".cs": "C#",
    ".md": None,
}

segment_lists = st.lists(st.sampled_from(SEGMENTS), min_size=1, max_size=5)
paths = st.builds(
    lambda dirs, base, ext: "/".join([*dirs, base + ext]),
    st.lists(st.sampled_from(SEGMENTS), max_size=5),
    st.sampled_from(SEGMENTS),
    st.sampled_from(sorted(LANGUAGES)),
)


@st.composite
def import_line(draw, here: str, repo_paths: list[str]) -> str:
    """A reference to a tail of some repo path in every supported syntax,
    or to an arbitrary one, which mostly resolves to nothing."""
    if draw(st.booleans()):
        parts = draw(segment_lists)
    else:
        target = draw(st.sampled_from(repo_paths)).split("/")
        parts = target[-draw(st.integers(min_value=1, max_value=len(target))) :]
    slashed = "/".join(parts)
    stem = posixpath.splitext(slashed)[0]
    dotted = stem.replace("/", ".")
    package = posixpath.dirname(slashed)
    rel = posixpath.relpath(stem or ".", posixpath.dirname(here) or ".")
    module = package.replace("/", ".")
    # Python relative form: keep `keep` of here's directories (-1 climbs
    # out of the repo) and name a Python path below them.
    here_dir = here.split("/")[:-1]
    py_paths = [p for p in repo_paths if p.endswith(".py") and p != here] or repo_paths
    target = posixpath.splitext(draw(st.sampled_from(py_paths)))[0].split("/")
    keep = draw(st.integers(min_value=-1, max_value=len(posixpath.commonprefix([here_dir, target[:-1]]))))
    dots = "." * (len(here_dir) - keep + 1)
    below = target[max(keep, 0) :]
    by_language = {
        "Python": [
            f"import {dotted}",
            f"from {module or dotted} import {posixpath.basename(stem) or '*'}",
            f"from {dots}{'.'.join(below[:-1])} import {below[-1] if below else '*'}",
            f"from {dots}{'.'.join(below)} import x",
        ],
        "C": [f'#include "{slashed}"', f"#include <other/{posixpath.basename(slashed)}>"],
        "Go": [
            f'import "{package or slashed}"',
            f'import (\n\t"/{package}/"\n\t"mod/{package or slashed}"\n)',
        ],
        "JavaScript": [
            f"import x from './{rel}';",
            f"const y = require('{stem}');",
            f"import '{posixpath.dirname(stem)}';",
        ],
        "Java": [f"import {dotted};", f"import {module}.*;"],
        "C#": [f"using {dotted};"],
    }
    by_language["TypeScript"] = by_language["JavaScript"]
    by_language["C++"] = by_language["C"]
    return draw(st.sampled_from(by_language.get(LANGUAGES[here[here.rindex(".") :]], ["x"])))


@st.composite
def repos(draw) -> list[SourceFile]:
    repo_paths = draw(st.lists(paths, min_size=1, max_size=25, unique=True))
    files = []
    for p in repo_paths:
        lines = draw(st.lists(import_line(p, repo_paths), max_size=6))
        content = "\n".join(lines) + "\n"
        files.append(SourceFile("r", p, LANGUAGES[p[p.rindex(".") :]], content, len(content)))
    return files


def _repo(contents: dict[str, str]) -> list[SourceFile]:
    return [SourceFile("r", p, LANGUAGES[p[p.rindex(".") :]], text, len(text)) for p, text in contents.items()]


@settings(max_examples=200, deadline=None)
@given(repos())
# A dotted JS/TS name and a Java wildcard, which random repos seldom pair
# with a file they name.
@example(_repo({"src/app.ts": "import u from './user.service';\nimport d from 'lib/db.v2';\n",
                "src/user.service.ts": "", "lib/db.v2/index.js": "", "x/lib/db.v2.ts": ""}))
@example(_repo({"app/Main.java": "import com.x.*;\nimport static com.x.Util.*;\n",
                "com/x/Util.java": "", "com/x/Foo.java": "", "com/x/sub/Bar.java": ""}))
def test_dependency_order_matches_brute_force(files):
    repo_paths = {f.path for f in files}
    for f in files:
        assert extract_dependencies(f, repo_paths) == oracles.extract_dependencies(f, repo_paths)
    ordered, edges = order_repo_files(files)
    want_ordered, want_edges = oracles.order_repo_files(files)
    assert edges == want_edges
    assert [f.path for f in ordered] == [f.path for f in want_ordered]


def test_go_directory_match_in_both_directions():
    paths = [
        "cmd/main.go",
        "internal/db/conn.go",
        "db/x.go",
        "x/internal/db/y.go",
        "vendor/mod/internal/db/z.go",
        "db/x.py",
    ]
    f = SourceFile("r", "cmd/main.go", "Go", 'import "mod/internal/db"\n', 0)
    got = extract_dependencies(f, paths)
    assert got == oracles.extract_dependencies(f, paths)
    # The import path ends with the first two directories; the third ends
    # with the import path.
    assert got == ["db/x.go", "internal/db/conn.go", "vendor/mod/internal/db/z.go"]


@st.composite
def graphs(draw):
    n = draw(st.integers(min_value=1, max_value=30))
    nodes = [f"n{i}" for i in draw(st.permutations(range(n)))]
    pairs = st.tuples(st.sampled_from(nodes), st.sampled_from(nodes))
    return nodes, draw(st.lists(pairs, max_size=3 * n))


@settings(max_examples=300, deadline=None)
@given(graphs())
def test_topological_sort_matches_min_scan(graph):
    # Self-loops, cycles and repeated pairs included: both must give the
    # same selections.
    assert topological_sort(*graph) == oracles.topological_sort(*graph)


@st.composite
def node_pairs(draw) -> tuple[int, list[tuple[int, int]]]:
    # Small node counts make self pairs, duplicates and both orders of a
    # pair likely; large ones leave most nodes isolated.
    n = draw(st.integers(min_value=0, max_value=40))
    if n == 0:
        return 0, []
    node = st.integers(min_value=0, max_value=n - 1)
    return n, draw(st.lists(st.tuples(node, node), max_size=2 * n))


@settings(max_examples=500, deadline=None)
@given(node_pairs(), st.lists(st.booleans(), max_size=80))
@example((0, []), [])
@example((3, []), [])
@example((3, [(1, 1)]), [True])
@example((4, [(3, 0), (0, 3), (3, 0), (2, 2), (1, 3)]), [False, True, False, True, True])
@example((5, [(4, 2), (2, 0), (3, 1)]), [True, True, True])
def test_connected_components_match_depth_first_search(case, accept):
    # `joins` accepts the pairs that `accept` marks, and is never asked
    # of a pair whose ends the pairs it accepted so far connect.
    n, pairs = case
    assert connected_components(n, pairs) == oracles.connected_components(n, pairs)
    accepted = set(itertools.compress(pairs, accept))
    joined: list[tuple[int, int]] = []

    def joins(x: int, y: int) -> bool:
        assert not any(x in c and y in c for c in oracles.connected_components(n, joined)), (x, y)
        if (x, y) in accepted:
            joined.append((x, y))
        return (x, y) in accepted

    kept = [pair for pair in pairs if pair in accepted]
    assert connected_components(n, pairs, joins) == oracles.connected_components(n, kept)


@st.composite
def planted_signatures(draw):
    """find_near_duplicates' arguments: signatures drawn from a few
    roots, each with a few slots redrawn, over a 4-value alphabet, and
    few bands of few rows, so buckets collide often and many pairs fall
    either side of the threshold."""
    bands, rows = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    width = bands * rows
    value = st.integers(0, 3)
    roots = draw(st.lists(st.lists(value, min_size=width, max_size=width), min_size=1, max_size=4))
    n = draw(st.integers(1, 14))
    signatures = {}
    for name in draw(st.permutations(range(n))):
        sig = list(draw(st.sampled_from(roots)))
        for slot in draw(st.lists(st.integers(0, width - 1), max_size=width)):
            sig[slot] = draw(value)
        signatures[f"r{name:02d}"] = tuple(sig)
    char_counts = {rid: draw(st.integers(1, 3)) for rid in signatures}
    threshold = draw(st.one_of(st.sampled_from([0.25, 1 / 3, 0.5, 2 / 3, 0.75]), st.floats(0.01, 0.99)))
    return signatures, char_counts, threshold, bands, rows


@settings(max_examples=500, deadline=None, derandomize=True)
@given(planted_signatures())
def test_near_duplicates_match_comparing_every_candidate_pair(case):
    # Same clusters and representatives, and no pair compared twice.
    signatures, char_counts, threshold, bands, rows = case
    name = {id(sig): rid for rid, sig in signatures.items()}
    compared = collections.Counter()
    signature_similarity = dedup.signature_similarity

    def similarity(a, b):
        compared[name[id(a)], name[id(b)]] += 1
        return signature_similarity(a, b)

    with mock.patch.object(dedup, "signature_similarity", similarity):
        clusters = find_near_duplicates(signatures, char_counts, threshold, bands, rows)
    assert clusters == oracles.find_near_duplicates(signatures, char_counts, threshold, bands, rows)
    assert all(times == 1 for times in compared.values())


# Import fragments and whitespace, including the `\s` characters after
# which no line starts (`\r`, `\f`, `\v`, `\x85`, `\u2028`), so the
# line-start patterns meet blank-line runs and mixed breaks before their
# keywords, and Go blocks close late or never.
REF_TOKENS = [
    "import ", "from pkg ", "from . ", "import (", "#", "#include ", "include ", "using static ", "a.b;",
    "x", " as y", ", ", "(", ")", '"fmt"', "'./m'", "<a.h>", '"a/b.h"', "*", " ", "\t", "\n", "\n\n",
    "\r", "\f", "\v", "\x85", "\u2028",
]
ref_texts = st.lists(st.sampled_from(REF_TOKENS), max_size=40).map("".join)


@settings(max_examples=1000, deadline=None)
@given(ref_texts)
def test_line_start_patterns_match_cross_line_forms(text):
    for name, old in oracles.LINE_START_PATTERNS.items():
        new = getattr(deps, name)
        assert [(m.end(), m.groups()) for m in new.finditer(text)] == [
            (m.end(), m.groups()) for m in old.finditer(text)
        ], name
    assert deps._go_refs(text) == oracles.go_refs(text)


# JS/TS import blocks: default, namespace, type and multi-line brace
# imports, re-exports, side-effect imports, dynamic imports and requires,
# statements commented out, and `import`/`export` lines that never reach
# a `from`, with names that contain the keywords.
JS_SPECIFIERS = ["./a", "../lib/b", "pkg", "@scope/pkg/sub", "./style.css", "./from"]
JS_NAMES = ["a", "b as c", "importX", "exported", "fromage", "type T", "default as d"]


@st.composite
def js_statements(draw) -> str:
    q = draw(st.sampled_from(["'", '"']))
    spec = q + draw(st.sampled_from(JS_SPECIFIERS)) + q
    name = draw(st.sampled_from(["x", "importX", "exported", "from_"]))
    sep = draw(st.sampled_from([", ", ",\n  ", ",\n", " ,"]))
    listing = sep.join(draw(st.lists(st.sampled_from(JS_NAMES), min_size=1, max_size=4)))
    braces = draw(st.sampled_from(["{ %s }", "{\n  %s\n}", "{%s,\n}"])) % listing
    return draw(st.sampled_from([
        f"import {name} from {spec}",
        f"import {braces} from {spec}",
        f"import {name}, {braces} from {spec}",
        f"import * as ns from {spec}",
        f"import type {braces} from {spec}",
        f"export * from {spec}",
        f"export * as ns from {spec}",
        f"export {braces} from {spec}",
        f"import {spec}",
        f"// import {name} from {spec}",
        f"/* export {braces} from {spec} */",
        f"import {name}",
        f"import {braces}",
        f"export {braces}",
        f"export const {name} = from",
        f"export default {name}",
        f"const {name} = require({spec})",
        f"const m = await import({spec})",
    ]))


js_blocks = st.lists(
    st.tuples(js_statements(), st.sampled_from([";\n", "\n", ";", " ", "\n\n", "\t"])), max_size=12
).map(lambda parts: "".join(stmt + end for stmt, end in parts))
JS_TOKENS = [
    "import", "export", "from", "require", "as", " ", "\t", "\n", "'", '"', ";", "x", "{", "}", "(", ")",
    ",", "*", "./a", "importx",
]
js_soup = st.lists(st.sampled_from(JS_TOKENS), max_size=40).map("".join)


@settings(max_examples=1000, deadline=None)
@given(st.one_of(js_blocks, js_soup))
@example("import x\nimport { a,\n  exported } from './a'")
@example("import a, reimport b from 'x'; export\nfrom 'y'")
def test_js_refs_match_unbounded_pattern(text):
    assert deps._js_refs(text) == oracles.js_refs(text)


class RejectingTokenizer(ByteTokenizer):
    def encode(self, text):
        if "!" in text:
            raise ValueError("rejected")
        return super().encode(text)


def assert_same_pack(got, want):
    assert got.entries.dtype == np.uint32
    assert got.entries.shape == want.entries.shape
    assert got.entries.tolist() == want.entries.tolist()
    assert got.doc_boundaries == want.doc_boundaries
    counts = ("total_tokens", "dropped_tokens", "padded_tokens", "skipped_docs")
    assert [getattr(got, c) for c in counts] == [getattr(want, c) for c in counts]


docs = st.lists(
    st.one_of(
        st.text(alphabet="ab!é\n", max_size=40),
        st.sampled_from(SentinelSet().as_tuple()),
        st.integers(min_value=0, max_value=400).map(lambda n: "x" * n),
    ),
    max_size=12,
)


@settings(max_examples=300, deadline=None)
@given(docs, st.integers(min_value=2, max_value=40), st.booleans())
def test_pack_entries_matches_slice_and_copy(texts, entry_len, pad_final):
    tok = RejectingTokenizer()
    assert_same_pack(pack_entries(texts, tok, entry_len, pad_final),
                     oracles.pack_entries(texts, tok, entry_len, pad_final))


@settings(max_examples=300, deadline=None)
@given(docs, st.integers(min_value=2, max_value=40), st.booleans())
def test_chained_pack_calls_match_one_pass(texts, entry_len, pad_final):
    """One call per document, each continuing from the last one's carry,
    then a call with no documents that drops or pads the unfilled row."""
    tok = RejectingTokenizer()
    calls = [pack_entries(texts[:1], tok, entry_len)]
    for text in texts[1:]:
        calls.append(pack_entries([text], tok, entry_len, carry=calls[-1].carry))
    calls.append(pack_entries([], tok, entry_len, pad_final, carry=calls[-1].carry))
    chained = PackResult(
        entries=np.concatenate([c.entries for c in calls]),
        doc_boundaries=[b for c in calls for b in c.doc_boundaries],
        total_tokens=sum(c.total_tokens for c in calls),
        dropped_tokens=calls[-1].dropped_tokens,
        padded_tokens=calls[-1].padded_tokens,
        skipped_docs=sum(c.skipped_docs for c in calls),
    )
    assert_same_pack(chained, oracles.pack_entries(texts, tok, entry_len, pad_final))


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(alphabet=string.printable), st.text()))
def test_letter_count_matches_isalpha_scan(content):
    want = oracles.letter_count(content) / len(content) if content else 0.0
    assert compute_file_stats(content).alphabetic_fraction == want


def test_pack_document_longer_than_many_entries():
    tok = ByteTokenizer()
    texts = ["", "y" * 5, "z" * 10_003, "", "w" * 3]
    for pad_final in (False, True):
        got = pack_entries(texts, tok, 7, pad_final)
        assert_same_pack(got, oracles.pack_entries(texts, tok, 7, pad_final))
        assert len(got.entries) >= 1430


words = st.text(alphabet="abc xyz_.é名\n", max_size=200)


@settings(max_examples=300, deadline=None)
@given(words, st.integers(min_value=1, max_value=8))
def test_zipped_shingles_match_slices(text, width):
    # Includes texts of fewer tokens than one shingle, and of none.
    got = shingle_set(text, width)
    assert got.dtype == np.uint64
    assert got.tolist() == sorted(oracles.shingle_hashes(text, width))


@settings(max_examples=300, deadline=None)
@given(
    words,
    st.integers(min_value=1, max_value=6),
    st.sampled_from([16, 24, 128]),
    st.integers(min_value=-(2**70), max_value=2**70),
)
@example("", 5, 128, 1)
@example("...", 1, 16, 0)
@example("only three tokens", 5, 128, 1)
def test_one_permutation_minhash_matches_python_ints(text, width, num_perm, seed):
    # Short texts leave most bins empty, so densification runs.
    got = minhash_signature(text or "x", num_perm=num_perm, shingle_width=width, seed=seed)
    assert got == oracles.one_permutation_values(text or "x", num_perm, width, seed)


def test_one_permutation_minhash_over_many_shingles():
    text = " ".join(f"w{i % 3000}" for i in range(10_000))
    got = minhash_signature(text, num_perm=128, shingle_width=5, seed=1)
    assert got == oracles.one_permutation_values(text, 128, 5, 1)


# Common code tokens, a non-ASCII pair and a few rare ones: entries share
# first tokens, prefix one another and overlap in the scanned text.
SCAN_TOKENS = ["def", "return", "self", "=", "(x):", "für", "名前", "q1", "q2", "q3"]
SPACES = [" ", "  ", "\t", "\n", "\u3000"]
scan_tokens = st.sampled_from(SCAN_TOKENS)


@st.composite
def benchmark_rows(draw) -> list[tuple[str, str]]:
    rows = []
    for tokens in draw(st.lists(st.lists(scan_tokens, max_size=14), min_size=1, max_size=8)):
        sep = draw(st.sampled_from(SPACES))
        rows.append((sep.join(tokens), draw(st.sampled_from(["b1", "b2", "b3"]))))
    return rows


@st.composite
def scanned_texts(draw, rows: list[tuple[str, str]]) -> str:
    """Random tokens interleaved with benchmark strings, whole or sliced."""
    pieces = []
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        if draw(st.booleans()):
            tokens = draw(st.sampled_from(rows))[0].split()
            lo = draw(st.sampled_from([0, 0, 1, len(tokens) // 2]))
            hi = draw(st.sampled_from([len(tokens), len(tokens), len(tokens) - 1]))
            pieces.extend(tokens[lo:hi])
        else:
            pieces.extend(draw(st.lists(scan_tokens, max_size=6)))
    return "".join(tok + draw(st.sampled_from(SPACES)) for tok in pieces)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_scan_matches_every_position_scan(data):
    rows = data.draw(benchmark_rows())
    index = build_contamination_index(rows)
    text = data.draw(scanned_texts(rows))
    assert scan_text(text, index) == oracles.scan_text(text, index)


def test_scan_named_cases_match_every_position_scan():
    ten = " ".join(f"t{i}" for i in range(12))
    shared_gram = " ".join(f"g{i}" for i in range(10))
    cases = {
        "shared first tokens": (
            [("def f x", "b1"), ("def g y z", "b2"), ("def f x y z w v u t s r", "b3")],
            "def g y z def f x y z w v u t s r def f x",
        ),
        "exact entry prefix of another": (
            [("def f x", "b1"), ("def f x y", "b2")], "a def f x y b def f x",
        ),
        "overlapping and repeated": (
            [("a a a", "b1"), ("a a a a", "b2")], "a a a a a a a",
        ),
        "mixed exact lengths": (
            [(" ".join(["w"] * n), f"b{n}") for n in range(3, 10)], " ".join(["w"] * 12),
        ),
        "gram from two benchmarks": ([(shared_gram, "first"), (shared_gram, "second")], shared_gram),
        "empty text": ([(ten, "b1"), ("p q r", "b2")], ""),
        "short text, grams only": ([(ten, "b1")], "t0 t1 t2 t3 t4 t5 t6 t7 t8"),
        "non-ASCII": ([("für 名前 ist", "b1"), ("ü " * 11, "b2")], "x für 名前 ist y " + "ü " * 10),
        "common code first tokens": (
            [("return self", "short"), ("return self . x", "b1"), ("def __init__ ( self ) :", "b2"),
             ("= = = = = = = = = = =", "b3"), ("return return return", "b4")],
            "def __init__ ( self ) : return self . x = = = = = = = = = = return return return",
        ),
    }
    for name, (rows, text) in cases.items():
        index = build_contamination_index(rows)
        assert scan_text(text, index) == oracles.scan_text(text, index), name
    index = build_contamination_index(cases["gram from two benchmarks"][0])
    assert scan_text(shared_gram, index) == ContaminationReport((shared_gram,), ("first",))
    index = build_contamination_index(cases["short text, grams only"][0])
    assert len(index.source_labels) == 3 and not index.exact_lengths
    assert not scan_text(cases["short text, grams only"][1], index).hit
    index = build_contamination_index(cases["overlapping and repeated"][0])
    assert scan_text("a a a a a a a", index).matched_entries == ("a a a", "a a a a")
    index = build_contamination_index(cases["mixed exact lengths"][0])
    report = scan_text(" ".join(["w"] * 12), index)
    assert [len(m.split()) for m in report.matched_entries] == list(range(3, 10))


# Pieces that stress the cuts between slices: a CRLF pair, which a cut
# after "\r" would split, a final sigma and a dotted capital I, whose
# lowercase depends on context or grows, other line and word
# separators, comment starts, a token longer than one slice and the
# sentinel literals. The Kelvin sign lowers to ASCII "k", and the
# ASCII punctuation, digit and control pieces meet the shingler's
# regex-free split of slices that are ASCII once lowered.
SLICE_PIECES = [
    "a", "Σ", "İ", "ß", "x_1", "名前", "\r\n", "\r", "\n", " ", "\t", "\u3000", "\x1c", "\u2028",
    "# c", "//", "y" * 30, *SentinelSet().as_tuple(),
    "\u212a", "\x0b", "\x0c", "\x7f", "-", ".", "(", "9",
]
sliced_texts = st.lists(st.sampled_from(SLICE_PIECES), max_size=40).map("".join)
slice_sizes = st.integers(min_value=1, max_value=12)


@settings(max_examples=300, deadline=None)
@given(sliced_texts, st.booleans(), slice_sizes)
def test_text_slices_cut_after_whitespace(text, lines, size):
    with mock.patch.object(filters, "SLICE_CHARS", size):
        parts = list(text_slices(text, lines))
    assert "".join(parts) == text
    assert all(part[-1] == "\n" if lines else part[-1].isspace() for part in parts[:-1])


@settings(max_examples=500, deadline=None)
@given(sliced_texts, st.integers(min_value=1, max_value=6), slice_sizes)
@example("", 5, 1)
@example(" \r\n\t\u3000 ", 5, 1)
@example("ΑΣ İΣ\r\nσΣ", 2, 2)
@example("only three tokens", 5, 3)
def test_sliced_shingles_match_whole_text(text, width, size):
    with mock.patch.object(filters, "SLICE_CHARS", size):
        got = shingle_set(text, width)
    assert got.tolist() == oracles.whole_text_shingle_set(text, width).tolist()


@settings(max_examples=500, deadline=None)
@given(
    sliced_texts,
    slice_sizes,
    st.sampled_from([0.05, 0.2, 0.5]),
    st.integers(min_value=0, max_value=8),
    st.sampled_from([0.0, 0.5, 0.9]),
)
@example("", 1, 0.5, 0, 0.0)
@example("\r\n\r\n  ", 1, 0.5, 0, 0.0)
@example("yyyy\r\nyyyy # c\n", 2, 0.5, 3, 0.0)
# Tokens of length 2 cover 6 of 8 characters, but no one token passes 4.
@example("ab cd ef", 12, 0.5, 8, 0.9)
# The one long code line is in the last slice; 1 of 3 code lines is long.
@example("x\ny\nab cd ef\n", 2, 0.5, 3, 0.5)
# The long line is a comment, so no code line is long.
@example("# ab cd ef\nx\n", 12, 0.5, 3, 0.0)
def test_sliced_quality_heuristics_match_whole_text(text, size, repeated, long_chars, long_fraction):
    thresholds = FilterThresholds(
        max_repeated_token_fraction=repeated, long_line_chars=long_chars, max_long_line_fraction=long_fraction
    )
    with mock.patch.object(filters, "SLICE_CHARS", size):
        got = apply_quality_heuristics(text, thresholds)
    assert got == oracles.whole_text_quality_heuristics(text, thresholds)


@settings(max_examples=500, deadline=None)
@given(st.data(), slice_sizes)
def test_sliced_scan_matches_whole_text(data, size):
    rows = data.draw(benchmark_rows())
    index = build_contamination_index(rows)
    text = data.draw(st.one_of(scanned_texts(rows), sliced_texts))
    with mock.patch.object(filters, "SLICE_CHARS", size):
        got = scan_text(text, index)
    assert got == oracles.whole_text_scan(text, index)


# The default literals, and literals that hold whitespace and overlap,
# which a cut after whitespace alone could split.
SENTINEL_SETS = [SentinelSet(), SentinelSet("<s>", "<s><s>", "s s", " <")]
sentinel_texts = st.lists(
    st.one_of(
        st.text(alphabet="ab é\n<s>", max_size=6),
        st.sampled_from([*SentinelSet().as_tuple(), *SENTINEL_SETS[1].as_tuple()]),
    ),
    max_size=8,
).map("".join)


@settings(max_examples=500, deadline=None)
@given(
    st.lists(sentinel_texts, max_size=6),
    st.sampled_from(SENTINEL_SETS),
    st.integers(min_value=2, max_value=24),
    st.booleans(),
    slice_sizes,
)
def test_packing_each_document_slice_by_slice_matches_one_pass(texts, sentinels, entry_len, pad_final, size):
    """The build stage's calls: each slice of a document after the carry,
    all but the first `continued`, then a call that drops or pads."""
    tok = ByteTokenizer(sentinels)
    calls = []
    carry = ((), ())
    with mock.patch.object(packing, "ENCODE_SLICE", size):
        for text in texts:
            pieces = list(tok.slices(text))
            assert "".join(pieces) == text
            for k, piece in enumerate(pieces):
                calls.append(pack_entries([piece], tok, entry_len, carry=carry, continued=k > 0))
                carry = calls[-1].carry
    calls.append(pack_entries([], tok, entry_len, pad_final, carry=carry))
    chained = PackResult(
        entries=np.concatenate([c.entries for c in calls]),
        doc_boundaries=[b for c in calls for b in c.doc_boundaries],
        total_tokens=sum(c.total_tokens for c in calls),
        dropped_tokens=calls[-1].dropped_tokens,
        padded_tokens=calls[-1].padded_tokens,
        skipped_docs=sum(c.skipped_docs for c in calls),
    )
    assert_same_pack(chained, oracles.pack_entries(texts, tok, entry_len, pad_final))


def reference_build(texts: list[str], cfg: PipelineConfig) -> tuple[dict[str, tuple[bytes, int]], dict]:
    """Build's entries/ files, each as (bytes, rows) in the order opened,
    and its manifest fields: every text through `fim_transform`, the kept
    documents through one oracle pack, its rows cut into shards of
    entries_per_shard, and one empty shard when there are no rows."""
    build = cfg.build
    sentinels = build.sentinel_set()
    fim_cfg = FimConfig(fim_rate=build.fim_rate, mode=build.fim_mode, seed=cfg.seed)
    docs = [fim_transform(text, i, fim_cfg, sentinels) for i, text in enumerate(texts)]
    kept = [doc for doc in docs if doc is not None]
    packed = oracles.pack_entries(kept, ByteTokenizer(sentinels), build.entry_len, build.pad_final)
    rows = list(zip(packed.entries, packed.doc_boundaries))
    per = build.entries_per_shard
    files: dict[str, tuple[bytes, int]] = {}
    for n, shard in enumerate([rows[k : k + per] for k in range(0, len(rows), per)] or [[]]):
        stem = f"{pipeline.ENTRIES_DIR}/entries-{n:05d}"
        if build.output_format == "bin":
            files[stem + ".bin"] = (b"".join(row.astype("<u4").tobytes() for row, _ in shard), len(shard))
            sidecar = "".join(json.dumps({"doc_boundaries": bounds}) + "\n" for _, bounds in shard)
            files[stem + ".boundaries.jsonl"] = (sidecar.encode(), len(shard))
        else:
            files[stem + ".jsonl"] = (b"".join(oracles.entry_line(*row) for row in shard), len(shard))
    collisions = len(docs) - len(kept)
    fields = {
        "output_records": len(rows),
        "total_tokens": packed.total_tokens,
        "dropped_tokens": packed.dropped_tokens,
        "padded_tokens": packed.padded_tokens,
        "fim_applied": sum(doc.startswith(sentinels.fim_start) for doc in kept),
        "counters": {"sentinel_collision": collisions} if collisions else {},
    }
    return files, fields


# Non-empty texts of 1-, 2-, 3- and 4-byte characters ("｜" is in the
# FIM literals), half of them holding a whole sentinel literal.
plain_texts = st.text(alphabet="ab é\n<|｜😀", min_size=1, max_size=30)
build_texts = st.lists(
    st.one_of(
        plain_texts,
        st.tuples(plain_texts, st.sampled_from(SentinelSet().as_tuple()), plain_texts).map("".join),
    ),
    max_size=6,
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    texts=build_texts,
    entry_len=st.integers(min_value=2, max_value=24),
    entries_per_shard=st.integers(min_value=1, max_value=4),
    pad_final=st.booleans(),
    output_format=st.sampled_from(["jsonl", "bin"]),
    fim_rate=st.sampled_from([0.0, 0.5, 1.0]),
    size=st.integers(min_value=1, max_value=8),
)
@example(texts=[], entry_len=4, entries_per_shard=2, pad_final=True, output_format="bin", fim_rate=0.5, size=4)
# "abcd" and "efgh" with eos are 10 ids: two entries, one full shard.
@example(texts=["abcd", "efgh"], entry_len=5, entries_per_shard=2, pad_final=False, output_format="jsonl",
         fim_rate=0.0, size=3)
@example(texts=["abcdef", "é😀"], entry_len=3, entries_per_shard=1, pad_final=True, output_format="bin",
         fim_rate=0.0, size=2)
def test_build_stage_matches_reference(texts, entry_len, entries_per_shard, pad_final, output_format, fim_rate, size):
    """The build stage, run through `_execute` on drawn records with the
    encode slice patched small, writes exactly the reference's files and
    manifest."""
    with tempfile.TemporaryDirectory() as root:
        cfg = PipelineConfig(inputs=[root], output_dir=root, seed=5)
        cfg.build.entry_len = entry_len
        cfg.build.entries_per_shard = entries_per_shard
        cfg.build.pad_final = pad_final
        cfg.build.output_format = output_format
        cfg.build.fim_rate = fim_rate
        clean = os.path.join(root, pipeline.CLEAN_OUT)
        os.makedirs(os.path.dirname(clean))
        with open(clean, "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps({"text": text}) + "\n" for text in texts)
        with mock.patch.object(packing, "ENCODE_SLICE", size):
            manifest = pipeline._execute(cfg, pipeline.STAGES[-1], "upstream", "key")
        files, fields = reference_build(texts, cfg)
        entries = os.path.join(root, pipeline.ENTRIES_DIR)
        written = {f"{pipeline.ENTRIES_DIR}/{name}" for name in os.listdir(entries)}
        assert written == set(files)
        for rel, (data, _) in files.items():
            with open(os.path.join(root, rel), "rb") as fh:
                assert fh.read() == data, rel
    assert manifest["outputs"] == [
        {"path": rel, "sha256": hashlib.sha256(data).hexdigest(), "records": n}
        for rel, (data, n) in files.items()
    ]
    assert {key: manifest[key] for key in fields} == fields
    assert manifest["input_records"] == len(texts)


@st.composite
def entry_rows(draw) -> tuple[np.ndarray, list[int]]:
    """A row of ByteTokenizer ids, drawn at its head and from a seeded
    generator after it, with an eos-padded tail, and its boundaries."""
    entry_len = draw(st.sampled_from([2, 3, 16, 4096]))
    head = draw(st.lists(st.integers(min_value=0, max_value=259), max_size=entry_len))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    ids = head + rng.integers(0, 260, entry_len - len(head)).tolist()
    pad = draw(st.integers(min_value=0, max_value=entry_len))
    ids[entry_len - pad :] = [ByteTokenizer().eos_id] * pad
    bounds = sorted(draw(st.sets(st.integers(min_value=0, max_value=entry_len - 1), max_size=6)))
    return np.array(ids, dtype=np.uint32), bounds


@settings(max_examples=300, deadline=None)
@given(entry_rows())
@example((np.array([0, 259], dtype=np.uint32), []))
@example((np.array([10, 9, 100, 255], dtype=np.uint32), [0, 1, 3]))
def test_entry_line_matches_json_dumps(row):
    line = pipeline._entry_line(ByteTokenizer().vocab_size)
    assert line(*row) == oracles.entry_line(*row)


def test_entry_line_rejects_an_id_past_the_table():
    line = pipeline._entry_line(ByteTokenizer().vocab_size)
    with pytest.raises(IndexError):
        line(np.array([0, 260], dtype=np.uint32), [0])


# Parts that PurePosixPath drops ("", "."), keeps as a name (".."),
# or splits into a suffix in ways `posixpath.splitext` does not
# ("..py", "x.", "..."); upper-case and non-ASCII names; basename hits.
PATH_PARTS = ["", ".", "..", "src", "b.py", "B.PY", "..py", "x.", "...", ".bashrc",
              "Makefile", "é.txt", "Ü.TXT", "c.tar.gz", "d.é", "ä"]
PATH_MAP = LanguageMap(
    frozenset({"Python", "Text", "Make", "Odd"}),
    {".py": "Python", ".txt": "Text", ".gz": "Odd", ".": "Odd", ".é": "Odd"},
    {"Makefile": "Make", ".bashrc": "Make", "..": "Odd", ".": "Odd", "é.txt": "Make"},
)
language_paths = st.lists(st.sampled_from(PATH_PARTS), min_size=1, max_size=5).map("/".join).filter(bool)


@settings(max_examples=500, deadline=None)
@given(language_paths, st.sampled_from([PATH_MAP, LanguageMap.load()]))
@example("a//b.py/./", PATH_MAP)
@example("a/..py", PATH_MAP)
@example("src/x.", PATH_MAP)
@example("b.py/..", PATH_MAP)
@example("/", PATH_MAP)
def test_detect_language_matches_pure_path_rules(path, lang_map):
    assert detect_language(path, lang_map) == oracles.detect_language(path, lang_map)


@pytest.mark.skipif(not (3, 10) <= sys.version_info[:2] <= (3, 12),
                    reason="the oracle's rules are those of PurePosixPath on Python 3.10-3.12")
@settings(max_examples=300, deadline=None)
@given(language_paths)
def test_pure_path_rules_match_pure_posix_path(path):
    name = oracles.pure_path_name(path)
    assert (name, oracles.pure_path_suffix(name)) == (PurePosixPath(path).name, PurePosixPath(path).suffix)


# Tokens whose counts times lengths often tie: "ab ab" and "abab" both
# cover 4 characters, as do "cc cc" and "cccc".
tied_texts = st.lists(st.sampled_from(["ab", "ba", "abab", "c", "cc", "cccc", "dd"]),
                      min_size=1, max_size=12).map(" ".join)


@settings(max_examples=500, deadline=None)
@given(tied_texts, st.sampled_from([0.0, 0.2, 0.5]))
@example("ab ab ba ba", 0.2)
@example("cccc cc cc dd dd", 0.2)
def test_token_repetition_ties_match_keyed_max(text, repeated):
    thresholds = FilterThresholds(max_repeated_token_fraction=repeated)
    assert apply_quality_heuristics(text, thresholds) == oracles.whole_text_quality_heuristics(text, thresholds)


def test_token_repetition_tie_names_the_largest_token():
    verdict = apply_quality_heuristics("ab ab ba ba", FilterThresholds(max_repeated_token_fraction=0.2))
    assert verdict == filters.FilterVerdict(filters.RULE_TOKEN_REPETITION, "token 'ba' covers 4/11 chars")
