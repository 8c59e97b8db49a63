"""Property tests: the indexed dependency resolver, heap toposort,
offset packer and chunked MinHash give exactly the results of the
brute-force oracles in `oracles.py` on generated inputs.
"""

from __future__ import annotations

import posixpath
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from repopipe import dedup
from repopipe.corpus import SourceFile
from repopipe.dedup import minhash_signature
from repopipe.deps import RepoSample, build_graph, extract_dependencies, order_repo_files, topological_sort
from repopipe.fim import DEFAULT_SENTINELS
from repopipe.packing import ByteTokenizer, pack_entries

# A small vocabulary makes collisions likely: duplicate basenames,
# directories that are suffixes of one another, refs that hit many paths.
SEGMENTS = ["a", "b", "lib", "db", "pkg", "index", "util", ""]
LANGUAGES = {
    ".py": "Python",
    ".h": "C",
    ".c": "C",
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
    by_language = {
        "Python": [f"import {dotted}", f"from {module or dotted} import {posixpath.basename(stem) or '*'}"],
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


@settings(max_examples=200, deadline=None)
@given(repos())
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
    return build_graph(nodes, draw(st.lists(pairs, max_size=3 * n)))


@settings(max_examples=300, deadline=None)
@given(graphs())
def test_topological_sort_matches_min_scan(graph):
    # Self-loops and cycles included: both must give the same selections.
    assert topological_sort(graph) == oracles.topological_sort(graph)


class RejectingTokenizer(ByteTokenizer):
    def encode(self, text):
        if "!" in text:
            raise ValueError("rejected")
        return super().encode(text)


docs = st.lists(
    st.one_of(
        st.text(alphabet="ab!é\n", max_size=40),
        st.sampled_from(DEFAULT_SENTINELS.as_tuple()),
        st.integers(min_value=0, max_value=400).map(lambda n: "x" * n),
    ),
    max_size=12,
)


@settings(max_examples=300, deadline=None)
@given(docs, st.integers(min_value=2, max_value=40), st.booleans())
def test_pack_entries_matches_slice_and_copy(texts, entry_len, pad_final):
    tok = RejectingTokenizer()
    assert pack_entries(texts, tok, entry_len, pad_final) == oracles.pack_entries(
        texts, tok, entry_len, pad_final
    )


def test_pack_document_longer_than_many_entries():
    tok = ByteTokenizer()
    texts = ["", "y" * 5, "z" * 10_003, "", "w" * 3]
    for pad_final in (False, True):
        got = pack_entries(texts, tok, 7, pad_final)
        assert got == oracles.pack_entries(texts, tok, 7, pad_final)
        assert len(got.entries) >= 1430


words = st.text(alphabet="abc xyz_.\n", max_size=200)


@settings(max_examples=200, deadline=None)
@given(words, st.sampled_from([1, 2, 3, 7, 4096]), st.integers(min_value=1, max_value=6))
def test_chunked_minhash_matches_full_table(text, chunk, width):
    sample = RepoSample("r", (), text or "x", len(text or "x"))
    with mock.patch.object(dedup, "_SIGN_CHUNK", chunk):
        got = minhash_signature(sample, num_perm=32, shingle_width=width, seed=3).values
    assert got == oracles.minhash_values(sample.text, 32, width, 3)


def test_chunked_minhash_over_several_default_chunks():
    text = " ".join(f"w{i}" for i in range(10_000))
    sample = RepoSample("r", (), text, len(text))
    got = minhash_signature(sample, num_perm=128, shingle_width=5, seed=1).values
    assert got == oracles.minhash_values(text, 128, 5, 1)
