from __future__ import annotations

import itertools
import random

import pytest

from repopipe.corpus import SourceFile, detect_language
from repopipe.deps import (
    build_graph,
    concatenate_with_paths,
    extract_dependencies,
    order_repo_files,
    path_comment,
    topological_sort,
)


def sf(path: str, content: str, repo_id: str = "r") -> SourceFile:
    return SourceFile(repo_id, path, detect_language(path), content, len(content.encode("utf-8")))


def flat_order(subgraphs: list[list[str]]) -> list[str]:
    return [node for sub in subgraphs for node in sub]


def edge_violations(order: list[str], edges: list[tuple[str, str]]) -> int:
    """Brute-force oracle: edge (a, b) means a depends on b, so b must
    appear before a.
    """
    pos = {node: i for i, node in enumerate(order)}
    return sum(1 for a, b in edges if pos[b] > pos[a])


class TestExtractDependencies:
    def test_python_import_resolves_to_repo_file(self):
        f = sf("main.py", "import utils\n")
        assert extract_dependencies(f, {"main.py", "utils.py"}) == ["utils.py"]

    def test_python_dotted_import(self):
        f = sf("main.py", "import pkg.helpers\n")
        assert extract_dependencies(f, {"main.py", "pkg/helpers.py"}) == ["pkg/helpers.py"]

    def test_python_from_import(self):
        f = sf("main.py", "from pkg import tools\n")
        deps = extract_dependencies(f, {"main.py", "pkg/tools.py", "pkg/__init__.py"})
        assert set(deps) == {"pkg/tools.py", "pkg/__init__.py"}

    def test_python_external_import_dropped(self):
        f = sf("main.py", "import numpy\n")
        assert extract_dependencies(f, {"main.py"}) == []

    def test_c_include_quoted_path(self):
        f = sf("main.c", '#include "lib/foo.h"\n')
        assert extract_dependencies(f, {"main.c", "lib/foo.h"}) == ["lib/foo.h"]

    def test_c_include_basename_fallback(self):
        f = sf("src/main.c", "#include <foo.h>\n")
        assert extract_dependencies(f, {"src/main.c", "include/foo.h"}) == ["include/foo.h"]

    def test_csharp_using(self):
        f = sf("App.cs", "using Company.Widgets;\n")
        assert extract_dependencies(f, {"App.cs", "Company/Widgets.cs"}) == ["Company/Widgets.cs"]

    def test_java_import(self):
        f = sf("Main.java", "import com.acme.Tool;\n")
        assert extract_dependencies(f, {"Main.java", "com/acme/Tool.java"}) == [
            "com/acme/Tool.java"
        ]

    def test_js_relative_import(self):
        f = sf("src/app.ts", "import { x } from './lib/helpers';\n")
        assert extract_dependencies(f, {"src/app.ts", "src/lib/helpers.ts"}) == [
            "src/lib/helpers.ts"
        ]

    def test_js_require(self):
        f = sf("index.js", "const h = require('./helper');\n")
        assert extract_dependencies(f, {"index.js", "helper.js"}) == ["helper.js"]

    def test_go_import_matches_package_dir(self):
        f = sf("cmd/main.go", 'import "project/internal/db"\n')
        paths = {"cmd/main.go", "internal/db/conn.go", "internal/db/query.go"}
        assert extract_dependencies(f, paths) == ["internal/db/conn.go", "internal/db/query.go"]

    def test_unsupported_language_no_edges(self):
        f = sf("prog.hs", "import Data.List\n")
        assert extract_dependencies(f, {"prog.hs", "Data/List.hs"}) == []

    def test_self_reference_excluded(self):
        f = sf("utils.py", "import utils\n")
        assert extract_dependencies(f, {"utils.py"}) == []

    def test_duplicates_removed(self):
        f = sf("main.py", "import utils\nimport utils\nfrom utils import thing\n")
        assert extract_dependencies(f, {"main.py", "utils.py"}) == ["utils.py"]


class TestBuildGraph:
    def test_two_files_one_edge(self):
        g = build_graph(["A", "B"], [("A", "B")])
        assert g.adjacency == {"A": [], "B": ["A"]}
        assert g.in_degree == {"A": 1, "B": 0}

    def test_singleton(self):
        g = build_graph(["A"], [])
        assert g.adjacency == {"A": []}
        assert g.in_degree == {"A": 0}

    def test_three_files_three_edges(self):
        g = build_graph(["A", "B", "C"], [("A", "B"), ("B", "C"), ("A", "C")])
        assert g.in_degree == {"A": 2, "B": 1, "C": 0}

    def test_duplicate_pair_counted_once(self):
        g = build_graph(["A", "B"], [("A", "B"), ("A", "B")])
        assert g.in_degree["A"] == 1
        assert g.adjacency["B"] == ["A"]

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(ValueError):
            build_graph(["A"], [("A", "B")])

    def test_in_degree_counts_incoming_edges(self):
        rng = random.Random(5)
        nodes = [f"n{i}" for i in range(8)]
        edges = list({(rng.choice(nodes), rng.choice(nodes)) for _ in range(20)})
        edges = [(a, b) for a, b in edges if a != b]
        g = build_graph(nodes, edges)
        for node in nodes:
            assert g.in_degree[node] == sum(1 for a, _ in edges if a == node)


class TestTopologicalSort:
    def test_dependency_first(self):
        g = build_graph(["A", "B"], [("A", "B")])
        assert topological_sort(g) == [["B", "A"]]

    def test_isolated_files_are_separate_subgraphs(self):
        g = build_graph(["A", "B"], [])
        assert topological_sort(g) == [["A"], ["B"]]

    def test_two_cycle(self):
        g = build_graph(["A", "B"], [("A", "B"), ("B", "A")])
        assert topological_sort(g) == [["A", "B"]]

    def test_subgraphs_ordered_by_first_input_index(self):
        g = build_graph(["X", "M", "Y"], [("Y", "X")])
        assert topological_sort(g) == [["X", "Y"], ["M"]]

    def test_deterministic(self):
        g = build_graph(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
        assert topological_sort(g) == topological_sort(g)

    def test_exhaustive_small_dags(self):
        # Every DAG shape on <= 4 nodes under every input ordering.
        for n in range(1, 5):
            pairs = list(itertools.combinations(range(n), 2))
            for mask in range(1 << len(pairs)):
                edges_idx = [pairs[k] for k in range(len(pairs)) if mask >> k & 1]
                for perm in itertools.permutations(range(n)):
                    names = [f"f{p}" for p in perm]
                    edges = [(f"f{j}", f"f{i}") for i, j in edges_idx]
                    g = build_graph(names, edges)
                    order = flat_order(topological_sort(g))
                    assert sorted(order) == sorted(names)
                    assert edge_violations(order, edges) == 0

    def test_random_cyclic_graphs_terminate_with_permutation(self):
        rng = random.Random(99)
        for _ in range(300):
            n = rng.randint(1, 10)
            nodes = [f"g{i}" for i in range(n)]
            edges = set()
            for _ in range(rng.randint(0, 3 * n)):
                a, b = rng.choice(nodes), rng.choice(nodes)
                if a != b:
                    edges.add((a, b))
            g = build_graph(nodes, sorted(edges))
            order = flat_order(topological_sort(g))
            assert sorted(order) == sorted(nodes)

    def test_subgraphs_partition_nodes(self):
        g = build_graph(
            ["a", "b", "c", "d", "e"], [("a", "b"), ("c", "d")]
        )
        subs = topological_sort(g)
        seen = [node for sub in subs for node in sub]
        assert sorted(seen) == ["a", "b", "c", "d", "e"]
        assert len(set(seen)) == len(seen)


class TestConcatenate:
    def test_single_python_file(self):
        out = concatenate_with_paths("r", [sf("a.py", "x=1")])
        assert out.text == "# a.py\nx=1\n\n"
        assert out.ordered_paths == ("a.py",)
        assert out.char_count == len(out.text)

    def test_path_comments_in_given_order(self):
        out = concatenate_with_paths("r", [sf("b.py", "b=2"), sf("a.py", "a=1")])
        assert out.text.index("# b.py") < out.text.index("# a.py")
        assert out.ordered_paths == ("b.py", "a.py")

    def test_c_comment_token(self):
        out = concatenate_with_paths("r", [sf("main.c", "int main(){}")])
        assert out.text.startswith("// main.c\n")

    def test_html_comment_wrapped(self):
        assert path_comment("page.html", "HTML") == "<!-- page.html -->"

    def test_fallback_comment_token(self):
        assert path_comment("weird.xyz", None) == "// weird.xyz"

    def test_contents_appear_exactly_once(self):
        files = [sf(f"m{i}.py", f"unique_payload_{i} = {i}\n") for i in range(5)]
        out = concatenate_with_paths("r", files)
        for f in files:
            assert out.text.count(f.content) == 1


class TestOrderRepoFiles:
    def test_import_chain_orders_dependency_first(self):
        files = [
            sf("main.py", "import util\nrun(util.x)\n"),
            sf("util.py", "x = 1\n"),
        ]
        ordered, edges = order_repo_files(files)
        assert [f.path for f in ordered] == ["util.py", "main.py"]
        assert edges == [("main.py", "util.py")]

    def test_no_dependencies_keeps_input_order(self):
        files = [sf("z.py", "z=1"), sf("a.py", "a=1")]
        ordered, edges = order_repo_files(files)
        assert [f.path for f in ordered] == ["z.py", "a.py"]
        assert edges == []
