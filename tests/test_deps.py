from __future__ import annotations

import itertools
import random
from dataclasses import asdict

import pytest

from repopipe.corpus import LanguageMap, SourceFile, detect_language
from repopipe.deps import (
    _COMMENT_TOKENS,
    concatenate_with_paths,
    extract_dependencies,
    order_repo_files,
    path_comment,
    topological_sort,
)
from repopipe.pipeline import _order_repo_worker


LANG_MAP = LanguageMap.load()


def sf(path: str, content: str, repo_id: str = "r") -> SourceFile:
    return SourceFile(repo_id, path, detect_language(path, LANG_MAP), content, len(content.encode("utf-8")))


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

    def test_python_relative_imports(self):
        f = sf("pkg/a.py", "from . import b\nfrom .b import y\n")
        assert extract_dependencies(f, {"pkg/a.py", "pkg/b.py"}) == ["pkg/b.py"]
        files = [f, sf("pkg/b.py", "y = 1\n")]
        ordered, edges = order_repo_files(files)
        assert edges == [("pkg/a.py", "pkg/b.py")]
        assert [g.path for g in ordered] == ["pkg/b.py", "pkg/a.py"]

    def test_python_relative_import_forms(self):
        paths = {
            "__init__.py", "top.py", "pkg/__init__.py", "pkg/a.py", "pkg/b.py",
            "pkg/sub/__init__.py", "pkg/sub/c.py", "pkg/sub/d/__init__.py", "other/pkg/b.py",
        }
        cases = {
            "from . import b": ["pkg/__init__.py", "pkg/b.py"],
            "from .b import y": ["pkg/b.py"],
            "from .sub import c, d": ["pkg/sub/__init__.py", "pkg/sub/c.py", "pkg/sub/d/__init__.py"],
            "from .sub.c import z": ["pkg/sub/c.py"],
            "from .. import top": ["__init__.py", "top.py"],
            "from ..pkg import b": ["pkg/__init__.py", "pkg/b.py"],
            "from ... import top": [],  # climbs above the repo root
            "from .missing import b": [],  # exact paths only, never a suffix match
        }
        for line, want in cases.items():
            assert extract_dependencies(sf("pkg/a.py", line + "\n"), paths) == want, line

    def test_python_relative_import_at_repo_root(self):
        f = sf("a.py", "from . import b\nfrom .. import c\n")
        assert extract_dependencies(f, {"a.py", "b.py", "c.py", "x/c.py"}) == ["b.py"]

    def test_python_parenthesised_and_aliased_imports(self):
        paths = {"main.py", "pkg/__init__.py", "pkg/a.py", "pkg/b.py", "c.py", "d.py"}
        pkg_ab = ["pkg/__init__.py", "pkg/a.py", "pkg/b.py"]
        cases = {
            "from pkg import (a, b)": pkg_ab,
            "from pkg import (\n    a,\n    b,\n)": pkg_ab,
            "from pkg import (  # the two halves (see docs)\n    a as x,  # first\n    b,\n)": pkg_ab,
            "from pkg import a as x, b": pkg_ab,
            "from pkg import (a as x, b as y)": pkg_ab,
            "import c as x, d": ["c.py", "d.py"],
            "import pkg.a as pa, c": ["c.py", "pkg/a.py"],
            "from pkg import ()": ["pkg/__init__.py"],
        }
        for text, want in cases.items():
            assert sorted(extract_dependencies(sf("main.py", text + "\n"), paths)) == want, text

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 6: imports are matched line by line, by regex")
    @pytest.mark.parametrize("text,want", [
        ("import c, \\\n    d", ["c.py", "d.py"]),
        ("import c; import d", ["c.py", "d.py"]),
        ("x = '''\nimport d\n'''", []),
    ])
    def test_python_import_forms_the_regex_misreads(self, text, want):
        paths = {"main.py", "c.py", "d.py"}
        assert sorted(extract_dependencies(sf("main.py", text + "\n"), paths)) == want

    def test_python_parenthesised_relative_import(self):
        paths = {"pkg/__init__.py", "pkg/a.py", "pkg/b.py"}
        f = sf("pkg/a.py", "from . import (b)\n")
        assert extract_dependencies(f, paths) == ["pkg/__init__.py", "pkg/b.py"]

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

    def test_java_wildcard_import_names_the_package_files(self):
        f = sf("app/Main.java", "import com.x.*;\n")
        paths = {"app/Main.java", "com/x/Foo.java", "com/x/Bar.java", "com/x/sub/Deep.java", "com/x/notes.md"}
        assert extract_dependencies(f, paths) == ["com/x/Bar.java", "com/x/Foo.java"]
        # the package directory matches by suffix, wherever the source root is
        nested = {"app/Main.java", "src/main/java/com/x/Foo.java", "src/main/java/xcom/x/No.java"}
        assert extract_dependencies(f, nested) == ["src/main/java/com/x/Foo.java"]

    def test_java_static_wildcard_import_names_the_class(self):
        f = sf("Main.java", "import static com.x.Util.*;\n")
        assert extract_dependencies(f, {"Main.java", "com/x/Util.java"}) == ["com/x/Util.java"]

    def test_js_dotted_module_name_is_completed(self):
        f = sf("src/app.ts", "import { U } from './user.service';\n")
        assert extract_dependencies(f, {"src/app.ts", "src/user.service.ts"}) == ["src/user.service.ts"]
        index = sf("src/app.ts", "import m from './models.v2';\n")
        paths = {"src/app.ts", "src/models.v2/index.ts"}
        assert extract_dependencies(index, paths) == ["src/models.v2/index.ts"]
        bare = sf("app.js", "import u from 'lib/user.service';\n")
        assert extract_dependencies(bare, {"app.js", "x/lib/user.service.js"}) == ["x/lib/user.service.js"]
        # a file with exactly the named path is the one dependency
        exact = sf("src/app.js", "import d from './data.json';\n")
        paths = {"src/app.js", "src/data.json", "src/data.json.js"}
        assert extract_dependencies(exact, paths) == ["src/data.json"]

    def test_js_relative_import(self):
        f = sf("src/app.ts", "import { x } from './lib/helpers';\n")
        assert extract_dependencies(f, {"src/app.ts", "src/lib/helpers.ts"}) == [
            "src/lib/helpers.ts"
        ]

    def test_js_require(self):
        f = sf("index.js", "const h = require('./helper');\n")
        assert extract_dependencies(f, {"index.js", "helper.js"}) == ["helper.js"]

    def test_js_relative_specifier_names_one_exact_path(self):
        # A relative specifier names one path from the importing file; a
        # file of the same name elsewhere in the repo is not a dependency.
        root = sf("index.js", "import c from './config';\n")
        assert extract_dependencies(root, {"index.js", "config.js", "lib/config.js"}) == ["config.js"]
        nested = sf("src/main.js", "import { u } from './util';\n")
        paths = {"src/main.js", "src/util.js", "vendor/src/util.js"}
        assert extract_dependencies(nested, paths) == ["src/util.js"]
        up = sf("src/app/main.ts", "export * from '../util';\n")
        assert extract_dependencies(up, {"src/app/main.ts", "src/util.ts", "x/src/util.ts"}) == ["src/util.ts"]

    def test_js_relative_specifier_naming_repo_root(self):
        # '.', './' and, one directory down, '..' name the repository
        # root, whose index file is `index.js`, not `./index.js`.
        paths = {"main.js", "index.js", "src/main.js", "src/index.js"}
        for ref in (".", "./"):
            f = sf("main.js", f"import x from '{ref}';\n")
            assert extract_dependencies(f, paths) == ["index.js"], ref
        up = sf("src/main.js", "import x from '..';\n")
        assert extract_dependencies(up, paths) == ["index.js"]
        here = sf("src/main.js", "import x from '.';\n")
        assert extract_dependencies(here, paths) == ["src/index.js"]

    def test_js_bare_specifier_matches_by_suffix(self):
        f = sf("app.js", "import u from 'src/util';\n")
        assert extract_dependencies(f, {"app.js", "src/util.js", "vendor/src/util.js"}) == [
            "src/util.js", "vendor/src/util.js",
        ]

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
    """The graph topological_sort builds from (paths, edges): each
    distinct (dependent, dependency) pair is one edge dependency ->
    dependent and bumps the dependent's in-degree once."""

    def test_two_files_one_edge(self):
        # The edge joins A and B, not C; B has in-degree 0 and A 1, so B
        # goes first despite input order.
        assert topological_sort(["A", "B", "C"], [("A", "B")]) == [["B", "A"], ["C"]]

    def test_singleton(self):
        assert topological_sort(["A"], []) == [["A"]]

    def test_three_files_three_edges(self):
        # In-degrees A=2, B=1, C=0: C, then B, then A.
        assert topological_sort(["A", "B", "C"], [("A", "B"), ("B", "C"), ("A", "C")]) == [["C", "B", "A"]]

    def test_duplicate_pair_counted_once(self):
        # A and B each have in-degree 1, so the tie goes to A by input
        # order; counted twice, A's in-degree 2 would put B first.
        assert topological_sort(["A", "B"], [("A", "B"), ("A", "B"), ("B", "A")]) == [["A", "B"]]

    def test_duplicate_pair_decremented_once(self):
        # Selecting X leaves B and A at in-degree 1 each, so B goes next
        # by input order; decremented twice for the repeated (A, X), A
        # would drop to 0 and go first.
        edges = [("B", "A"), ("B", "X"), ("A", "X"), ("A", "X"), ("A", "B")]
        assert topological_sort(["X", "B", "A"], edges) == [["X", "B", "A"]]

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(ValueError, match="endpoint"):
            topological_sort(["A"], [("A", "B")])

    def test_duplicate_path_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            topological_sort(["A", "A"], [])

    def test_in_degree_counts_incoming_edges(self):
        # Each subgraph starts at its member with the fewest distinct
        # dependencies, ties broken by input order.
        rng = random.Random(5)
        nodes = [f"n{i}" for i in range(8)]
        edges = list({(rng.choice(nodes), rng.choice(nodes)) for _ in range(20)})
        edges = [(a, b) for a, b in edges if a != b]
        for sub in topological_sort(nodes, edges + edges[:5]):
            first = min(sub, key=lambda n: (sum(1 for a, _ in edges if a == n), nodes.index(n)))
            assert sub[0] == first


class TestTopologicalSort:
    def test_dependency_first(self):
        assert topological_sort(["A", "B"], [("A", "B")]) == [["B", "A"]]

    def test_isolated_files_are_separate_subgraphs(self):
        assert topological_sort(["A", "B"], []) == [["A"], ["B"]]

    def test_two_cycle(self):
        assert topological_sort(["A", "B"], [("A", "B"), ("B", "A")]) == [["A", "B"]]

    def test_subgraphs_ordered_by_first_input_index(self):
        assert topological_sort(["X", "M", "Y"], [("Y", "X")]) == [["X", "Y"], ["M"]]

    def test_deterministic(self):
        g = (["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
        assert topological_sort(*g) == topological_sort(*g)

    def test_exhaustive_small_dags(self):
        # Every DAG shape on <= 4 nodes under every input ordering.
        for n in range(1, 5):
            pairs = list(itertools.combinations(range(n), 2))
            for mask in range(1 << len(pairs)):
                edges_idx = [pairs[k] for k in range(len(pairs)) if mask >> k & 1]
                for perm in itertools.permutations(range(n)):
                    names = [f"f{p}" for p in perm]
                    edges = [(f"f{j}", f"f{i}") for i, j in edges_idx]
                    order = flat_order(topological_sort(names, edges))
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
            order = flat_order(topological_sort(nodes, sorted(edges)))
            assert sorted(order) == sorted(nodes)

    def test_subgraphs_partition_nodes(self):
        subs = topological_sort(
            ["a", "b", "c", "d", "e"], [("a", "b"), ("c", "d")]
        )
        seen = [node for sub in subs for node in sub]
        assert sorted(seen) == ["a", "b", "c", "d", "e"]
        assert len(set(seen)) == len(seen)


class TestConcatenate:
    def test_single_python_file(self):
        assert concatenate_with_paths([sf("a.py", "x=1")]) == "# a.py\nx=1\n\n"

    def test_path_comments_in_given_order(self):
        files = [sf("b.py", "b=2"), sf("a.py", "a=1")]
        out = concatenate_with_paths(files)
        assert out.index("# b.py") < out.index("# a.py")
        # The order stage's record of that sample (ordering off keeps
        # the given order) lists the same paths and counts its chars.
        record, _ = _order_repo_worker(("r", [asdict(f) for f in files]), False)
        assert record["text"] == out
        assert record["ordered_paths"] == ["b.py", "a.py"]
        assert record["char_count"] == len(out)

    def test_c_comment_token(self):
        out = concatenate_with_paths([sf("main.c", "int main(){}")])
        assert out.startswith("// main.c\n")

    def test_html_comment_wrapped(self):
        assert path_comment("page.html", "HTML") == "<!-- page.html -->"

    def test_every_comment_row_names_a_bundled_language(self):
        assert sorted(set(_COMMENT_TOKENS) - LANG_MAP.languages) == []

    @pytest.mark.parametrize(
        "path, header",
        [
            ("Main.lean", "-- Main.lean"),
            ("query.rq", "# query.rq"),
            ("hosts.aug", "(* hosts.aug *)"),
            ("report.sas", "/* report.sas */"),
            ("Point.st", '" Point.st "'),
            ("index.jsp", "<%-- index.jsp --%>"),
        ],
    )
    def test_non_slash_comment_headers(self, path, header):
        assert concatenate_with_paths([sf(path, "body")]) == f"{header}\nbody\n\n"

    def test_fallback_comment_token(self):
        assert path_comment("weird.xyz", None) == "// weird.xyz"

    def test_contents_appear_exactly_once(self):
        files = [sf(f"m{i}.py", f"unique_payload_{i} = {i}\n") for i in range(5)]
        out = concatenate_with_paths(files)
        for f in files:
            assert out.count(f.content) == 1


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
