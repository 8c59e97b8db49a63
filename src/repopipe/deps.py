"""Intra-repo dependency extraction, ordering, and concatenation.

Dependencies are invocation relationships recovered by regular
expressions only (import in Python, using in C#, include in C, ...);
references that do not resolve to a file inside the same repository are
dropped. Files are then ordered so that, wherever the graph allows, a
file's dependencies precede it, and concatenated into one sample per
repository with a path comment heading each file.
"""

from __future__ import annotations

import functools
import heapq
import posixpath
import re
from typing import Callable, Iterable, Iterator, Sequence

from .corpus import SourceFile

# Patterns anchored at a line start skip only that line's leading blanks
# (`[^\S\n]*`, not `\s*`), so a run of blank lines is read once, not
# again from every line start in it.
#
# A comma-separated name list, each name with an optional `as` alias. A
# bracketed `from` list may span lines and hold `#` comments; any other
# character ends it, so an unclosed bracket costs one scan to the next.
_PY_NAMES = r"[\w.*]+(?:[ \t]+as[ \t]+\w+)?(?:\s*,\s*[\w.*]+(?:[ \t]+as[ \t]+\w+)?)*"
_PY_IMPORT = re.compile(rf"^[^\S\n]*import\s+({_PY_NAMES})", re.MULTILINE)
_PY_FROM = re.compile(
    rf"^[^\S\n]*from\s+([\w.]+)\s+import\s+(?:\(((?:[\w.,\s]|#[^\n]*\n)*)\)|({_PY_NAMES}))", re.MULTILINE
)
_PY_COMMENT = re.compile(r"#[^\n]*")
_C_INCLUDE = re.compile(r'^[^\S\n]*#\s*include\s*[<"]([^>"]+)[>"]', re.MULTILINE)
_CSHARP_USING = re.compile(r"^[^\S\n]*using\s+(?:static\s+)?([\w.]+)\s*;", re.MULTILINE)
_JAVA_IMPORT = re.compile(r"^[^\S\n]*import\s+(?:static\s+)?([\w.]+(?:\.\*)?)\s*;", re.MULTILINE)
# An `import`/`export` run stops where the next one could start, so no
# run is read twice; a match that crossed it would be found from there.
_JS_FROM = re.compile(r"""(?:import|export)\s+(?:(?!(?:import|export)\s)[^;'"])*?from\s+['"]([^'"]+)['"]""")
_JS_BARE = re.compile(r"""(?:import|require)\s*\(\s*['"]([^'"]+)['"]\s*\)""")
_JS_SIDE_EFFECT = re.compile(r"""^[^\S\n]*import\s+['"]([^'"]+)['"]""", re.MULTILINE)
_GO_SINGLE = re.compile(r'^[^\S\n]*import\s+(?:\w+\s+)?"([^"]+)"', re.MULTILINE)
_GO_BLOCK = re.compile(r"^[^\S\n]*import\s*\(", re.MULTILINE)  # a block runs to the first `)`
_GO_IN_BLOCK = re.compile(r'"([^"]+)"')


def _python_names(listing: str) -> list[str]:
    """The names of an import list, without aliases and comments."""
    items = _PY_COMMENT.sub("", listing).split(",")
    return [item.split()[0] for item in items if item.strip()]


def _python_refs(content: str) -> list[str]:
    refs: list[str] = []
    for match in _PY_IMPORT.finditer(content):
        refs += _python_names(match.group(1))
    for match in _PY_FROM.finditer(content):
        module = match.group(1)
        refs.append(module)
        sep = "." if module.strip(".") else ""  # `from . import b` names `.b`
        for name in _python_names(match.group(3) or match.group(2)):
            if name != "*":
                refs.append(f"{module}{sep}{name}")
    return refs


def _js_refs(content: str) -> list[str]:
    refs = [m.group(1) for m in _JS_FROM.finditer(content)]
    refs += [m.group(1) for m in _JS_BARE.finditer(content)]
    refs += [m.group(1) for m in _JS_SIDE_EFFECT.finditer(content)]
    return refs


def _go_refs(content: str) -> list[str]:
    refs = [m.group(1) for m in _GO_SINGLE.finditer(content)]
    pos = 0
    while block := _GO_BLOCK.search(content, pos):
        pos = content.find(")", block.end())
        if pos < 0:  # no later block can close either
            break
        refs += _GO_IN_BLOCK.findall(content, block.end(), pos)
    return refs


def _relative_candidates(ref: str, from_path: str) -> list[str]:
    """Repo paths a relative Python module (`.b`, `..pkg.c`, `.`) may
    name from the file at `from_path`. The first dot is the file's own
    directory and each further dot climbs one level; a climb above the
    repo root names nothing. A bare run of dots names the package's
    `__init__.py`.
    """
    module = ref.lstrip(".")
    up = len(ref) - len(module) - 1
    parts = from_path.split("/")[:-1]
    if up > len(parts):
        return []
    parts = parts[: len(parts) - up]
    if not module:
        return ["/".join([*parts, "__init__.py"])]
    base = "/".join([*parts, *module.split(".")])
    return [f"{base}.py", f"{base}/__init__.py"]


def _slash_suffixes(path: str) -> Iterator[str]:
    """`path` and every tail that follows one of its `/`: exactly the
    strings c with path == c or path.endswith("/" + c)."""
    yield path
    i = path.find("/")
    while i >= 0:
        yield path[i + 1 :]
        i = path.find("/", i + 1)


class _PathIndex:
    """One repo's paths keyed for reference resolution, each list in
    sorted-path order.

    by_suffix maps every `/`-suffix of a path to the paths ending with
    it. packages[ext] maps every `/`-suffix of an `ext` file's parent
    directory to the `ext` files directly in it, for Go and Java, and
    go_by_dir maps a `.go` file's parent directory itself.
    """

    def __init__(self, repo_paths: Iterable[str]) -> None:
        self.by_suffix: dict[str, list[str]] = {}
        self.packages: dict[str, dict[str, list[str]]] = {".go": {}, ".java": {}}
        self.go_by_dir: dict[str, list[str]] = {}
        self.path_set = frozenset(repo_paths)
        for p in sorted(self.path_set):
            for tail in _slash_suffixes(p):
                self.by_suffix.setdefault(tail, []).append(p)
            parent, ext = posixpath.dirname(p), p[p.rfind(".") :]
            if ext in self.packages and parent:
                for tail in _slash_suffixes(parent):
                    self.packages[ext].setdefault(tail, []).append(p)
                if ext == ".go":
                    self.go_by_dir.setdefault(parent, []).append(p)

    def find(self, candidates: Iterable[str], exact: bool = False) -> list[str]:
        """The paths equal to each candidate in turn or, unless `exact`,
        ending in `/` + the candidate."""
        if exact:
            return [c for c in candidates if c in self.path_set]
        return [p for c in candidates for p in self.by_suffix.get(c, ())]


# Each resolver maps one reference of the file at `from_path` to the
# repo paths it names.

def _python_paths(ref: str, from_path: str, index: _PathIndex) -> list[str]:
    """Relative modules (leading dots) name exact paths, absolute ones
    match by path suffix."""
    if ref.startswith("."):
        return index.find(_relative_candidates(ref, from_path), exact=True)
    base = ref.replace(".", "/")
    return index.find([f"{base}.py", f"{base}/__init__.py"])


def _include_paths(ref: str, from_path: str, index: _PathIndex) -> list[str]:
    """By path suffix, else every file of the included basename."""
    ref = ref.strip()
    return (index.find([ref]) or index.find([posixpath.basename(ref)])) if ref else []


def _dotted_paths(ext: str, ref: str, from_path: str, index: _PathIndex) -> list[str]:
    """A C# or Java name as a path suffix. A Java wildcard `a.b.*` names
    the class `a/b.java` (for `import static`), then the `.java` files
    directly in a directory ending in `a/b` (package `a.b`)."""
    name = ref.removesuffix(".*").replace(".", "/")
    hits = index.find([name + ext])
    if ref.endswith(".*"):
        hits += index.packages[ext].get(name, [])
    return hits


_JS_EXTS = (".ts", ".tsx", ".js", ".jsx", ".mjs", ".cjs")


def _js_paths(ref: str, from_path: str, index: _PathIndex) -> list[str]:
    """Relative specifiers (`./x`, `../x`) name exact paths from the
    importing file, as Python relative imports do; bare ones match by
    path suffix. A name is completed with each extension, then as a
    directory's index file; one whose last segment has a dot
    (`./user.service`) names its own path instead where that exists."""
    relative = ref.startswith(".")
    target = posixpath.normpath(posixpath.join(posixpath.dirname(from_path), ref)) if relative else ref
    if target == ".":  # the repository root: only its index file
        return index.find(["index" + ext for ext in _JS_EXTS], exact=relative)
    found = index.find([target], exact=relative) if posixpath.splitext(target)[1] else []
    cands = [*(target + ext for ext in _JS_EXTS),
             *(posixpath.join(target, "index" + ext) for ext in _JS_EXTS)]
    return found or index.find(cands, exact=relative)


def _go_paths(ref: str, from_path: str, index: _PathIndex) -> list[str]:
    """Go import paths carry an unknown module prefix, so match the
    package directory by suffix in either direction: directories ending
    with the ref, and directories the ref ends with."""
    ref = ref.strip("/")
    if not ref:
        return []
    hits = set(index.packages[".go"].get(ref, ()))
    for tail in _slash_suffixes(ref):
        hits.update(index.go_by_dir.get(tail, ()))
    return sorted(hits)


# language: (the references in a file's content, the paths one names).
_RESOLVERS: dict[str, tuple[Callable[[str], list[str]], Callable[[str, str, _PathIndex], list[str]]]] = {
    "Python": (_python_refs, _python_paths),
    "C": (_C_INCLUDE.findall, _include_paths),
    "C++": (_C_INCLUDE.findall, _include_paths),
    "C#": (_CSHARP_USING.findall, functools.partial(_dotted_paths, ".cs")),
    "Java": (_JAVA_IMPORT.findall, functools.partial(_dotted_paths, ".java")),
    "TypeScript": (_js_refs, _js_paths),
    "JavaScript": (_js_refs, _js_paths),
    "Go": (_go_refs, _go_paths),
}
# Every other language contributes no edges and falls back to input order.
EXTRACTION_LANGUAGES = frozenset(_RESOLVERS)


def extract_dependencies(file: SourceFile, repo_paths: Iterable[str]) -> list[str]:
    """Paths inside the repo that `file` references, first-seen order,
    duplicates and self-references removed. Unsupported languages
    yield no edges. `order_repo_files` passes a `_PathIndex` of the
    repo's paths, so the index is built once per repo, not per file.
    """
    if file.language not in _RESOLVERS:
        return []
    refs, paths = _RESOLVERS[file.language]
    index = repo_paths if isinstance(repo_paths, _PathIndex) else _PathIndex(repo_paths)
    hits = (p for ref in refs(file.content) for p in paths(ref, file.path, index))
    return [p for p in dict.fromkeys(hits) if p != file.path]


def connected_components(n: int, pairs: Iterable[tuple[int, int]]) -> list[list[int]]:
    """The connected components of nodes 0..n-1 joined by `pairs`,
    ordered by smallest member, each ascending. A union-find with path
    halving whose root is always its set's smallest member, so listing
    the sets by root lists them by smallest member.
    """
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, y in pairs:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)
    members: list[list[int]] = [[] for _ in range(n)]
    for x in range(n):
        members[find(x)].append(x)
    return [group for group in members if group]


def topological_sort(paths: Sequence[str], edges: Iterable[tuple[str, str]]) -> list[list[str]]:
    """Order each disconnected subgraph of `paths` by repeatedly taking
    the unselected node of minimal current in-degree (ties broken by
    input order) and decrementing the in-degrees of its dependents.
    `edges` are (dependent, dependency) pairs, each distinct pair
    counted once: (a, b) means "a depends on b", so b -> a.

    Selecting by minimum rather than zero makes cycles harmless: the
    procedure always performs exactly one selection per node. The
    minimum comes from a heap of (in_degree, input index) with
    lazy invalidation: a node whose degree falls gets a fresh entry.
    Degrees only fall, so a node's current entry pops before its stale
    ones, which by then belong to a selected node and are skipped.
    Cost is O((V + E) log V).
    """
    index = {p: i for i, p in enumerate(paths)}
    if len(index) != len(paths):
        raise ValueError("duplicate paths in graph input")
    dependents: list[list[int]] = [[] for _ in paths]
    in_degree = [0] * len(paths)
    for a, b in dict.fromkeys(edges):
        if a not in index or b not in index:
            raise ValueError(f"edge endpoint not among files: {(a, b)!r}")
        dependents[index[b]].append(index[a])
        in_degree[index[a]] += 1
    pairs = ((b, a) for b, after in enumerate(dependents) for a in after)
    results: list[list[str]] = []
    for component in connected_components(len(paths), pairs):
        heap = [(in_degree[i], i) for i in component]
        heapq.heapify(heap)
        selected: set[int] = set()
        order: list[str] = []
        while heap:
            node = heapq.heappop(heap)[1]
            if node in selected:
                continue
            # Decrement dependents unconditionally, selected ones included;
            # already-selected nodes are never re-chosen so this is benign.
            for dependent in dependents[node]:
                in_degree[dependent] -= 1
                if dependent not in selected:
                    heapq.heappush(heap, (in_degree[dependent], dependent))
            selected.add(node)
            order.append(paths[node])
        results.append(order)
    return results


# Comment syntax used for the path header line, per language.
# Value is (prefix, suffix); suffix is empty for line comments.
_COMMENT_TOKENS: dict[str, tuple[str, str]] = {
    "Python": ("#", ""),
    "Shell": ("#", ""),
    "Ruby": ("#", ""),
    "Perl": ("#", ""),
    "R": ("#", ""),
    "RMarkdown": ("#", ""),
    "YAML": ("#", ""),
    "Makefile": ("#", ""),
    "Dockerfile": ("#", ""),
    "CMake": ("#", ""),
    "Elixir": ("#", ""),
    "Julia": ("#", ""),
    "AWK": ("#", ""),
    "TCL": ("#", ""),
    "Tcsh": ("#", ""),
    "PowerShell": ("#", ""),
    "CoffeeScript": ("#", ""),
    "Literate CoffeeScript": ("#", ""),
    "Stan": ("#", ""),
    "Maple": ("#", ""),
    "Sparql": ("#", ""),
    "Haskell": ("--", ""),
    "Literate Haskell": ("--", ""),
    "Lua": ("--", ""),
    "SQL": ("--", ""),
    "Ada": ("--", ""),
    "Elm": ("--", ""),
    "Agda": ("--", ""),
    "Literate Agda": ("--", ""),
    "Idris": ("--", ""),
    "VHDL": ("--", ""),
    "AppleScript": ("--", ""),
    "Lean": ("--", ""),
    "Clojure": (";", ""),
    "Common Lisp": (";", ""),
    "Emacs Lisp": (";", ""),
    "Scheme": (";", ""),
    "Racket": (";", ""),
    "Assembly": (";", ""),
    "Erlang": ("%", ""),
    "Prolog": ("%", ""),
    "Tex": ("%", ""),
    "MATLAB": ("%", ""),
    "Visual Basic": ("'", ""),
    "Batchfile": ("REM", ""),
    "Fortran": ("!", ""),
    "HTML": ("<!--", " -->"),
    "XSLT": ("<!--", " -->"),
    "CSS": ("/*", " */"),
    "SAS": ("/*", " */"),
    "OCaml": ("(*", " *)"),
    "Standard ML": ("(*", " *)"),
    "Pascal": ("(*", " *)"),
    "Isabelle": ("(*", " *)"),
    "Mathematica": ("(*", " *)"),
    "Augeas": ("(*", " *)"),
    "Smalltalk": ('"', ' "'),
    "Java Server Pages": ("<%--", " --%>"),
}
_FALLBACK_COMMENT = ("//", "")


def path_comment(path: str, language: str | None) -> str:
    prefix, suffix = _COMMENT_TOKENS.get(language or "", _FALLBACK_COMMENT)
    return f"{prefix} {path}{suffix}"


def concatenate_with_paths(ordered_files: Sequence[SourceFile]) -> str:
    """Concatenate files in the given order; each file contributes a
    path-comment line, its content, and a blank-line separator.
    Byte-for-byte deterministic.
    """
    return "".join(f"{path_comment(f.path, f.language)}\n{f.content}\n\n" for f in ordered_files)


def order_repo_files(files: Sequence[SourceFile]) -> tuple[list[SourceFile], list[tuple[str, str]]]:
    """Full ordering pass for one repository: extract references, sort,
    and return files in emission order plus the edge list (dependent,
    dependency) for optional dumping.
    """
    paths = [f.path for f in files]
    by_path = {f.path: f for f in files}
    index = _PathIndex(paths)
    edges: list[tuple[str, str]] = []
    for f in files:
        for dep in extract_dependencies(f, index):
            edges.append((f.path, dep))
    ordered: list[SourceFile] = []
    for subgraph in topological_sort(paths, edges):
        ordered.extend(by_path[p] for p in subgraph)
    return ordered, edges
