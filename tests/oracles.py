"""Brute-force reference implementations, kept as oracles for the
indexed, heap-based, union-find, stream-based, zipped, chunked and
filtered code and the line-bounded patterns in `repopipe`.

Each is the straightforward form of its algorithm: a linear scan of
every repo path per candidate reference, the reference patterns as first
written, a depth-first search for connected components, near-duplicate
clustering that compares every pair sharing a band, a `min` over
the unselected nodes per toposort step, a packer that slices and copies
its buffer per entry, shingles joined from one list slice each, shingle
hashes and a densified one-permutation MinHash in Python ints mod 2**64,
a contamination scan that looks up a window at every token position
for every indexed length, and a letter count that asks `str.isalpha`
of every character. The full-table MinHash over blake2b digests of
the shingle strings, which `repopipe` signed with before, stays here as
the classic estimator the one-permutation form is measured against.

The whole-text forms of the sliced kernels (numpy shingle hashing, the
quality heuristics, whose top token is a `max` keyed on coverage and
then the token, and the indexed contamination scan), each holding
every token of its text at once, and the `os.walk` form of the
directory walk are kept as they were before they were rewritten.

An entry row is a `json.dumps` of its ids as Python ints, and a path's
language comes from the name and suffix `PurePosixPath` gives on
Python 3.10-3.12, written out as its rules.
"""

from __future__ import annotations

import hashlib
import json
import os
import posixpath
import re
from collections import Counter
from itertools import compress, count
from typing import Iterable, Mapping, Sequence

import numpy as np

from repopipe.corpus import LanguageMap, SourceFile
from repopipe.decontam import NGRAM_SIZE, ContaminationIndex, ContaminationReport
from repopipe.dedup import _GOLDEN, _TOKEN, DuplicateCluster
from repopipe.filters import (
    _COMMENT_LINE,
    RULE_LONG_LINES,
    RULE_TOKEN_REPETITION,
    FilterThresholds,
    FilterVerdict,
)
from repopipe.ingest import DROP_SYMLINK
from repopipe.packing import ByteTokenizer, PackResult

# The reference patterns and helpers as first written, copied rather
# than imported, so a change to their forms in `deps` is checked against
# an independent reference. From every `import` or `export` that never
# reaches a `from`, JS_FROM's lazy run goes on to the end of the file.
_PY_NAMES = r"[\w.*]+(?:[ \t]+as[ \t]+\w+)?(?:\s*,\s*[\w.*]+(?:[ \t]+as[ \t]+\w+)?)*"
_PY_COMMENT = re.compile(r"#[^\n]*")
JS_FROM = re.compile(r"""(?:import|export)\s+[^;'"]*?from\s+['"]([^'"]+)['"]""")
JS_BARE = re.compile(r"""(?:import|require)\s*\(\s*['"]([^'"]+)['"]\s*\)""")
JS_EXTS = (".ts", ".tsx", ".js", ".jsx", ".mjs", ".cjs")
GO_IN_BLOCK = re.compile(r'"([^"]+)"')

# `^\s*` lets the leading run cross lines, so on a run of blank lines
# every line start rescans the rest of the run, and an unclosed Go
# `import (` scans to the end of the file from every block start. Keyed
# by the name of their form in `deps`.
LINE_START_PATTERNS = {
    "_PY_IMPORT": re.compile(rf"^\s*import\s+({_PY_NAMES})", re.MULTILINE),
    "_PY_FROM": re.compile(
        rf"^\s*from\s+([\w.]+)\s+import\s+(?:\(((?:[\w.,\s]|#[^\n]*\n)*)\)|({_PY_NAMES}))", re.MULTILINE
    ),
    "_C_INCLUDE": re.compile(r'^\s*#\s*include\s*[<"]([^>"]+)[>"]', re.MULTILINE),
    "_CSHARP_USING": re.compile(r"^\s*using\s+(?:static\s+)?([\w.]+)\s*;", re.MULTILINE),
    "_JAVA_IMPORT": re.compile(r"^\s*import\s+(?:static\s+)?([\w.]+(?:\.\*)?)\s*;", re.MULTILINE),
    "_JS_SIDE_EFFECT": re.compile(r"""^\s*import\s+['"]([^'"]+)['"]""", re.MULTILINE),
    "_GO_SINGLE": re.compile(r'^\s*import\s+(?:\w+\s+)?"([^"]+)"', re.MULTILINE),
}
GO_BLOCK = re.compile(r"^\s*import\s*\(([^)]*)\)", re.MULTILINE | re.DOTALL)


def python_names(listing: str) -> list[str]:
    items = _PY_COMMENT.sub("", listing).split(",")
    return [item.split()[0] for item in items if item.strip()]


def module_candidates(module: str, extensions: Sequence[str]) -> list[str]:
    base = module.replace(".", "/")
    cands = [f"{base}{ext}" for ext in extensions]
    if ".py" in extensions:
        cands.append(f"{base}/__init__.py")
    return cands


def relative_candidates(ref: str, from_path: str) -> list[str]:
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


def _groups(name: str, content: str) -> list[str]:
    return [m.group(1) for m in LINE_START_PATTERNS[name].finditer(content)]


def python_refs(content: str) -> list[str]:
    refs = [name for listing in _groups("_PY_IMPORT", content) for name in python_names(listing)]
    for match in LINE_START_PATTERNS["_PY_FROM"].finditer(content):
        module = match.group(1)
        refs.append(module)
        sep = "." if module.strip(".") else ""
        for name in python_names(match.group(3) or match.group(2)):
            if name != "*":
                refs.append(f"{module}{sep}{name}")
    return refs


def js_refs(content: str) -> list[str]:
    refs = [m.group(1) for m in JS_FROM.finditer(content)]
    refs += [m.group(1) for m in JS_BARE.finditer(content)]
    return refs + _groups("_JS_SIDE_EFFECT", content)


def go_refs(content: str) -> list[str]:
    refs = _groups("_GO_SINGLE", content)
    for block in GO_BLOCK.finditer(content):
        refs += GO_IN_BLOCK.findall(block.group(1))
    return refs


def match_suffix(candidate: str, repo_paths: Sequence[str]) -> list[str]:
    tail = "/" + candidate
    return [p for p in repo_paths if p == candidate or p.endswith(tail)]


def resolve_modules(modules: Iterable[str], extensions: Sequence[str], repo_paths: Sequence[str]) -> list[str]:
    out: list[str] = []
    for module in modules:
        for cand in module_candidates(module, extensions):
            out.extend(match_suffix(cand, repo_paths))
    return out


def resolve_python(refs: Iterable[str], from_path: str, repo_paths: Sequence[str]) -> list[str]:
    out: list[str] = []
    for ref in refs:
        if ref.startswith("."):
            for cand in relative_candidates(ref, from_path):
                out.extend(p for p in repo_paths if p == cand)
        else:
            out.extend(resolve_modules([ref], (".py",), repo_paths))
    return out


def resolve_includes(refs: Iterable[str], repo_paths: Sequence[str]) -> list[str]:
    out: list[str] = []
    for ref in refs:
        ref = ref.strip()
        if not ref:
            continue
        hits = match_suffix(ref, repo_paths)
        if not hits:
            base = posixpath.basename(ref)
            hits = [p for p in repo_paths if posixpath.basename(p) == base]
        out.extend(hits)
    return out


def resolve_js(refs: Iterable[str], from_path: str, repo_paths: Sequence[str]) -> list[str]:
    here = posixpath.dirname(from_path)
    out: list[str] = []
    for ref in refs:
        if ref.startswith("."):
            target = posixpath.normpath(posixpath.join(here, ref))
        else:
            target = ref

        def lookup(cands: list[str]) -> list[str]:
            if ref.startswith("."):
                return [p for cand in cands for p in repo_paths if p == cand]
            return [p for cand in cands for p in match_suffix(cand, repo_paths)]

        if target == ".":  # the repository root
            out.extend(lookup(["index" + ext for ext in JS_EXTS]))
            continue
        # a dotted last segment names its own path, where that exists
        found = lookup([target]) if posixpath.splitext(target)[1] else []
        out.extend(found or lookup([
            *(target + ext for ext in JS_EXTS),
            *(posixpath.join(target, "index" + ext) for ext in JS_EXTS),
        ]))
    return out


def resolve_package(directory: str, ext: str, repo_paths: Sequence[str]) -> list[str]:
    out: list[str] = []
    for p in repo_paths:
        parent = posixpath.dirname(p)
        if p.endswith(ext) and (parent == directory or parent.endswith("/" + directory)):
            out.append(p)
    return out


def resolve_go(refs: Iterable[str], repo_paths: Sequence[str]) -> list[str]:
    out: list[str] = []
    for ref in refs:
        ref = ref.strip("/")
        if not ref:
            continue
        for p in repo_paths:
            if not p.endswith(".go"):
                continue
            parent = posixpath.dirname(p)
            if not parent:
                continue
            if parent == ref or parent.endswith("/" + ref) or ref.endswith("/" + parent):
                out.append(p)
    return out


def extract_dependencies(file: SourceFile, repo_paths: Iterable[str]) -> list[str]:
    paths = sorted(repo_paths)
    lang = file.language
    if lang == "Python":
        hits = resolve_python(python_refs(file.content), file.path, paths)
    elif lang in ("C", "C++"):
        hits = resolve_includes(_groups("_C_INCLUDE", file.content), paths)
    elif lang == "C#":
        hits = resolve_modules(_groups("_CSHARP_USING", file.content), (".cs",), paths)
    elif lang == "Java":
        hits = []
        for ref in _groups("_JAVA_IMPORT", file.content):
            hits += resolve_modules([ref.removesuffix(".*")], (".java",), paths)
            if ref.endswith(".*"):  # the class for `import static`, then the package
                hits += resolve_package(ref.removesuffix(".*").replace(".", "/"), ".java", paths)
    elif lang in ("TypeScript", "JavaScript"):
        hits = resolve_js(js_refs(file.content), file.path, paths)
    elif lang == "Go":
        hits = resolve_go(go_refs(file.content), paths)
    else:
        return []
    seen: set[str] = set()
    deps: list[str] = []
    for p in hits:
        if p != file.path and p not in seen:
            seen.add(p)
            deps.append(p)
    return deps


def connected_components(n: int, pairs: Iterable[tuple[int, int]]) -> list[list[int]]:
    neighbors: list[set[int]] = [set() for _ in range(n)]
    for x, y in pairs:
        neighbors[x].add(y)
        neighbors[y].add(x)
    assigned = [False] * n
    components: list[list[int]] = []
    for start in range(n):
        if assigned[start]:
            continue
        assigned[start] = True
        stack, members = [start], []
        while stack:
            node = stack.pop()
            members.append(node)
            for nxt in neighbors[node]:
                if not assigned[nxt]:
                    assigned[nxt] = True
                    stack.append(nxt)
        components.append(sorted(members))
    return components


def find_near_duplicates(
    signatures: Mapping[str, Sequence[int]], char_counts: Mapping[str, int], threshold: float, bands: int, rows: int
) -> list[DuplicateCluster]:
    """Every distinct pair that shares a band bucket is compared once,
    whether or not its ends are already joined, and the clusters are the
    components of the pairs at or above the threshold."""
    ids = list(signatures)
    sigs = list(signatures.values())
    buckets: dict[tuple[int, tuple[int, ...]], list[int]] = {}
    for idx, sig in enumerate(sigs):
        for band in range(bands):
            buckets.setdefault((band, tuple(sig[band * rows : (band + 1) * rows])), []).append(idx)
    checked: set[tuple[int, int]] = set()
    merged: list[tuple[int, int]] = []
    for bucket in buckets.values():
        for i, x in enumerate(bucket):
            for y in bucket[i + 1 :]:
                if (x, y) in checked:
                    continue
                checked.add((x, y))
                if sum(a == b for a, b in zip(sigs[x], sigs[y])) / len(sigs[x]) >= threshold:
                    merged.append((x, y))
    clusters = []
    for members in connected_components(len(sigs), merged):
        if len(members) > 1:
            member_ids = tuple(sorted(ids[i] for i in members))
            rep = min(member_ids, key=lambda rid: (-char_counts[rid], rid))
            clusters.append(DuplicateCluster(member_ids, rep))
    return clusters


def topological_sort(paths: Sequence[str], edges: Iterable[tuple[str, str]]) -> list[list[str]]:
    index = {p: i for i, p in enumerate(paths)}
    distinct = set(edges)
    in_degree = {p: sum(1 for a, _ in distinct if a == p) for p in paths}
    dependents = {p: [a for a, b in distinct if b == p] for p in paths}
    pairs = [(index[b], index[a]) for a, b in distinct]
    results: list[list[str]] = []
    for members in connected_components(len(paths), pairs):
        component = [paths[i] for i in members]
        selected: set[str] = set()
        order: list[str] = []
        for _ in range(len(component)):
            node = min(
                (p for p in component if p not in selected),
                key=lambda p: (in_degree[p], index[p]),
            )
            for dependent in dependents[node]:
                in_degree[dependent] -= 1
            selected.add(node)
            order.append(node)
        results.append(order)
    return results


def order_repo_files(files: Sequence[SourceFile]) -> tuple[list[SourceFile], list[tuple[str, str]]]:
    paths = [f.path for f in files]
    by_path = {f.path: f for f in files}
    edges = [(f.path, dep) for f in files for dep in extract_dependencies(f, paths)]
    ordered = [by_path[p] for sub in topological_sort(paths, edges) for p in sub]
    return ordered, edges


def letter_count(content: str) -> int:
    return sum(map(str.isalpha, content))


def pack_entries(docs: Iterable[str], tokenizer: ByteTokenizer, entry_len: int, pad_final: bool = False) -> PackResult:
    rows: list[list[int]] = []
    bounds: list[list[int]] = []
    skipped = total = dropped = padded = 0
    buffer: list[int] = []
    starts: list[int] = []
    for doc in docs:
        try:
            ids = tokenizer.encode(doc)
        except Exception:
            skipped += 1
            continue
        starts.append(len(buffer))
        buffer.extend(ids)
        total += len(ids)
        while len(buffer) >= entry_len:
            rows.append(buffer[:entry_len])
            bounds.append([s for s in starts if s < entry_len])
            buffer = buffer[entry_len:]
            starts = [s - entry_len for s in starts if s >= entry_len]
    if buffer:
        if pad_final:
            padded = entry_len - len(buffer)
            rows.append(buffer + [tokenizer.eos_id] * padded)
            bounds.append(starts)
        else:
            dropped = len(buffer)
    entries = np.array(rows, dtype=np.uint32).reshape(len(rows), entry_len)
    return PackResult(entries, bounds, total, dropped, padded, skipped)


def shingle_set(text: str, width: int) -> set[str]:
    tokens = _TOKEN.findall(text.lower())
    if len(tokens) < width:
        return {" ".join(tokens)}
    return {" ".join(tokens[i : i + width]) for i in range(len(tokens) - width + 1)}


M64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(x: int) -> int:
    z = (x + GOLDEN) & M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & M64
    return z ^ (z >> 31)


def blake2b_int(text: str) -> int:
    return int.from_bytes(hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest(), "little")


def shingle_hashes(text: str, width: int) -> set[int]:
    """Each shingle's tokens (no token holds whitespace) as the
    polynomial of their blake2b digests in base GOLDEN, mod 2**64."""
    out: set[int] = set()
    for shingle in shingle_set(text, width):
        h = 0
        for token in shingle.split():
            h = (h * GOLDEN + blake2b_int(token)) & M64
        out.add(h)
    return out


def one_permutation_values(text: str, num_perm: int, shingle_width: int, seed: int) -> tuple[int, ...]:
    key = splitmix64(seed % 2**64)
    bins: list[int | None] = [None] * num_perm
    for h in shingle_hashes(text, shingle_width):
        mixed = splitmix64(h ^ key)
        b = mixed % num_perm
        if bins[b] is None or mixed < bins[b]:
            bins[b] = mixed
    values = list(bins)
    for i in range(num_perm):
        attempt = 1
        while values[i] is None:
            donor = splitmix64(key ^ (i << 32 | attempt)) % num_perm
            values[i] = bins[donor]
            attempt += 1
    return tuple(values)


MERSENNE_PRIME = np.uint64((1 << 61) - 1)


def permutations(num_perm: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    a = rng.integers(1, int(MERSENNE_PRIME), size=num_perm, dtype=np.uint64)
    b = rng.integers(0, int(MERSENNE_PRIME), size=num_perm, dtype=np.uint64)
    return a, b


def full_table_values(text: str, num_perm: int, shingle_width: int, seed: int) -> tuple[int, ...]:
    hashes = np.array([blake2b_int(s) for s in shingle_set(text, shingle_width)], dtype=np.uint64)
    a, b = permutations(num_perm, seed)
    table = (a[:, None] * hashes[None, :] + b[:, None]) % MERSENNE_PRIME
    return tuple(int(v) for v in table.min(axis=1))


def scan_text(text: str, index: ContaminationIndex) -> ContaminationReport:
    tokens = text.split()
    matched: list[str] = []
    seen: set[str] = set()
    if len(tokens) >= NGRAM_SIZE:
        for i in range(len(tokens) - NGRAM_SIZE + 1):
            gram = " ".join(tokens[i : i + NGRAM_SIZE])
            if gram in index.source_labels and gram not in seen:
                seen.add(gram)
                matched.append(gram)
    for n in sorted(index.exact_lengths):
        if len(tokens) < n:
            continue
        for i in range(len(tokens) - n + 1):
            window = " ".join(tokens[i : i + n])
            if window in index.source_labels and window not in seen:
                seen.add(window)
                matched.append(window)
    benchmarks = sorted({index.source_labels[m] for m in matched})
    return ContaminationReport(matched_entries=tuple(matched), benchmarks=tuple(benchmarks))


def whole_text_shingle_set(text: str, width: int) -> np.ndarray:
    tokens = _TOKEN.findall(text.lower())
    pos = dict(zip(dict.fromkeys(tokens), count()))
    digests = b"".join([hashlib.blake2b(t.encode(), digest_size=8).digest() for t in pos])
    seq = np.frombuffer(digests, "<u8")[np.fromiter(map(pos.__getitem__, tokens), np.intp, len(tokens))]
    n = max(len(tokens) - width + 1, 1)
    hashes = np.zeros(n, dtype=np.uint64)
    for k in range(min(width, len(tokens))):
        hashes *= np.uint64(_GOLDEN)
        hashes += seq[k : k + n]
    hashes.sort()
    return hashes[np.concatenate(([True], hashes[1:] != hashes[:-1]))]


def whole_text_quality_heuristics(content: str, thresholds: FilterThresholds) -> FilterVerdict:
    if not content:
        return FilterVerdict()
    tokens = content.split()
    if tokens:
        counts = Counter(tokens)
        top_tok, top_count = max(counts.items(), key=lambda kv: (kv[1] * len(kv[0]), kv[0]))
        covered = top_count * len(top_tok)
        if covered > thresholds.max_repeated_token_fraction * len(content):
            return FilterVerdict(
                RULE_TOKEN_REPETITION, f"token {top_tok[:20]!r} covers {covered}/{len(content)} chars"
            )
    code_lines = [ln for ln in content.splitlines() if ln.strip() and not _COMMENT_LINE.match(ln)]
    if code_lines:
        long_lines = sum(1 for ln in code_lines if len(ln) > thresholds.long_line_chars)
        if long_lines / len(code_lines) > thresholds.max_long_line_fraction:
            return FilterVerdict(
                RULE_LONG_LINES,
                f"{long_lines}/{len(code_lines)} non-comment lines > {thresholds.long_line_chars} chars",
            )
    return FilterVerdict()


def whole_text_scan(text: str, index: ContaminationIndex) -> ContaminationReport:
    tokens = text.split()
    starts: dict[int, list[int]] = {}
    for i in compress(count(), map(index.first_tokens.__contains__, tokens)):
        for n in index.first_tokens[tokens[i]]:
            starts.setdefault(n, []).append(i)
    matched: list[str] = []
    seen: set[str] = set()
    for n in [NGRAM_SIZE, *sorted(index.exact_lengths)]:
        last = len(tokens) - n
        for i in starts.get(n, ()):
            if i > last:
                break
            window = " ".join(tokens[i : i + n])
            if window in index.source_labels and window not in seen:
                seen.add(window)
                matched.append(window)
    benchmarks = sorted({index.source_labels[m] for m in matched})
    return ContaminationReport(tuple(matched), tuple(benchmarks))


def walk_repo_dir(root: str, counters: dict[str, int]) -> list[tuple[str, str]]:
    out: list[tuple[str, str]] = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in [d for d in dirnames if os.path.islink(os.path.join(dirpath, d))]:
            dirnames.remove(name)
            counters[DROP_SYMLINK] = counters.get(DROP_SYMLINK, 0) + 1
        for name in sorted(filenames):
            if name.startswith("."):
                continue
            abs_path = os.path.join(dirpath, name)
            if os.path.islink(abs_path):
                counters[DROP_SYMLINK] = counters.get(DROP_SYMLINK, 0) + 1
                continue
            rel = os.path.relpath(abs_path, root).replace(os.sep, "/")
            out.append((rel, abs_path))
    return out


def entry_line(ids: Sequence[int], bounds: list[int]) -> bytes:
    return (json.dumps({"token_ids": [int(i) for i in ids], "doc_boundaries": bounds},
                       sort_keys=True, ensure_ascii=False) + "\n").encode()


def pure_path_name(path: str) -> str:
    """`PurePosixPath(path).name`: the last of the parts left when `/`
    splits the path and the empty and `.` parts are dropped (`..` stays a
    part), or "" when none is left."""
    parts = [part for part in path.split("/") if part not in ("", ".")]
    return parts[-1] if parts else ""


def pure_path_suffix(name: str) -> str:
    """`PurePosixPath(path).suffix` for that name: from its last `.` on,
    when that dot is neither its first nor its last character."""
    i = name.rfind(".")
    return name[i:] if 0 < i < len(name) - 1 else ""


def detect_language(path: str, lang_map: LanguageMap) -> str | None:
    if not path:
        raise ValueError("path must be non-empty")
    name = pure_path_name(path)
    if name in lang_map.basenames:
        return lang_map.basenames[name]
    suffix = pure_path_suffix(name).lower()
    if suffix:
        return lang_map.extensions.get(suffix)
    return None
