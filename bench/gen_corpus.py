"""Seeded synthetic corpora for the repopipe benchmark.

Writes under OUT:

  corpus/<repo_id>/...   one directory per repository
  benchmarks.jsonl       benchmark test strings, {"text", "benchmark"} per line
  truth.json             what was planted: filter drops per rule, import
                         edges, near-duplicate clusters with their survivor,
                         leaks with their label, near-misses, counts

    python3 bench/gen_corpus.py --workload mixed --seed 7 --out DIR

Code text is built from syllables without the letter q, and every
benchmark token starts with q. No whitespace token of the code can equal
a benchmark token, so a benchmark string occurs only where it was planted.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import posixpath
import random
import re
from dataclasses import dataclass

from check_outputs import COMMENT_PREFIX, jaccard

CONSONANTS = "bcdfghjklmnprstvwz"
VOWELS = "aeiou"
LANGUAGES = ("Python", "JavaScript", "C", "Go", "Java")
BENCH_LABELS = ("humaneval_syn", "mbpp_syn", "apps_syn", "ds1000_syn")
BENCH_MAX_TOKENS = 30
NGRAM = 10
EXACT_MIN = 3

# Filter rules a junk file is built to trip, one rule per file.
JUNK_RULES = (
    "unrecognized_language",
    "avg_line_len",
    "max_line_len",
    "alphabetic_fraction",
    "xml_declaration",
    "visible_min_chars",
    "visible_ratio",
    "data_too_small",
    "data_too_large",
)

LANG_TAG = {"Python": "py", "JavaScript": "js", "C": "c", "Go": "go", "Java": "jv"}


@dataclass(frozen=True)
class Spec:
    repos: int
    files: tuple[int, int]  # code files per repo (inclusive range)
    body_lines: tuple[int, int]  # body lines per code file
    max_deps: int  # imports per module, drawn from 0..max_deps
    clusters: int  # near-duplicate clusters; the first is an exact pair
    leaks: int
    near_misses: int
    junk_per_rule: int
    bench_strings: int
    bench_min_tokens: int
    data_file_share: float  # share of repos with a clean JSON/YAML file
    monorepo: bool = False  # every repo holds all five languages


SPECS = {
    "mixed": Spec(
        repos=300, files=(12, 18), body_lines=(6, 16), max_deps=3, clusters=10,
        leaks=9, near_misses=8, junk_per_rule=6, bench_strings=2500,
        bench_min_tokens=EXACT_MIN, data_file_share=0.4,
    ),
    "monorepo": Spec(
        repos=3, files=(1000, 1000), body_lines=(34, 46), max_deps=5, clusters=0,
        leaks=0, near_misses=3, junk_per_rule=1, bench_strings=1500,
        bench_min_tokens=NGRAM, data_file_share=1.0, monorepo=True,
    ),
    "rebuild": Spec(
        repos=130, files=(12, 18), body_lines=(6, 16), max_deps=3, clusters=4,
        leaks=4, near_misses=4, junk_per_rule=2, bench_strings=1200,
        bench_min_tokens=EXACT_MIN, data_file_share=0.4,
    ),
}

SMALL_SPECS = {
    "mixed": Spec(
        repos=26, files=(4, 7), body_lines=(6, 12), max_deps=3, clusters=2,
        leaks=4, near_misses=2, junk_per_rule=1, bench_strings=150,
        bench_min_tokens=EXACT_MIN, data_file_share=0.4,
    ),
    "monorepo": Spec(
        repos=2, files=(60, 60), body_lines=(10, 16), max_deps=5, clusters=0,
        leaks=0, near_misses=2, junk_per_rule=1, bench_strings=80,
        bench_min_tokens=NGRAM, data_file_share=1.0, monorepo=True,
    ),
    "rebuild": Spec(
        repos=20, files=(4, 7), body_lines=(6, 12), max_deps=3, clusters=2,
        leaks=4, near_misses=2, junk_per_rule=1, bench_strings=120,
        bench_min_tokens=EXACT_MIN, data_file_share=0.4,
    ),
}


class Vocab:
    """Distinct words from seeded syllables; `prefix` marks benchmark words."""

    def __init__(self, rng: random.Random, size: int, prefix: str = "") -> None:
        words: set[str] = set()
        while len(words) < size:
            n = rng.randint(2, 3)
            words.add(prefix + "".join(rng.choice(CONSONANTS) + rng.choice(VOWELS) for _ in range(n)))
        self.words = sorted(words)
        self.rng = rng

    def __call__(self) -> str:
        return self.rng.choice(self.words)


def capital(word: str) -> str:
    return word[:1].upper() + word[1:]


# -----------------------------------------------------------------------
# Code files
# -----------------------------------------------------------------------


def _body(lang: str, w: Vocab, rng: random.Random, n_lines: int) -> list[str]:
    """Plausible function bodies; no line starts an import of any kind."""
    lines: list[str] = []
    while len(lines) < n_lines:
        f, a, b, v, g = w(), w(), w(), w(), w()
        n = rng.randint(2, 999)
        c = " ".join(w() for _ in range(rng.randint(3, 7)))
        if lang == "Python":
            lines += [
                f"def {f}_{g}({a}, {b}):",
                f"    # {c}",
                f"    {v} = {a} * {n} + {b}",
                f"    if {v} > {n}:",
                f"        {v} = {g}_{b}({v}, {a})",
                f"    return {v}",
                "",
            ]
        elif lang == "Go":
            lines += [
                f"// {c}",
                f"func {f}{capital(g)}({a} int, {b} int) int {{",
                f"\t{v} := {a}*{n} + {b}",
                f"\tif {v} > {n} {{",
                f"\t\t{v} = {g}{capital(b)}({v}, {a})",
                "\t}",
                f"\treturn {v}",
                "}",
            ]
        elif lang == "Java":
            lines += [
                f"    // {c}",
                f"    public int {f}{capital(g)}(int {a}, int {b}) {{",
                f"        int {v} = {a} * {n} + {b};",
                f"        if ({v} > {n}) {{ {v} = {g}{capital(b)}({v}, {a}); }}",
                f"        return {v};",
                "    }",
            ]
        else:  # JavaScript and C share a brace syntax
            decl = "function" if lang == "JavaScript" else "int"
            local = "const" if lang == "JavaScript" else "int"
            arg = "" if lang == "JavaScript" else "int "
            lines += [
                f"// {c}",
                f"{decl} {f}_{g}({arg}{a}, {arg}{b}) {{",
                f"    {local} {v} = {a} * {n} + {b};",
                f"    if ({v} > {n}) {{ return {g}_{b}({v}, {a}); }}",
                f"    return {v};",
                "}",
            ]
    return lines[:n_lines]


class Module:
    """One code file of a dependency DAG: its path and how others import it."""

    def __init__(self, lang: str, name: str, root: str, header: bool = False) -> None:
        self.lang, self.name, self.header = lang, name, header
        if lang == "Python":
            self.path = f"src/{root}/{name}.py"
        elif lang == "JavaScript":
            self.path = f"{root}/lib/{name}.js"
        elif lang == "C":
            self.path = f"{root}/include/{name}.h" if header else f"{root}/src/{name}.c"
        elif lang == "Go":
            self.path = f"{root}/pkg/{name}/{name}.go"
        else:
            self.path = f"{root}/src/main/java/com/{root}/{name}/{capital(name)}.java"
        self.root = root

    def import_line(self, dep: "Module", rng: random.Random) -> str:
        if self.lang == "Python":
            if rng.random() < 0.5:
                return f"import {dep.root}.{dep.name}"
            return f"from {dep.root}.{dep.name} import {dep.name}_main"
        if self.lang == "JavaScript":
            rel = posixpath.relpath(posixpath.splitext(dep.path)[0], posixpath.dirname(self.path))
            rel = rel if rel.startswith("..") else "./" + rel
            if rng.random() < 0.5:
                return f"import {{ {dep.name}Main }} from '{rel}';"
            return f"const {dep.name} = require('{rel}');"
        if self.lang == "C":
            return f'#include "{dep.name}.h"'
        if self.lang == "Go":
            return f'\t"example.com/{dep.root}/pkg/{dep.name}"'
        return f"import com.{dep.root}.{dep.name}.{capital(dep.name)};"

    def render(self, deps: list["Module"], w: Vocab, rng: random.Random, n_lines: int) -> str:
        imports = [self.import_line(d, rng) for d in deps]
        body = _body(self.lang, w, rng, n_lines)
        if self.lang == "Python":
            head = [f'"""{" ".join(w() for _ in range(5))}."""', "import os", *imports, ""]
        elif self.lang == "JavaScript":
            head = ["'use strict';", *imports, ""]
        elif self.lang == "C":
            head = ["#include <stdio.h>", *imports, ""]
        elif self.lang == "Go":
            head = [f"package {self.name}", "", "import (", '\t"fmt"', *imports, ")", ""]
            body = body + ["", f"var _ = fmt.Sprint({n_lines})"]
        else:
            head = [f"package com.{self.root}.{self.name};", "", *imports, "",
                    f"public class {capital(self.name)} {{"]
            body = body + ["}"]
        return "\n".join(head + body) + "\n"


def build_dag(
    lang: str, names: list[str], root: str, rng: random.Random, max_deps: int
) -> tuple[list[Module], dict[str, list[Module]]]:
    """Modules in generation order; each imports only earlier modules, so
    the graph is acyclic. C modules depend on headers only.
    """
    modules = [
        Module(lang, name, root, header=(lang == "C" and (i == 0 or rng.random() < 0.5)))
        for i, name in enumerate(names)
    ]
    deps: dict[str, list[Module]] = {}
    for i, mod in enumerate(modules):
        pool = [m for m in modules[:i] if lang != "C" or m.header]
        k = min(len(pool), rng.randint(0, max_deps))
        deps[mod.path] = rng.sample(pool, k)
    return modules, deps


def data_file(w: Vocab, rng: random.Random) -> tuple[str, str, str]:
    """A clean JSON or YAML file inside the 50..5000 character window."""
    n = rng.randint(6, 30)
    if rng.random() < 0.5:
        items = {f"{w()}_{i}": " ".join(w() for _ in range(rng.randint(1, 4))) for i in range(n)}
        return f"config/{w()}.json", "JSON", json.dumps(items, indent=2) + "\n"
    lines = [f"{w()}_{i}: {' '.join(w() for _ in range(rng.randint(1, 4)))}" for i in range(n)]
    return f"config/{w()}.yaml", "YAML", "\n".join(lines) + "\n"


def junk_file(rule: str, w: Vocab, rng: random.Random, tag: str) -> tuple[str, str]:
    """A file that trips `rule` and no other filter rule."""
    words = lambda n: " ".join(w() for _ in range(n))  # noqa: E731
    if rule == "unrecognized_language":
        return f"notes/{tag}.txt", "\n".join(words(8) for _ in range(10)) + "\n"
    if rule == "avg_line_len":  # every line ~150 chars, none over 1000
        return f"gen/{tag}.py", "\n".join(f"# {words(30)}"[:150] for _ in range(12)) + "\n"
    if rule == "max_line_len":  # one 1200-char line among short ones
        short = [f"// {words(4)}" for _ in range(40)]
        short.insert(rng.randint(0, 40), "// " + ("x" + words(300))[:1200])
        return f"gen/{tag}.js", "\n".join(short) + "\n"
    if rule == "alphabetic_fraction":
        rows = [", ".join(str(rng.randint(0, 99999)) for _ in range(8)) + "," for _ in range(20)]
        return f"gen/{tag}.c", "\n".join(rows) + "\n"
    if rule == "xml_declaration":
        return f"gen/{tag}.py", '# <?xml version="1.0"?>\n' + "\n".join(
            f"{w()} = {w()}({w()})" for _ in range(10)
        ) + "\n"
    if rule == "visible_min_chars":  # ~60 visible chars, a large visible share
        return f"web/{tag}.html", f"<html><body><p>{words(10)[:60]}</p></body></html>\n"
    if rule == "visible_ratio":  # 150 visible chars, 1500 chars of script
        script = "\n".join(f"var {w()} = {w()}({w()}, {w()});" for _ in range(60))
        return f"web/{tag}.html", (
            f"<html><head><script>\n{script}\n</script></head>\n"
            f"<body><p>{words(40)[:150]}</p></body></html>\n"
        )
    if rule == "data_too_small":
        return f"config/{tag}.json", json.dumps({w(): w()}) + "\n"
    if rule == "data_too_large":
        lines: list[str] = []
        while sum(len(x) + 1 for x in lines) < 5600:
            lines.append(f"{w()}_{len(lines)}: {words(3)}")
        return f"config/{tag}.yaml", "\n".join(lines) + "\n"
    raise ValueError(rule)


def append_block(content: str, lang: str, tokens: list[str], rng: random.Random, reflow: bool) -> str:
    """Append benchmark tokens as a comment block, whitespace-separated
    from the code; `reflow` spreads them over lines with mixed spacing.
    """
    if reflow:
        text = tokens[0]
        for tok in tokens[1:]:
            text += rng.choice(["\n    ", "  ", "\n\t", " \n  "]) + tok
    else:
        text = " ".join(tokens)
    if lang == "Python":
        return content + '"""\n' + text + '\n"""\n'
    return content + "/*\n" + text + "\n*/\n"


# -----------------------------------------------------------------------
# Benchmark strings
# -----------------------------------------------------------------------


def make_benchmark(spec: Spec, rng: random.Random) -> tuple[list[dict], list[list[str]], list[list[str]]]:
    bw = Vocab(rng, 600, prefix="q")
    rows: list[dict] = []
    seen: set[str] = set()
    shorts: list[list[str]] = []
    longs: list[list[str]] = []
    while len(rows) < spec.bench_strings:
        n = rng.randint(spec.bench_min_tokens, BENCH_MAX_TOKENS)
        tokens = [bw() for _ in range(n)]
        key = " ".join(tokens)
        if key in seen:
            continue
        seen.add(key)
        if rng.random() < 0.2:  # normalisation must collapse these runs
            text = tokens[0] + "".join(rng.choice(["  ", "\n", "\t", " "]) + t for t in tokens[1:])
        else:
            text = key
        rows.append({"text": text, "benchmark": BENCH_LABELS[len(rows) % len(BENCH_LABELS)]})
        (longs if n >= NGRAM else shorts).append(tokens)
    return rows, shorts, longs


def _matches_any(tokens: list[str], short_set: set[str], gram_set: set[str]) -> bool:
    for n in range(EXACT_MIN, min(len(tokens), NGRAM - 1) + 1):
        for i in range(len(tokens) - n + 1):
            if " ".join(tokens[i : i + n]) in short_set:
                return True
    for i in range(len(tokens) - NGRAM + 1):
        if " ".join(tokens[i : i + NGRAM]) in gram_set:
            return True
    return False


# -----------------------------------------------------------------------
# Corpus assembly
# -----------------------------------------------------------------------


def _code_repo(spec: Spec, w: Vocab, rng: random.Random, repo_word: str) -> tuple[dict, list]:
    """{path: (language, content)} and planted (dependent, dependency) edges."""
    files: dict[str, tuple[str, str]] = {}
    edges: list[tuple[str, str]] = []
    if spec.monorepo:
        per_lang = rng.randint(*spec.files) // len(LANGUAGES)
        groups = [(lang, repo_word + LANG_TAG[lang]) for lang in LANGUAGES]
        counts = [per_lang] * len(LANGUAGES)
    else:
        lang = rng.choice(LANGUAGES)
        groups = [(lang, repo_word)]
        counts = [rng.randint(*spec.files)]
    used: set[str] = set()
    for (lang, root), count in zip(groups, counts):
        names: list[str] = []
        while len(names) < count:
            name = f"{w()}{len(used)}"
            used.add(name)
            names.append(name)
        modules, deps = build_dag(lang, names, root, rng, spec.max_deps)
        for mod in modules:
            content = mod.render(deps[mod.path], w, rng, rng.randint(*spec.body_lines))
            files[mod.path] = (lang, content)
            edges += [(mod.path, d.path) for d in deps[mod.path]]
    if rng.random() < spec.data_file_share:
        path, lang, content = data_file(w, rng)
        files[path] = (lang, content)
    return files, edges


_WORD = re.compile(r"\b[a-z]{4,}\b")
_IMPORTISH = re.compile(r"import|include|require|package|from|[\"']")


def _substitute(files: dict, w: Vocab, rng: random.Random, edits: int) -> dict:
    """Replace `edits` words in body lines of code files."""
    files = dict(files)
    code = sorted(p for p, (lang, _) in files.items() if lang in LANGUAGES)
    done = 0
    while done < edits:
        path = rng.choice(code)
        lang, content = files[path]
        lines = content.split("\n")
        cands = [i for i, ln in enumerate(lines) if _WORD.search(ln) and not _IMPORTISH.search(ln)]
        i = rng.choice(cands)
        matches = list(_WORD.finditer(lines[i]))
        m = rng.choice(matches)
        lines[i] = lines[i][: m.start()] + w() + lines[i][m.end() :]
        files[path] = (lang, "\n".join(lines))
        done += 1
    return files


def generate(workload: str, seed: int, out: str, small: bool = False) -> dict:
    """Write the corpus, benchmark file and truth.json under `out`; return the truth."""
    spec = (SMALL_SPECS if small else SPECS)[workload]
    rng = random.Random(f"{workload}:{seed}")
    w = Vocab(rng, 3000)
    bench_rows, shorts, longs = make_benchmark(spec, rng)
    short_set = {" ".join(t) for t in shorts}
    gram_set = {" ".join(t[i : i + NGRAM]) for t in longs for i in range(len(t) - NGRAM + 1)}

    cluster_sizes = [2] + [3] * (spec.clusters - 1) if spec.clusters else []
    kinds = ["cluster"] * sum(cluster_sizes) + ["leak"] * spec.leaks + ["near"] * spec.near_misses
    kinds += ["plain"] * (spec.repos - len(kinds))
    rng.shuffle(kinds)
    repo_ids = [f"r{i:04d}{w()}" for i in range(spec.repos)]

    repos: dict[str, dict] = {}  # repo_id -> {path: (language, content)}
    edges: dict[str, list] = {}
    truth_clusters: list[dict] = []
    cluster_slots = [rid for rid, k in zip(repo_ids, kinds) if k == "cluster"]
    # Cluster bases are large enough that a few edits keep J >= 0.95.
    big = dataclasses.replace(
        spec, files=(max(spec.files[1], 14),) * 2, body_lines=(max(spec.body_lines[1], 16),) * 2
    )
    for ci, size in enumerate(cluster_sizes):
        members = cluster_slots[:size]
        cluster_slots = cluster_slots[size:]
        files, repo_edges = _code_repo(big, w, rng, w())
        if ci == 0:  # exact duplicates: the tie goes to the smaller id
            variants = [files, dict(files)]
            survivor = min(members)
        else:  # one member, not always the smallest id, is the largest
            path = max(p for p, (lang, _) in files.items() if lang in LANGUAGES)
            extra = f"{COMMENT_PREFIX.get(files[path][0], '//')} {' '.join(w() for _ in range(4))}\n"
            while True:
                base = dict(files)
                base[path] = (base[path][0], base[path][1] + extra)
                variants = [base, _substitute(files, w, rng, 1), _substitute(files, w, rng, 2)]
                texts = [
                    "".join(f"{COMMENT_PREFIX.get(lang, '//')} {p}\n{c}\n\n" for p, (lang, c) in sorted(v.items()))
                    for v in variants
                ]
                # 0.96 leaves a margin over the checked 0.95: the samples
                # put files in dependency order, not in path order.
                if all(jaccard(a, b) >= 0.96 for i, a in enumerate(texts) for b in texts[i + 1 :]):
                    break
            members = rng.sample(members, len(members))
            survivor = members[0]
        for rid, variant in zip(members, variants):
            repos[rid] = variant
            edges[rid] = repo_edges
        truth_clusters.append({"members": sorted(members), "survivor": survivor})

    leaks: dict[str, str] = {}
    near: dict[str, str] = {}
    leak_kinds = ["tengram", "exact", "tengram_reflow", "exact_reflow"]
    if not shorts:
        leak_kinds = ["tengram", "tengram_reflow"]
    near_kinds = ["slice9", "changed_token"] if shorts else ["slice9"]
    filter_drops = {rule: 0 for rule in JUNK_RULES}
    hosts: list[str] = []  # repos that may also carry junk files
    for rid, kind in zip(repo_ids, kinds):
        if kind == "cluster":
            continue
        files, repo_edges = _code_repo(spec, w, rng, w())
        edges[rid] = repo_edges
        code = sorted(p for p, (lang, _) in files.items() if lang in LANGUAGES)
        target = rng.choice(code)
        lang, content = files[target]
        if kind == "leak":
            how = leak_kinds[len(leaks) % len(leak_kinds)]
            if how.startswith("tengram"):
                tokens = rng.choice(longs)
                start = rng.randint(0, len(tokens) - NGRAM)
                planted = tokens[start : rng.randint(start + NGRAM, len(tokens))]
                label = _label_of(bench_rows, tokens)
            else:
                planted = rng.choice(shorts)
                label = _label_of(bench_rows, planted)
            files[target] = (lang, append_block(content, lang, planted, rng, how.endswith("reflow")))
            leaks[rid] = label
        elif kind == "near":
            how = near_kinds[len(near) % len(near_kinds)]
            while True:
                if how == "slice9":
                    tokens = rng.choice(longs)
                    start = rng.randint(0, len(tokens) - (NGRAM - 1))
                    planted = tokens[start : start + NGRAM - 1]
                else:
                    planted = list(rng.choice(shorts))
                    planted[rng.randrange(len(planted))] = "q" + w()
                if not _matches_any(planted, short_set, gram_set):
                    break
            files[target] = (lang, append_block(content, lang, planted, rng, False))
            near[rid] = how
        if kind != "leak":
            hosts.append(rid)
        repos[rid] = files

    junk: dict[str, list] = {}
    for rule in JUNK_RULES:
        for _ in range(spec.junk_per_rule):
            rid = rng.choice(hosts)
            path, content = junk_file(rule, w, rng, f"{w()}{len(repos[rid])}")
            repos[rid][path] = (None, content)
            junk.setdefault(rid, []).append([path, rule])
            filter_drops[rule] += 1

    corpus = os.path.join(out, "corpus")
    input_bytes = 0
    truth_repos: dict[str, dict] = {}
    for rid in sorted(repos):
        kept = []
        for path, (lang, content) in sorted(repos[rid].items()):
            full = os.path.join(corpus, rid, path)
            os.makedirs(os.path.dirname(full), exist_ok=True)
            data = content.encode("utf-8")
            with open(full, "wb") as fh:
                fh.write(data)
            input_bytes += len(data)
            if lang is not None:
                kept.append([path, lang])
        truth_repos[rid] = {"kept": kept, "junk": junk.get(rid, [])}

    bench_path = os.path.join(out, "benchmarks.jsonl")
    with open(bench_path, "w", encoding="utf-8") as fh:
        for row in bench_rows:
            fh.write(json.dumps(row) + "\n")

    n_files = sum(len(r["kept"]) + len(r["junk"]) for r in truth_repos.values())
    dup_drops = sum(len(c["members"]) - 1 for c in truth_clusters)
    truth = {
        "workload": workload,
        "seed": seed,
        "small": small,
        "input_bytes": input_bytes,
        "repo_count": len(truth_repos),
        "file_count": n_files,
        "kept_file_count": n_files - sum(filter_drops.values()),
        "clean_repo_count": len(truth_repos) - dup_drops - len(leaks),
        "filter_drops": filter_drops,
        "repos": truth_repos,
        "edges": {rid: [list(e) for e in es] for rid, es in sorted(edges.items())},
        "clusters": truth_clusters,
        "leaks": dict(sorted(leaks.items())),
        "near_misses": dict(sorted(near.items())),
        "benchmark_strings": len(bench_rows),
    }
    with open(os.path.join(out, "truth.json"), "w", encoding="utf-8") as fh:
        json.dump(truth, fh, indent=1, sort_keys=True)
    return truth


def _label_of(rows: list[dict], tokens: list[str]) -> str:
    key = " ".join(tokens)
    for row in rows:
        if " ".join(row["text"].split()) == key:
            return row["benchmark"]
    raise KeyError(key)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(SPECS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    truth = generate(args.workload, args.seed, args.out)
    print(f"{truth['repo_count']} repos, {truth['file_count']} files, "
          f"{truth['input_bytes'] / 1e6:.2f} MB under {args.out}")


if __name__ == "__main__":
    main()
