"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every expected value is produced by an independent oracle
(brute-force edge checks, exact Jaccard over shingle sets, hand
constructions) rather than by the code paths under test.
"""

from __future__ import annotations

import itertools
import json
import random
import string
import time
from pathlib import Path


from conftest import fixture_config
from repopipe.config import EOS, FIM_START, SentinelSet
from repopipe.corpus import SourceFile, compute_file_stats
from repopipe.decontam import build_contamination_index, scan_text
from repopipe.dedup import find_near_duplicates, minhash_signature
from repopipe.deps import topological_sort
from repopipe.filters import apply_base_filters, filter_data_file, filter_html
from repopipe.packing import ByteTokenizer, FimConfig, fim_split, fim_transform, pack_entries
from repopipe.pipeline import run_pipeline
from repopipe.stats import compute_corpus_stats, render_stats_table

from test_dedup import exact_jaccard, perturb, random_text
from test_fim import reassemble


def _report(line: str) -> None:
    print(f"\nACCEPTANCE PASS: {line}")


# ----------------------------------------------------------------------
# Criterion 1 — topological sort against a brute-force edge oracle
# ----------------------------------------------------------------------

def _flat(subgraphs: list[list[str]]) -> list[str]:
    return [node for sub in subgraphs for node in sub]


def _edge_violations(order: list[str], edges: list[tuple[str, str]]) -> int:
    pos = {node: i for i, node in enumerate(order)}
    return sum(1 for dependent, dependency in edges if pos[dependency] > pos[dependent])


def test_criterion_1_toposort_oracle_suite():
    started = time.monotonic()
    rng = random.Random(1)
    dag_runs = 0

    # Exhaustive: every DAG shape on <= 6 nodes (all subsets of the
    # forward-edge skeleton), exercised under multiple input orderings
    # to hit the tie-breaking paths (all orderings for n <= 4).
    for n in range(1, 7):
        pairs = list(itertools.combinations(range(n), 2))
        if n <= 4:
            orderings = list(itertools.permutations(range(n)))
        else:
            shuffled = list(range(n))
            rng.shuffle(shuffled)
            orderings = [tuple(range(n)), tuple(reversed(range(n))), tuple(shuffled)]
        for mask in range(1 << len(pairs)):
            edges = [
                (f"n{j}", f"n{i}")
                for k, (i, j) in enumerate(pairs)
                if mask >> k & 1
            ]
            for perm in orderings:
                names = [f"n{i}" for i in perm]
                order = _flat(topological_sort(names, edges))
                assert sorted(order) == sorted(names)
                assert _edge_violations(order, edges) == 0
                dag_runs += 1

    # 1,000 random DAGs on <= 10 nodes, random labels and input order.
    for _ in range(1000):
        n = rng.randint(1, 10)
        perm = list(range(n))
        rng.shuffle(perm)
        names = [f"r{p}" for p in perm]
        edges = [
            (f"r{j}", f"r{i}")
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.3
        ]
        order = _flat(topological_sort(names, edges))
        assert sorted(order) == sorted(names)
        assert _edge_violations(order, edges) == 0
        dag_runs += 1

    # 1,000 random graphs with cycles allowed: must terminate and emit
    # every node exactly once.
    for _ in range(1000):
        n = rng.randint(1, 10)
        names = [f"c{i}" for i in range(n)]
        edges = set()
        for _ in range(rng.randint(0, 3 * n)):
            a, b = rng.choice(names), rng.choice(names)
            if a != b:
                edges.add((a, b))
        order = _flat(topological_sort(names, sorted(edges)))
        assert sorted(order) == sorted(names)

    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f}s (budget 10s)"
    _report(
        f"criterion 1 — {dag_runs} DAG sorts + 1000 cyclic graphs, "
        f"0 edge violations, {elapsed:.1f}s"
    )


# ----------------------------------------------------------------------
# Criterion 2 — filter boundaries at threshold, threshold-1, threshold+1
# ----------------------------------------------------------------------

def _base_verdict(content: str, language: str = "Python"):
    sf = SourceFile(repo_id="r", path="f", language=language, content=content, byte_size=0)
    return apply_base_filters(sf, compute_file_stats(content))


def _html(visible: int, total: int) -> str:
    pad = total - visible - len("<p></p><!---->")
    return f"<p>{'v' * visible}</p><!--{'x' * pad}-->"


def test_criterion_2_filter_golden_boundaries():
    cases = 0

    def check(ok: bool, accepted: bool):
        nonlocal cases
        assert ok == accepted
        cases += 1

    # avg line length: "exceeding 100" is strict
    for length, accepted in ((99, True), (100, True), (101, False)):
        check(_base_verdict("a" * length).accepted, accepted)
    # max line length: "surpassing 1000" is strict (avg diluted below 100)
    for length, accepted in ((999, True), (1000, True), (1001, False)):
        pad = max(10, (length - 100) // 99 + 1)
        content = "\n".join(["a" * length] + ["a"] * pad)
        check(_base_verdict(content).accepted, accepted)
    # alphabetic fraction: "fewer than 25%" is strict
    for alpha, accepted in ((24, False), (25, True), (26, True)):
        check(_base_verdict("a" * alpha + "1" * (100 - alpha)).accepted, accepted)
    # HTML visible minimum 100 chars, inclusive
    for visible, accepted in ((99, False), (100, True), (101, True)):
        check(filter_html(_html(visible, 400)).accepted, accepted)
    # HTML visible ratio 20%, inclusive
    for visible, accepted in ((199, False), (200, True), (201, True)):
        check(filter_html(_html(visible, 1000)).accepted, accepted)
    # JSON/YAML window 50..5000, inclusive both ends
    for n, accepted in ((49, False), (50, True), (51, True), (4999, True), (5000, True), (5001, False)):
        check(filter_data_file("x" * n, "JSON").accepted, accepted)
        check(filter_data_file("x" * n, "YAML").accepted, accepted)

    _report(f"criterion 2 — {cases} boundary cases match documented semantics")


# ----------------------------------------------------------------------
# Criterion 3 — dedup recall/precision against exact-Jaccard oracle
# ----------------------------------------------------------------------

def test_criterion_3_dedup_recall_precision():
    started = time.monotonic()
    rng = random.Random(314)
    texts: dict[str, str] = {}

    near_pairs: list[tuple[str, str]] = []
    for i in range(20):
        base = random_text(rng, f"nd{i}")
        texts[f"nd{i}_a"] = " ".join(base)
        texts[f"nd{i}_b"] = " ".join(perturb(base, rng, k=1 if i % 2 else 2))
        near_pairs.append((f"nd{i}_a", f"nd{i}_b"))

    far_pairs: list[tuple[str, str]] = []
    for i in range(20):
        base = random_text(rng, f"fp{i}")
        other = base[:60] + random_text(rng, f"fq{i}", 180)
        texts[f"fp{i}_a"] = " ".join(base)
        texts[f"fp{i}_b"] = " ".join(other)
        far_pairs.append((f"fp{i}_a", f"fp{i}_b"))

    for i in range(120):
        texts[f"bg{i}"] = " ".join(random_text(rng, f"bg{i}"))

    assert len(texts) == 200

    # Oracle validation of the plants before measuring the detector.
    for a, b in near_pairs:
        assert exact_jaccard(texts[a], texts[b]) >= 0.9
    for a, b in far_pairs:
        assert exact_jaccard(texts[a], texts[b]) <= 0.3

    signatures = {rid: minhash_signature(texts[rid], num_perm=128, shingle_width=5) for rid in sorted(texts)}
    char_counts = {rid: len(text) for rid, text in texts.items()}
    clusters = find_near_duplicates(signatures, char_counts, threshold=0.85, bands=16, rows=8)
    cluster_of: dict[str, int] = {}
    for idx, cluster in enumerate(clusters):
        for rid in cluster.member_repo_ids:
            cluster_of[rid] = idx

    def together(a: str, b: str) -> bool:
        return a in cluster_of and b in cluster_of and cluster_of[a] == cluster_of[b]

    detected = sum(1 for a, b in near_pairs if together(a, b))
    false_positives = sum(1 for a, b in far_pairs if together(a, b))
    elapsed = time.monotonic() - started

    assert detected / 20 >= 0.95, f"detected only {detected}/20 planted near-duplicates"
    assert false_positives / 20 <= 0.01, f"{false_positives}/20 dissimilar pairs clustered"
    assert elapsed < 60.0, f"criterion 3 took {elapsed:.1f}s (budget 60s)"
    _report(
        f"criterion 3 — detection {detected}/20, false positives {false_positives}/20, "
        f"200 repos in {elapsed:.1f}s"
    )


# ----------------------------------------------------------------------
# Criterion 4 — decontamination plants
# ----------------------------------------------------------------------

def test_criterion_4_decontamination_plants():
    entries = []
    ten_gram_plants = []
    for i in range(50):
        test_string = " ".join(f"tg{i}_{j}" for j in range(12))
        entries.append((test_string, f"bench{i % 4}"))
        window = " ".join(test_string.split()[1:11])
        ten_gram_plants.append(f"filler start {window} filler end")

    exact_plants = []
    for i in range(50):
        n = 3 + i % 7  # lengths 3..9
        test_string = " ".join(f"ex{i}_{j}" for j in range(n))
        entries.append((test_string, "exact-bench"))
        exact_plants.append(f"before {test_string} after")

    near_misses = []
    for i in range(50):
        test_string = " ".join(f"nm{i}_{j}" for j in range(10))
        entries.append((test_string, "near-bench"))
        nine = " ".join(test_string.split()[:9])
        near_misses.append(f"lead {nine} divergent_{i} tail")

    index = build_contamination_index(entries)

    flagged_ten = sum(1 for s in ten_gram_plants if scan_text(s, index).hit)
    flagged_exact = sum(1 for s in exact_plants if scan_text(s, index).hit)
    flagged_near = sum(1 for s in near_misses if scan_text(s, index).hit)

    assert flagged_ten == 50, f"{flagged_ten}/50 ten-gram plants flagged"
    assert flagged_exact == 50, f"{flagged_exact}/50 exact plants flagged"
    assert flagged_near == 0, f"{flagged_near}/50 nine-token near-misses wrongly flagged"
    _report("criterion 4 — 50/50 ten-gram, 50/50 exact, 0/50 near-miss flags")


# ----------------------------------------------------------------------
# Criterion 5 — FIM round trip, rate concentration, layout literal
# ----------------------------------------------------------------------

def test_criterion_5_fim_properties():
    alphabet = string.ascii_letters + string.digits + " \n\t(){}[]=+-*.,:;_"
    rng = random.Random(2718)
    cfg = FimConfig(fim_rate=0.5, mode="psm", seed=0)

    transformed = 0
    n = 10_000
    for i in range(n):
        doc = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 160)))
        out = fim_transform(doc, i, cfg, SentinelSet())
        assert out is not None
        if out.startswith(FIM_START):
            transformed += 1
        assert reassemble(out) == doc
        assert reassemble(out).encode("utf-8") == doc.encode("utf-8")

    half_width = 2.576 * (0.25 / n) ** 0.5  # 99% binomial CI at p=0.5
    fraction = transformed / n
    assert abs(fraction - 0.5) <= half_width, f"fraction {fraction} outside 99% CI"

    forced = fim_split("abcdef", 2, 4, SentinelSet(), "psm")
    assert forced == "<｜fim_start｜>ab<｜fim_hole｜>ef<｜fim_end｜>cd<|eos_token|>"
    assert forced == FIM_START + "ab" + "<｜fim_hole｜>" + "ef" + "<｜fim_end｜>" + "cd" + EOS

    _report(
        f"criterion 5 — 10000/10000 byte-exact round trips, "
        f"rate {fraction:.4f} within ±{half_width:.4f}, layout literal matches"
    )


# ----------------------------------------------------------------------
# Criterion 6 — packing conservation
# ----------------------------------------------------------------------

def test_criterion_6_packing_conservation():
    rng = random.Random(42)
    alphabet = string.ascii_letters + string.digits + " \n"
    docs = [
        "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 500)))
        for _ in range(1000)
    ]
    tokenizer = ByteTokenizer()
    entry_len = 128
    result = pack_entries(docs, tokenizer, entry_len)

    independent_total = sum(len(tokenizer.encode(d)) for d in docs)
    packed = sum(len(row) for row in result.entries)
    assert result.total_tokens == independent_total
    assert packed + result.dropped_tokens == independent_total
    assert all(len(row) == entry_len for row in result.entries)
    _report(
        f"criterion 6 — {len(result.entries)} entries x {entry_len} tokens "
        f"+ {result.dropped_tokens} dropped = {independent_total} total"
    )


# ----------------------------------------------------------------------
# Criterion 7 — end-to-end determinism across worker counts
# ----------------------------------------------------------------------

def _tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_criterion_7_end_to_end_determinism(tmp_path, pooled):
    cfg1 = fixture_config(tmp_path, out_name="run_w1", workers=1)
    cfg8 = fixture_config(tmp_path, out_name="run_w8", workers=8)
    run_pipeline(cfg1)
    run_pipeline(cfg8)
    assert pooled == [4, 4, 3]  # order, dedup and decontaminate forked at 8 workers

    tree1 = _tree_bytes(Path(cfg1.output_dir))
    tree8 = _tree_bytes(Path(cfg8.output_dir))
    assert tree1.keys() == tree8.keys()
    diffs = [name for name in tree1 if tree1[name] != tree8[name]]
    assert diffs == [], f"files differ between worker counts: {diffs}"
    shard_count = sum(1 for name in tree1 if name.startswith("entries/"))
    assert shard_count > 0
    _report(
        f"criterion 7 — {len(tree1)} output files byte-identical at workers=1 and workers=8"
    )


# ----------------------------------------------------------------------
# Criterion 8 — stats report invariants and format
# ----------------------------------------------------------------------

def test_criterion_8_stats_report(tmp_path):
    # Fixture-corpus stats file
    cfg = fixture_config(tmp_path, out_name="stats_run")
    summary = run_pipeline(cfg)
    stats_payload = json.loads((Path(cfg.output_dir) / "stats.json").read_text())
    prop_sum = sum(row["proportion"] for row in stats_payload["languages"])
    assert abs(prop_sum - 100.0) <= 0.05
    assert stats_payload["total"]["size_bytes"] == sum(
        row["size_bytes"] for row in stats_payload["languages"]
    )
    assert stats_payload["total"]["files"] == sum(
        row["files"] for row in stats_payload["languages"]
    )

    rendered = render_stats_table(summary.stats)
    for column in ("Language", "Size (GB)", "Files (k)", "Prop. (%)"):
        assert column in rendered
    assert any(line.startswith("Total") for line in rendered.splitlines())

    # Random corpora: proportions and totals always consistent
    rng = random.Random(8)
    for _ in range(100):
        n = rng.randint(1, 87)
        lang_bytes = {f"L{i:02d}": rng.randint(1, 5_000_000) for i in range(n)}
        lang_files = {k: rng.randint(1, 500) for k in lang_bytes}
        stats = compute_corpus_stats(lang_bytes, lang_files)
        assert abs(sum(r["proportion"] for r in stats["languages"]) - 100.0) <= 0.05
        assert sum(r["size_bytes"] for r in stats["languages"]) == stats["total"]["size_bytes"]
        assert sum(r["files"] for r in stats["languages"]) == stats["total"]["files"]

    _report("criterion 8 — proportions sum to 100.00 ± 0.05 and totals equal column sums")
