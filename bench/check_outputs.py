"""Checks of a repopipe output directory against the generator's ground
truth and against properties the method must have.

Nothing here calls into repopipe: shingling, token decoding and the
PSM layout are re-implemented from the README, so a fault in the
program cannot hide behind the same fault in its checker. Each check
raises CheckError with the first discrepancy it finds.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re

import numpy as np

# Default ByteTokenizer ids: bytes are 0..255, the sentinels follow in
# config order (fim_start, fim_hole, fim_end, eos).
FIM_START, FIM_HOLE, FIM_END, EOS = 256, 257, 258, 259
SHINGLE_WIDTH = 5
CLUSTER_MIN_JACCARD = 0.95
FIM_SIGMAS = 5.0  # binomial bound on fim_applied, in standard deviations
STAGES = ("filter", "order", "dedup", "decontaminate", "build")
# Path-comment prefix per language, from the README's sample format;
# every other language the generator writes takes "//".
COMMENT_PREFIX = {"Python": "#", "YAML": "#"}


class CheckError(Exception):
    pass


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def read_jsonl(path: str) -> list[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def manifest(out: str, stage: str) -> dict:
    with open(os.path.join(out, "manifests", f"{stage}.json"), encoding="utf-8") as fh:
        return json.load(fh)


def output_digest(out: str) -> dict[str, str]:
    """sha256 of every output file except run.json, which records which
    stages ran and so differs between a fresh run and a resume."""
    digest = {}
    for dirpath, _, names in os.walk(out):
        for name in names:
            full = os.path.join(dirpath, name)
            rel = os.path.relpath(full, out)
            if rel != "run.json":
                with open(full, "rb") as fh:
                    digest[rel] = hashlib.sha256(fh.read()).hexdigest()
    return digest


def work_digest(out: str) -> dict[str, str]:
    return {k: v for k, v in output_digest(out).items() if k.startswith("work" + os.sep)}


def output_bytes(out: str) -> int:
    return sum(
        os.path.getsize(os.path.join(dirpath, name))
        for dirpath, _, names in os.walk(out)
        for name in names
    )


# -----------------------------------------------------------------------
# Per-stage checks
# -----------------------------------------------------------------------


def check_filter(out: str, truth: dict) -> None:
    counters = manifest(out, "filter")["counters"]
    planted = {rule: n for rule, n in truth["filter_drops"].items() if n}
    require(counters == planted, f"filter counters {counters} != planted drops {planted}")
    kept = {(r["repo_id"], r["path"]): r["language"] for r in read_jsonl(os.path.join(out, "work/files.jsonl"))}
    expected = {(rid, p): lang for rid, repo in truth["repos"].items() for p, lang in repo["kept"]}
    missing = sorted(set(expected) - set(kept))[:3]
    extra = sorted(set(kept) - set(expected))[:3]
    require(not missing and not extra, f"filter kept files differ: missing {missing}, unexpected {extra}")
    wrong = [k for k, lang in expected.items() if kept[k] != lang][:3]
    require(not wrong, f"filter assigned wrong languages to {wrong}")


def check_order(out: str, truth: dict, corpus: str) -> None:
    samples = read_jsonl(os.path.join(out, "work/samples.jsonl"))
    ids = [s["repo_id"] for s in samples]
    require(ids == sorted(truth["repos"]), "order output does not hold one sample per repo in id order")
    for s in samples:
        rid = s["repo_id"]
        langs = dict(truth["repos"][rid]["kept"])
        order = s["ordered_paths"]
        require(sorted(order) == sorted(langs), f"{rid}: ordered_paths is not a permutation of its kept files")
        pos = {p: i for i, p in enumerate(order)}
        for dependent, dependency in truth["edges"][rid]:
            require(
                pos[dependency] < pos[dependent],
                f"{rid}: {dependency} must precede its dependent {dependent}",
            )
        parts = []
        for p in order:
            with open(os.path.join(corpus, rid, p), encoding="utf-8") as fh:
                parts.append(f"{COMMENT_PREFIX.get(langs[p], '//')} {p}\n{fh.read()}\n\n")
        require(s["text"] == "".join(parts), f"{rid}: sample text is not its files concatenated in order")


def shingles(text: str) -> set[tuple[str, ...]]:
    """README rule: lowercase, split on word boundaries, SHINGLE_WIDTH tokens."""
    toks = re.findall(r"\w+", text.lower())
    if len(toks) < SHINGLE_WIDTH:
        return {tuple(toks)}
    return {tuple(toks[i : i + SHINGLE_WIDTH]) for i in range(len(toks) - SHINGLE_WIDTH + 1)}


def jaccard(a: str, b: str) -> float:
    sa, sb = shingles(a), shingles(b)
    return len(sa & sb) / len(sa | sb)


def check_dedup(out: str, truth: dict) -> None:
    samples = read_jsonl(os.path.join(out, "work/samples.jsonl"))
    text = {s["repo_id"]: s["text"] for s in samples}
    dropped: set[str] = set()
    for cluster in truth["clusters"]:
        members = cluster["members"]
        for i, a in enumerate(members):
            for b in members[i + 1 :]:
                j = jaccard(text[a], text[b])
                require(j >= CLUSTER_MIN_JACCARD, f"planted cluster pair {a}, {b} has Jaccard {j:.3f}")
        largest = min(members, key=lambda rid: (-len(text[rid]), rid))
        require(largest == cluster["survivor"],
                f"cluster {members}: largest member is {largest}, planted {cluster['survivor']}")
        dropped.update(m for m in members if m != largest)
    kept = read_jsonl(os.path.join(out, "work/samples_dedup.jsonl"))
    expected = [s for s in samples if s["repo_id"] not in dropped]
    got_ids = [s["repo_id"] for s in kept]
    exp_ids = [s["repo_id"] for s in expected]
    require(got_ids == exp_ids, f"dedup kept or dropped {sorted(set(got_ids) ^ set(exp_ids))[:4]} wrongly")
    require(kept == expected, "dedup altered a surviving sample")


def check_decontam(out: str, truth: dict) -> None:
    before = [s["repo_id"] for s in read_jsonl(os.path.join(out, "work/samples_dedup.jsonl"))]
    after = [s["repo_id"] for s in read_jsonl(os.path.join(out, "work/samples_clean.jsonl"))]
    excluded = set(before) - set(after)
    leaks = truth["leaks"]
    require(excluded == set(leaks), f"decontaminate excluded {sorted(excluded)}, planted leaks {sorted(leaks)}")
    require(after == [r for r in before if r not in excluded], "decontaminate reordered samples")
    survived = set(truth["near_misses"]) - set(after)
    require(not survived, f"near-miss plants were excluded: {sorted(survived)}")
    report = read_jsonl(os.path.join(out, "reports/contamination_report.jsonl"))
    require(sorted(r["repo_id"] for r in report) == sorted(leaks),
            "contamination report lists other repos than the leaks")
    for row in report:
        label = leaks[row["repo_id"]]
        require(label in row["benchmarks"], f"{row['repo_id']}: report lacks leak label {label}")
    counters = manifest(out, "decontaminate")["counters"]
    require(counters == ({"contaminated": len(leaks)} if leaks else {}), f"decontaminate counters {counters}")


def _entries(out: str, build: dict) -> tuple[np.ndarray, list[list[int]]]:
    """The concatenated token stream and per-entry doc boundaries."""
    entry_len = build["entry_len"]
    chunks: list[np.ndarray] = []
    bounds: list[list[int]] = []
    for entry in build["outputs"]:
        path = os.path.join(out, entry["path"])
        if path.endswith(".boundaries.jsonl"):
            rows = read_jsonl(path)
            require(len(rows) == entry["records"],
                    f"{entry['path']}: {len(rows)} rows, manifest says {entry['records']}")
            bounds += [r["doc_boundaries"] for r in rows]
        elif path.endswith(".bin"):
            ids = np.fromfile(path, dtype="<u4")
            require(ids.size == entry["records"] * entry_len,
                    f"{entry['path']}: {ids.size} ids for {entry['records']} entries")
            chunks.append(ids)
        else:
            for r in read_jsonl(path):
                require(len(r["token_ids"]) == entry_len,
                        f"{entry['path']}: entry of {len(r['token_ids'])} tokens")
                chunks.append(np.asarray(r["token_ids"], dtype=np.uint32))
                bounds.append(r["doc_boundaries"])
    stream = np.concatenate(chunks) if chunks else np.zeros(0, dtype=np.uint32)
    return stream, bounds


def _bytes(ids: np.ndarray) -> bytes:
    require(bool((ids < 256).all()), "sentinel id inside a document segment")
    return ids.astype(np.uint8).tobytes()


def _undo_psm(seg: np.ndarray, original: bytes, index: int) -> bool:
    """Check one document's tokens against its clean text; a segment
    without a trailing eos was cut by the end of the stream and must be
    a prefix of a valid layout. Returns whether FIM was applied.
    """
    cut = seg[-1] != EOS
    body = seg if cut else seg[:-1]
    if body.size == 0 or body[0] != FIM_START:
        data = _bytes(body)
        require(original.startswith(data) if cut else data == original,
                f"document {index} does not decode to its clean sample")
        return False
    marks = [i for i in np.flatnonzero(body >= 256) if i > 0]
    ids = [int(body[i]) for i in marks]
    require(ids == [FIM_HOLE, FIM_END][: len(ids)] and (len(ids) == 2 or cut),
            f"document {index}: bad sentinel layout {ids}")
    edges = [0, *marks, body.size]
    parts = [_bytes(body[edges[k] + 1 : edges[k + 1]]) for k in range(len(edges) - 1)]
    prefix, suffix, middle = parts + [b""] * (3 - len(parts))
    require(original.startswith(prefix), f"document {index}: FIM prefix does not match")
    if len(ids) < 2:  # cut inside the prefix or the suffix
        require(original.find(suffix, len(prefix)) >= 0, f"document {index}: FIM suffix does not match")
        return True
    require(len(prefix) + len(suffix) <= len(original) and original.endswith(suffix),
            f"document {index}: FIM suffix does not match")
    hole = original[len(prefix) : len(original) - len(suffix)]
    require(hole.startswith(middle) if cut else hole == middle,
            f"document {index}: undoing PSM does not give the clean sample")
    return True


def check_build(out: str, truth: dict, fim_rate: float) -> None:
    build = manifest(out, "build")
    entry_len = build["entry_len"]
    clean = [s["text"].encode("utf-8") for s in read_jsonl(os.path.join(out, "work/samples_clean.jsonl"))]
    require(build["counters"] == {}, f"build dropped documents: {build['counters']}")
    n_docs = len(clean)
    fim = build["fim_applied"]
    total = build["total_tokens"]
    require(total == sum(map(len, clean)) + n_docs + 3 * fim,
            f"total_tokens {total} != bytes + documents + 3 x fim_applied")
    require(build["output_records"] * entry_len + build["dropped_tokens"] == total,
            "entry tokens + dropped tokens != total tokens")
    stream, bounds = _entries(out, build)
    require(len(bounds) == build["output_records"] and stream.size == len(bounds) * entry_len,
            "entry count does not match the manifest")
    starts = [e * entry_len + b for e, bs in enumerate(bounds) for b in bs]
    require(starts == sorted(set(starts)) and (not starts or starts[0] == 0),
            "doc boundaries are not increasing from 0")
    require(len(starts) <= n_docs, "more documents in the entries than clean samples")
    seen_fim = 0
    for k, start in enumerate(starts):
        end = starts[k + 1] if k + 1 < len(starts) else stream.size
        seg = stream[start:end]
        require(k + 1 == len(starts) or seg[-1] == EOS, f"document {k} is cut before its end")
        seen_fim += _undo_psm(seg, clean[k], k)
    require(seen_fim <= fim <= seen_fim + n_docs - len(starts), f"fim_applied {fim} disagrees with the entries")
    if n_docs >= 100:
        mean, sd = n_docs * fim_rate, math.sqrt(n_docs * fim_rate * (1 - fim_rate))
        require(abs(fim - mean) <= FIM_SIGMAS * sd,
                f"fim_applied {fim} outside binomial bounds for {n_docs} documents")


def check_manifests(out: str) -> None:
    for stage in STAGES:
        m = manifest(out, stage)
        require(m["completed"], f"{stage} manifest not completed")
        dropped = sum(m["counters"].values())
        if stage == "order":  # files in, repos out: conservation counts files
            require(m["output_file_total"] + dropped == m["input_records"], "order lost files")
        elif stage == "build":  # documents in, entries out
            require(m["input_records"] == len(read_jsonl(os.path.join(out, "work/samples_clean.jsonl"))),
                    "build input_records != clean samples")
        else:
            require(m["input_records"] == m["output_records"] + dropped,
                    f"{stage}: input_records != output_records + sum(counters)")


def check_all(out: str, truth: dict, corpus: str, fim_rate: float) -> None:
    check_manifests(out)
    check_filter(out, truth)
    check_order(out, truth, corpus)
    check_dedup(out, truth)
    check_decontam(out, truth)
    check_build(out, truth, fim_rate)
