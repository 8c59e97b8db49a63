from __future__ import annotations

import collections
import concurrent.futures
import copy
import hashlib
import json
import os
from concurrent.futures import Future
from pathlib import Path

import pytest
from conftest import build_fixture_corpus, code_lines, fixture_config, output_digest, write_repo
from repopipe.config import PipelineConfig
from repopipe.pipeline import (
    CLEAN_OUT,
    DEDUP_OUT,
    FILES_OUT,
    GRAPHS_OUT,
    SAMPLES_OUT,
    run_pipeline,
)


def read_jsonl(path: Path) -> list[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def read_manifest(cfg: PipelineConfig, stage: str) -> dict:
    with open(Path(cfg.output_dir) / "manifests" / f"{stage}.json") as fh:
        return json.load(fh)


def fresh_run(cfg: PipelineConfig, out: Path) -> Path:
    """The same config run from scratch into `out`."""
    fresh = copy.deepcopy(cfg)
    fresh.output_dir = str(out)
    run_pipeline(fresh)
    return out


class TestFixtureRun:
    @pytest.fixture(autouse=True)
    def run(self, tmp_path):
        self.cfg = fixture_config(tmp_path)
        self.summary = run_pipeline(self.cfg)
        self.out = Path(self.cfg.output_dir)

    def test_planted_drops_match_counters_exactly(self):
        dedup = read_manifest(self.cfg, "dedup")
        decon = read_manifest(self.cfg, "decontaminate")
        assert dedup["counters"] == {"near_duplicate": 1}
        assert decon["counters"] == {"contaminated": 1}

    def test_survivors_are_representative_and_clean_repo(self):
        clean = read_jsonl(self.out / CLEAN_OUT)
        assert [rec["repo_id"] for rec in clean] == ["repo_alpha", "repo_delta"]

    def test_survivors_pass_dedup_whole(self):
        samples = {rec["repo_id"]: rec for rec in read_jsonl(self.out / SAMPLES_OUT)}
        kept = read_jsonl(self.out / DEDUP_OUT)
        assert [rec["repo_id"] for rec in kept] == ["repo_alpha", "repo_delta", "repo_gamma"]
        assert all(rec == samples[rec["repo_id"]] for rec in kept)

    def test_delta_ordered_dependency_first(self):
        samples = {rec["repo_id"]: rec for rec in read_jsonl(self.out / SAMPLES_OUT)}
        assert samples["repo_delta"]["ordered_paths"] == ["util.py", "main.py"]
        assert samples["repo_delta"]["text"].startswith("# util.py\n")

    def test_accounting_identity_every_stage(self):
        f = read_manifest(self.cfg, "filter")
        assert f["input_records"] == f["output_records"] + sum(f["counters"].values())
        for stage in ("dedup", "decontaminate"):
            m = read_manifest(self.cfg, stage)
            assert m["input_records"] == m["output_records"] + sum(m["counters"].values())
        order = read_manifest(self.cfg, "order")
        assert order["output_file_total"] == order["input_records"]

    def test_token_conservation_in_build(self):
        build = read_manifest(self.cfg, "build")
        entry_tokens = build["output_records"] * build["entry_len"]
        assert entry_tokens + build["dropped_tokens"] == build["total_tokens"]

    def test_entries_written_and_sharded(self):
        entries_dir = self.out / "entries"
        shards = sorted(entries_dir.glob("entries-*.jsonl"))
        assert len(shards) >= 2
        build = read_manifest(self.cfg, "build")
        per_shard = self.cfg.build.entries_per_shard
        total = sum(len(read_jsonl(s)) for s in shards)
        assert total == build["output_records"]
        for shard in shards[:-1]:
            assert len(read_jsonl(shard)) == per_shard
        for rec in read_jsonl(shards[0]):
            assert len(rec["token_ids"]) == self.cfg.build.entry_len

    def test_reports_emitted(self):
        dedup_report = read_jsonl(self.out / "reports" / "dedup_report.jsonl")
        assert len(dedup_report) == 1
        assert dedup_report[0]["representative"] == "repo_alpha"
        assert set(dedup_report[0]["members"]) == {"repo_alpha", "repo_beta"}
        contam = read_jsonl(self.out / "reports" / "contamination_report.jsonl")
        assert [r["repo_id"] for r in contam] == ["repo_gamma"]
        assert contam[0]["benchmarks"] == ["bench-a"]

    def test_stats_single_language_100_percent(self):
        stats = json.loads((self.out / "stats.json").read_text())
        assert [row["language"] for row in stats["languages"]] == ["Python"]
        assert stats["languages"][0]["proportion"] == 100.0
        assert any(
            line.startswith("Total") for line in (self.out / "stats.txt").read_text().splitlines()
        )

    def test_rerun_skips_all_stages_and_outputs_identical(self):
        before = (self.out / CLEAN_OUT).read_bytes()
        summary2 = run_pipeline(self.cfg)
        assert summary2.completed_stages == []
        assert set(summary2.skipped_stages) == {"filter", "order", "dedup", "decontaminate", "build"}
        assert (self.out / CLEAN_OUT).read_bytes() == before


class TestFileRecords:
    def test_file_record_has_utf8_byte_size_and_language(self, tmp_path):
        content = "name = '中文'\n"
        write_repo(tmp_path / "corpus", "r1", {"pkg/mod.py": content})
        cfg = PipelineConfig(inputs=[str(tmp_path / "corpus")], output_dir=str(tmp_path / "out"))
        run_pipeline(cfg)
        [rec] = read_jsonl(tmp_path / "out" / FILES_OUT)
        assert rec["language"] == "Python"
        assert rec["byte_size"] == len(content.encode("utf-8")) == 16

    def test_order_rejects_a_repo_whose_files_come_apart(self, tmp_path):
        # Order reads one repo at a time, so its files must be together.
        from repopipe.pipeline import StageFailure, run_stage

        cfg = fixture_config(tmp_path)
        run_stage(cfg, "filter")
        files = Path(cfg.output_dir) / FILES_OUT
        lines = files.read_text(encoding="utf-8").splitlines(keepends=True)
        assert json.loads(lines[0])["repo_id"] == json.loads(lines[1])["repo_id"] == "repo_alpha"
        files.write_text("".join(lines[1:] + lines[:1]), encoding="utf-8")
        # Record the shuffled file's digest, so that order takes it as done.
        manifest = read_manifest(cfg, "filter")
        manifest["outputs"][0]["sha256"] = hashlib.sha256(files.read_bytes()).hexdigest()
        (Path(cfg.output_dir) / "manifests" / "filter.json").write_text(json.dumps(manifest))
        with pytest.raises(StageFailure, match="'repo_alpha' comes after 'repo_gamma'"):
            run_stage(cfg, "order")


@pytest.mark.xfail(strict=True, reason="ROADMAP item 5: files with no edges keep their JSONL line order")
def test_order_does_not_follow_jsonl_line_order(tmp_path):
    from repopipe.pipeline import run_stage

    orders = []
    for name, numbers in (("sorted", range(6)), ("shuffled", (0, 2, 3, 5, 4, 1))):
        corpus = tmp_path / f"{name}.jsonl"
        corpus.write_text("".join(
            json.dumps({"repo_id": "r", "path": f"m{i}.py", "content": code_lines(i)}) + "\n" for i in numbers
        ))
        cfg = PipelineConfig(inputs=[str(corpus)], output_dir=str(tmp_path / name))
        run_stage(cfg, "filter")
        run_stage(cfg, "order")
        [sample] = read_jsonl(tmp_path / name / SAMPLES_OUT)
        orders.append(sample["ordered_paths"])
    assert orders[0] == orders[1]


class TestVacuousRun:
    def test_empty_input_directory(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        cfg = PipelineConfig(inputs=[str(empty)], output_dir=str(tmp_path / "out"))
        summary = run_pipeline(cfg)
        assert summary.stats["total"]["size_bytes"] == 0
        assert summary.stats["languages"] == []
        stats = json.loads((tmp_path / "out" / "stats.json").read_text())
        assert stats["total"]["files"] == 0

    def test_empty_corpus_writes_the_reports_it_is_asked_for(self, tmp_path):
        # A stage with no samples runs the same code as one with samples.
        empty = tmp_path / "empty"
        empty.mkdir()
        bench = tmp_path / "bench.jsonl"
        bench.write_text(json.dumps({"text": "too short", "benchmark": "b"}) + "\n")
        cfg = PipelineConfig(inputs=[str(empty)], output_dir=str(tmp_path / "out"))
        cfg.dedup.report = True
        cfg.decontaminate.benchmark_files = [str(bench)]
        run_pipeline(cfg)
        dedup, decon = read_manifest(cfg, "dedup"), read_manifest(cfg, "decontaminate")
        reports = ["reports/dedup_report.jsonl", "reports/contamination_report.jsonl"]
        assert [entry["path"] for entry in dedup["outputs"]] == [DEDUP_OUT, reports[0]]
        assert [entry["path"] for entry in decon["outputs"]] == [CLEAN_OUT, reports[1]]
        for rel in reports:
            assert (tmp_path / "out" / rel).read_bytes() == b""
        assert decon["benchmark_strings_skipped_short"] == 1


class TestStageToggles:
    def test_dedup_disabled_keeps_near_duplicate(self, tmp_path):
        cfg = fixture_config(tmp_path)
        cfg.stages.dedup = False
        run_pipeline(cfg)
        clean = read_jsonl(Path(cfg.output_dir) / CLEAN_OUT)
        assert "repo_beta" in [rec["repo_id"] for rec in clean]

    def test_decontaminate_disabled_keeps_contaminated(self, tmp_path):
        cfg = fixture_config(tmp_path)
        cfg.stages.decontaminate = False
        run_pipeline(cfg)
        clean = read_jsonl(Path(cfg.output_dir) / CLEAN_OUT)
        assert "repo_gamma" in [rec["repo_id"] for rec in clean]

    def test_filter_disabled_passes_unknown_language(self, tmp_path):
        corpus, bench = build_fixture_corpus(tmp_path)
        write_repo(corpus, "repo_misc", {"data.xyz": "strange contents\n"})
        cfg = fixture_config(tmp_path)
        cfg.stages.filter = False
        run_pipeline(cfg)
        files = read_jsonl(Path(cfg.output_dir) / FILES_OUT)
        assert any(rec["path"] == "data.xyz" for rec in files)

    def test_order_disabled_keeps_walk_order(self, tmp_path):
        cfg = fixture_config(tmp_path)
        cfg.stages.order = False
        run_pipeline(cfg)
        samples = {r["repo_id"]: r for r in read_jsonl(Path(cfg.output_dir) / SAMPLES_OUT)}
        assert samples["repo_delta"]["ordered_paths"] == ["main.py", "util.py"]

    # sha256 of each manifest of the run below, recorded from stages that
    # re-encoded each record they copied: lines copied as read must match.
    MANIFESTS_DEDUP_AND_DECONTAMINATE_OFF = {
        "manifests/filter.json":
            "5a8d3db36b8c4622db03c11828f7c392b569a01c0e3a55be8dec8a99d748d004",
        "manifests/order.json":
            "2d977b92d51e1e0a8c33f26a912e9155eafe9bed170e8c98bcc9f2862ef5dd51",
        "manifests/dedup.json":
            "ed86820966497903555bbcc4be3aa175bd5c0f545c5401ebdc900f380abfd311",
        "manifests/decontaminate.json":
            "31669ef2cc326cfd3f45f6266b111c241f4e88873a2b651c5b2767a27c846d4b",
        "manifests/build.json":
            "c1c8442fd654e2dc5523af1d76a676c3c5abc573ca467a7cb13d58d95d7c1ec1",
    }

    def test_dedup_and_decontaminate_disabled_copy_their_input(self, tmp_path, monkeypatch):
        build_fixture_corpus(tmp_path)
        monkeypatch.chdir(tmp_path)  # relative paths, so config_hash is fixed
        cfg = PipelineConfig(inputs=["corpus"], output_dir="out", seed=7)
        cfg.decontaminate.benchmark_files = ["benchmarks.jsonl"]
        cfg.stages.dedup = cfg.stages.decontaminate = False
        run_pipeline(cfg)
        out = tmp_path / "out"
        samples = (out / SAMPLES_OUT).read_bytes()
        assert (out / DEDUP_OUT).read_bytes() == samples
        assert (out / CLEAN_OUT).read_bytes() == samples
        manifests = {rel: digest for rel, digest in output_digest(out).items() if rel.startswith("manifests/")}
        assert manifests == self.MANIFESTS_DEDUP_AND_DECONTAMINATE_OFF

    def test_build_disabled_stops_after_clean_samples(self, tmp_path):
        cfg = fixture_config(tmp_path)
        cfg.stages.build = False
        run_pipeline(cfg)
        out = Path(cfg.output_dir)
        assert (out / CLEAN_OUT).exists()
        assert not (out / "entries").exists()


def test_dedup_decodes_each_record_once(tmp_path, monkeypatch):
    """The second pass of dedup reads lines, not records: each record of
    its input is decoded once, on the pass that signs it."""
    from repopipe import pipeline

    passes: list[collections.Counter] = []
    stage_dedup = pipeline.stage_dedup

    def counted(cfg, read, out):
        def counting(*args, **kwargs):
            seen = collections.Counter()
            passes.append(seen)
            for item in read(*args, **kwargs):
                seen[type(item)] += 1
                yield item
        stage_dedup(cfg, counting, out)

    monkeypatch.setattr(pipeline, "stage_dedup", counted)
    cfg = fixture_config(tmp_path)
    run_pipeline(cfg)
    n = read_manifest(cfg, "dedup")["input_records"]
    assert n == 4
    assert passes == [{dict: n}, {bytes: n}]


def test_a_document_the_tokenizer_fails_on_is_counted_and_the_rest_packed(tmp_path, monkeypatch):
    from repopipe.packing import ByteTokenizer

    texts = {rid: code_lines(seed) for seed, rid in enumerate(["r0", "r1", "r2"])}
    texts["r1"] += "broken_marker = 1\n"
    for rid, text in texts.items():
        write_repo(tmp_path / "corpus", rid, {"main.py": text})
    encoded: list[int] = []
    encode = ByteTokenizer.encode

    def flaky(self, text):
        if "broken_marker" in text:
            raise RuntimeError("cannot encode")
        ids = encode(self, text)
        encoded.append(len(ids))
        return ids

    monkeypatch.setattr(ByteTokenizer, "encode", flaky)
    cfg = PipelineConfig(inputs=[str(tmp_path / "corpus")], output_dir=str(tmp_path / "out"))
    cfg.build.fim_rate, cfg.build.pad_final, cfg.build.entry_len = 0.0, True, 64
    run_pipeline(cfg)
    build = read_manifest(cfg, "build")
    assert build["counters"] == {"tokenizer_failure": 1}
    assert build["input_records"] == 3
    assert build["total_tokens"] == sum(encoded) > 0
    rows = [row for shard in sorted((Path(cfg.output_dir) / "entries").glob("*.jsonl"))
            for row in read_jsonl(shard)]
    packed = ByteTokenizer().decode(i for row in rows for i in row["token_ids"])
    assert texts["r0"] in packed and texts["r2"] in packed
    assert "broken_marker" not in packed


class TestManifestIdentities:
    """README's conservation identities and manifest fields hold with
    every stage on and with each stage switched off in turn."""

    EXTRA_FIELDS = {
        "filter": ("raw_records", "ingest_counters"),
        "order": ("output_file_total",),
        "dedup": (),
        "decontaminate": ("benchmark_strings_skipped_short",),
        "build": ("entry_len", "fim_applied", "total_tokens", "dropped_tokens", "padded_tokens"),
    }

    @pytest.mark.parametrize("disabled", [None, "filter", "order", "dedup", "decontaminate", "build"])
    def test_every_manifest_accounts_for_its_records(self, tmp_path, disabled):
        from repopipe.pipeline import STAGES

        cfg = fixture_config(tmp_path)
        cfg.dump_graphs = True
        if disabled:
            setattr(cfg.stages, disabled, False)
        run_pipeline(cfg)
        out = Path(cfg.output_dir)
        previous = None
        for stage in STAGES:
            m = read_manifest(cfg, stage.name)
            assert all(name in m for name in self.EXTRA_FIELDS[stage.name]), stage.name
            dropped = sum(m["counters"].values())
            if stage.name == "order":
                assert m["input_records"] == m["output_file_total"] + dropped
            elif stage.name != "build":
                assert m["input_records"] == m["output_records"] + dropped, stage.name
            if previous is None:
                assert m["raw_records"] == m["input_records"] + sum(m["ingest_counters"].values())
            else:
                assert m["input_records"] == previous["output_records"], stage.name
            lines = {
                entry["path"]: (out / entry["path"]).read_bytes().count(b"\n")
                for entry in m["outputs"] if entry["path"].endswith(".jsonl")
            }
            assert {entry["path"]: entry["records"] for entry in m["outputs"]} == lines
            if stage.name == "build":
                assert m["output_records"] == sum(lines.values())
                assert (m["output_records"] > 0) == (disabled != "build")
            previous = m


class TestWorkerCountInvariance:
    def test_screening_bytes_same_at_one_and_two_workers(self, tmp_path, pooled):
        # A second benchmark file adds an exact-length hit in repo_delta to
        # the 10-gram hit in repo_gamma, so the pool workers find both kinds.
        probes = tmp_path / "probes.jsonl"
        probe = code_lines(seed=37, n_lines=30).splitlines()[0]
        probes.write_text(json.dumps({"text": probe, "benchmark": "probe"}) + "\n", encoding="utf-8")
        digests = {}
        for workers in (1, 2):
            cfg = fixture_config(tmp_path, out_name=f"w{workers}", workers=workers)
            cfg.decontaminate.benchmark_files.append(str(probes))
            run_pipeline(cfg)
            digests[workers] = output_digest(Path(cfg.output_dir))
        # Only the 2-worker run pools: every item of order, dedup and
        # decontaminate; filter always runs in-process.
        assert pooled == [4, 4, 3]
        report = read_jsonl(tmp_path / "w2" / "reports" / "contamination_report.jsonl")
        assert [(r["repo_id"], r["benchmarks"]) for r in report] == [
            ("repo_delta", ["probe"]), ("repo_gamma", ["bench-a"]),
        ]
        for rel in ("work/samples_clean.jsonl", "reports/contamination_report.jsonl",
                    "manifests/decontaminate.json"):
            assert digests[1][rel] == digests[2][rel], rel
        assert digests[1] == digests[2]

    def test_bytes_same_when_the_pool_starts_inside_a_stage(self, tmp_path, pooled, monkeypatch):
        # One character maps a stage's first item in-process and the rest
        # in a pool.
        import repopipe.pipeline as pipeline_module

        monkeypatch.setattr(pipeline_module, "POOL_MIN_CHARS", 1)
        digests = {}
        for workers in (1, 2):
            cfg = fixture_config(tmp_path, out_name=f"w{workers}", workers=workers)
            run_pipeline(cfg)
            digests[workers] = output_digest(Path(cfg.output_dir))
        assert pooled == [3, 3, 2]
        assert digests[1] == digests[2]

    @pytest.fixture
    def widths(self, monkeypatch) -> list[int]:
        """Each pool `_pmap` starts runs its tasks in-process and adds its
        width here."""
        import repopipe.pipeline as pipeline_module

        widths = []

        class SerialPool:
            def __init__(self, max_workers, mp_context, initializer, initargs):
                assert mp_context.get_start_method() == "fork"
                widths.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(pipeline_module, "_shared", ())
        return widths

    def test_pool_is_no_wider_than_the_item_count(self, monkeypatch, widths):
        # Under fork, the pool starts every worker up front, busy or not.
        import repopipe.pipeline as pipeline_module

        monkeypatch.setattr(pipeline_module, "POOL_MIN_CHARS", 0)
        monkeypatch.setattr(pipeline_module, "CHUNK_CHARS", 1)  # one task per item
        assert list(pipeline_module._pmap(divmod, [7, 8, 9], 16, (2,), lambda n: 1)) == [(3, 1), (4, 0), (4, 1)]
        assert widths == [3]

    def test_a_tail_shorter_than_a_chunk_starts_no_pool(self, monkeypatch, widths):
        # Past POOL_MIN_CHARS, a tail that fills at most one task of
        # CHUNK_CHARS stays in-process; one of two tasks starts a pool.
        import repopipe.pipeline as pipeline_module

        monkeypatch.setattr(pipeline_module, "POOL_MIN_CHARS", 10)
        chunk = pipeline_module.CHUNK_CHARS
        tail = ["a" * 10, "b" * 3, "c" * 3, "d" * 3]
        assert list(pipeline_module._pmap(len, tail, 2, (), len)) == [10, 3, 3, 3]
        assert widths == []
        two_chunks = ["a" * 10, "b" * chunk, "c" * 3, "d" * chunk]
        assert list(pipeline_module._pmap(len, two_chunks, 2, (), len)) == [10, chunk, 3, chunk]
        assert widths == [2]


class TestResume:
    def test_input_change_invalidates_checkpoints(self, tmp_path):
        cfg = fixture_config(tmp_path)
        run_pipeline(cfg)
        corpus = Path(cfg.inputs[0])
        (corpus / "repo_delta" / "new.py").write_text("added_later = 1\n")
        summary = run_pipeline(cfg)
        assert summary.completed_stages == ["filter", "order", "dedup", "decontaminate", "build"]

    def test_config_change_invalidates_checkpoints(self, tmp_path):
        cfg = fixture_config(tmp_path)
        run_pipeline(cfg)
        cfg.build.entry_len = 32
        summary = run_pipeline(cfg)
        assert summary.completed_stages == ["filter", "order", "dedup", "decontaminate", "build"]
        fresh = fresh_run(cfg, tmp_path / "fresh")
        assert output_digest(Path(cfg.output_dir)) == output_digest(fresh)

    def test_emptied_benchmark_file_invalidates_checkpoints(self, tmp_path):
        cfg = fixture_config(tmp_path)
        run_pipeline(cfg)
        Path(cfg.decontaminate.benchmark_files[0]).write_text("", encoding="utf-8")
        summary = run_pipeline(cfg)
        assert summary.completed_stages == ["filter", "order", "dedup", "decontaminate", "build"]
        clean = [rec["repo_id"] for rec in read_jsonl(Path(cfg.output_dir) / CLEAN_OUT)]
        assert "repo_gamma" in clean
        fresh = fresh_run(cfg, tmp_path / "fresh")
        assert output_digest(Path(cfg.output_dir)) == output_digest(fresh)

    def test_edited_language_map_invalidates_checkpoints(self, tmp_path):
        from repopipe.corpus import LanguageMap

        table = LanguageMap.load()
        lang_map = tmp_path / "languages.json"
        raw = {
            "languages": sorted(table.languages),
            "extensions": dict(table.extensions),
            "basenames": dict(table.basenames),
        }
        lang_map.write_text(json.dumps(raw), encoding="utf-8")
        cfg = fixture_config(tmp_path)
        cfg.language_map = str(lang_map)
        run_pipeline(cfg)
        del raw["extensions"][".py"]
        lang_map.write_text(json.dumps(raw), encoding="utf-8")
        summary = run_pipeline(cfg)
        assert summary.completed_stages == ["filter", "order", "dedup", "decontaminate", "build"]
        assert read_jsonl(Path(cfg.output_dir) / FILES_OUT) == []
        fresh = fresh_run(cfg, tmp_path / "fresh")
        assert output_digest(Path(cfg.output_dir)) == output_digest(fresh)

    def test_deleted_output_forces_rerun(self, tmp_path):
        cfg = fixture_config(tmp_path)
        run_pipeline(cfg)
        os.remove(Path(cfg.output_dir) / DEDUP_OUT)
        summary = run_pipeline(cfg)
        assert "dedup" in summary.completed_stages


class TestInterruptedStage:
    """A stage killed half way through writing its records leaves no
    manifest, so the next run redoes it and ends with the same bytes as
    a run that was never interrupted."""

    @pytest.mark.parametrize(
        "stage, prefix, output_format",
        [
            pytest.param("dedup", DEDUP_OUT, "jsonl", id=f"dedup-{DEDUP_OUT}"),
            pytest.param("build", "entries/entries-", "jsonl", id="build-entries/entries-"),
            # A .bin row and its boundaries line per entry: stopped mid-shard.
            pytest.param("build", "entries/entries-", "bin", id="build-bin"),
        ],
    )
    def test_resume_matches_uninterrupted_run(self, tmp_path, monkeypatch, stage, prefix, output_format):
        import repopipe.pipeline as pipeline_module
        from repopipe.pipeline import StageFailure

        cfg = fixture_config(tmp_path)
        cfg.build.output_format = output_format
        fresh = fresh_run(cfg, tmp_path / "fresh")
        manifest = json.loads((fresh / "manifests" / f"{stage}.json").read_text())
        limit = manifest["output_records"] // 2
        assert limit > 0
        written = 0
        real_write = pipeline_module._Out.write

        def interrupted_write(self, rel, data):
            nonlocal written
            if rel.startswith(prefix):
                if written == limit:
                    raise RuntimeError("interrupted mid-write")
                written += 1
            real_write(self, rel, data)

        monkeypatch.setattr(pipeline_module._Out, "write", interrupted_write)
        with pytest.raises(StageFailure) as exc_info:
            run_pipeline(cfg)
        assert exc_info.value.stage == stage
        assert written == limit
        if output_format == "bin":
            assert limit % (2 * cfg.build.entries_per_shard)
        monkeypatch.undo()
        summary = run_pipeline(cfg)
        assert summary.completed_stages[0] == stage
        assert output_digest(Path(cfg.output_dir)) == output_digest(fresh)

    @pytest.mark.parametrize("output_format", ["jsonl", "bin"])
    def test_failure_mid_shard_closes_its_files(self, tmp_path, monkeypatch, output_format):
        """Build writes each shard while it packs; a sample that fails
        after rows of the open shard are written leaves no file open (an
        unclosed file warns, which the pytest config makes an error)."""
        import gc

        import repopipe.pipeline as pipeline_module
        from repopipe.pipeline import StageFailure, run_stage

        cfg = fixture_config(tmp_path)
        cfg.build.output_format, cfg.build.entries_per_shard = output_format, 5
        run_pipeline(cfg)
        real_fim = pipeline_module.fim_transform

        def fail_on_second(text, doc_index, *args):
            if doc_index == 1:
                raise RuntimeError("second sample failed")
            return real_fim(text, doc_index, *args)

        monkeypatch.setattr(pipeline_module, "fim_transform", fail_on_second)
        with pytest.raises(StageFailure, match="second sample failed"):
            run_stage(cfg, "build")
        gc.collect()
        last = sorted((Path(cfg.output_dir) / "entries").glob("*.jsonl"))[-1]  # a shard or its boundaries
        assert 0 < len(read_jsonl(last)) < cfg.build.entries_per_shard
        assert not (Path(cfg.output_dir) / "manifests" / "build.json").exists()

    @pytest.mark.parametrize(
        "stage, change, side, stop",
        [
            ("dedup", lambda cfg: setattr(cfg.dedup, "report", True),
             "reports/dedup_report.jsonl", "reports/dedup_report.jsonl"),
            # Stopped after the main output too, whose bytes match the
            # manifest of run 1.
            ("dedup", lambda cfg: setattr(cfg.dedup, "report", True),
             "reports/dedup_report.jsonl", DEDUP_OUT),
            ("order", lambda cfg: setattr(cfg, "dump_graphs", True), "reports/graphs", "reports/graphs"),
            ("build", lambda cfg: setattr(cfg.build, "output_format", "bin"),
             "entries/entries-00000.bin", "entries/"),
        ],
        ids=["dedup-report", "dedup-report-and-samples", "dump-graphs", "output-format"],
    )
    def test_side_output_of_stopped_run_is_cleared(self, tmp_path, monkeypatch, stage, change, side, stop):
        """Run 2 changes the config so that `stage` also writes `side`, and
        is stopped right after it writes a file under `stop`; run 3 goes
        back to run 1's config and must not keep `side`."""
        import repopipe.pipeline as pipeline_module
        from repopipe.pipeline import StageFailure

        cfg = fixture_config(tmp_path)
        cfg.dedup.report = False
        fresh = fresh_run(cfg, tmp_path / "fresh")
        run_pipeline(cfg)
        changed = copy.deepcopy(cfg)
        change(changed)

        real_close = pipeline_module._Out.close

        def stopping_close(self, *rels):
            closing = rels or tuple(self.files)
            real_close(self, *rels)
            if any(rel.startswith(stop) for rel in closing):
                raise RuntimeError("stopped after writing")

        monkeypatch.setattr(pipeline_module._Out, "close", stopping_close)
        with pytest.raises(StageFailure) as exc_info:
            run_pipeline(changed)
        assert exc_info.value.stage == stage
        monkeypatch.undo()
        out = Path(cfg.output_dir)
        assert any(str(p.relative_to(out)).startswith(side) for p in out.rglob("*") if p.is_file())
        run_pipeline(cfg)
        assert output_digest(out) == output_digest(fresh)


class TestChain:
    """Run 1 completes; run 2, with the next seed, is stopped after one
    row of one stage's main output. The manifests that still link, each
    naming the digest of the file it read, say what is done."""

    @staticmethod
    def stopped_rerun(cfg, monkeypatch, rel):
        import repopipe.pipeline as pipeline_module
        from repopipe.pipeline import StageFailure

        run_pipeline(cfg)
        rerun = copy.deepcopy(cfg)
        rerun.seed += 1
        real_write = pipeline_module._Out.write

        def one_row_then_stop(self, path, data):
            if path == rel and self.rows[path] == 1:
                raise RuntimeError("stopped after one row")
            real_write(self, path, data)

        monkeypatch.setattr(pipeline_module._Out, "write", one_row_then_stop)
        with pytest.raises(StageFailure):
            run_pipeline(rerun)
        monkeypatch.undo()
        assert len(read_jsonl(Path(cfg.output_dir) / rel)) == 1
        return rerun

    def test_stats_summarise_last_stage_done(self, tmp_path, monkeypatch):
        from repopipe.pipeline import emit_stats

        cfg = self.stopped_rerun(fixture_config(tmp_path), monkeypatch, CLEAN_OUT)
        lang_bytes: dict[str, int] = {}
        lang_files: dict[str, int] = {}
        for rec in read_jsonl(Path(cfg.output_dir) / DEDUP_OUT):
            for lang, size in rec["lang_bytes"].items():
                lang_bytes[lang] = lang_bytes.get(lang, 0) + size
            for lang, count in rec["lang_files"].items():
                lang_files[lang] = lang_files.get(lang, 0) + count
        stats = emit_stats(cfg)
        assert {r["language"]: r["size_bytes"] for r in stats["languages"]} == lang_bytes
        assert {r["language"]: r["files"] for r in stats["languages"]} == lang_files
        assert stats["total"]["files"] == sum(lang_files.values()) == 5
        assert "decontaminate" not in stats["drop_counters"]

    def test_stage_command_needs_predecessor_in_chain(self, tmp_path, monkeypatch):
        from repopipe.pipeline import StageFailure, run_stage

        cfg = self.stopped_rerun(fixture_config(tmp_path), monkeypatch, DEDUP_OUT)
        # The decontaminate manifest of run 1 is still on disk, but it
        # names run 1's dedup output, which run 2 has replaced.
        assert (Path(cfg.output_dir) / "manifests" / "decontaminate.json").exists()
        with pytest.raises(StageFailure) as exc_info:
            run_stage(cfg, "build")
        assert exc_info.value.stage == "build"
        assert "'dedup'" in str(exc_info.value.cause)

    def test_changed_output_byte_ends_the_chain_for_every_command(self, tmp_path):
        from repopipe.pipeline import StageFailure, emit_stats, run_stage

        cfg = fixture_config(tmp_path)
        run_pipeline(cfg)
        assert {"dedup", "decontaminate"} <= set(emit_stats(cfg)["drop_counters"])
        dedup_out = Path(cfg.output_dir) / DEDUP_OUT
        data = bytearray(dedup_out.read_bytes())
        data[len(data) // 2] ^= 1
        dedup_out.write_bytes(bytes(data))
        with pytest.raises(StageFailure) as exc_info:
            run_stage(cfg, "decontaminate")
        assert "'dedup'" in str(exc_info.value.cause)
        drops = emit_stats(cfg)["drop_counters"]
        assert "dedup" not in drops and "decontaminate" not in drops

    @pytest.mark.parametrize("text", [b"[]", b"1", b'"completed"', b"\xff{}"])
    def test_manifest_that_is_not_an_object_is_not_done(self, tmp_path, text):
        from repopipe.pipeline import emit_stats

        cfg = fixture_config(tmp_path)
        run_pipeline(cfg)
        (Path(cfg.output_dir) / "manifests" / "order.json").write_bytes(text)
        assert "dedup" not in emit_stats(cfg)["drop_counters"]  # the chain ends at filter
        assert run_pipeline(cfg).completed_stages == ["order"]

    @pytest.mark.parametrize(
        "edit",
        [
            lambda m: m.update(outputs={"path": SAMPLES_OUT, "sha256": ""}),
            lambda m: m.update(outputs=[]),
            lambda m: m.pop("outputs"),
            lambda m: m["outputs"][0].pop("sha256"),
            lambda m: m["outputs"][0].update(path=1),
        ],
        ids=["object", "empty", "missing", "entry_without_sha256", "numeric_path"],
    )
    def test_manifest_with_malformed_outputs_is_not_done(self, tmp_path, capsys, edit):
        from repopipe.cli import EXIT_STAGE, main
        from repopipe.config import config_to_dict
        from repopipe.pipeline import emit_stats

        cfg = fixture_config(tmp_path)
        run_pipeline(cfg)
        out = Path(cfg.output_dir)
        fresh = output_digest(out)
        manifest = read_manifest(cfg, "order")
        edit(manifest)
        (out / "manifests" / "order.json").write_text(json.dumps(manifest), encoding="utf-8")

        stats = emit_stats(cfg)  # the chain ends at filter
        assert set(stats["drop_counters"]) <= {"ingest", "filter"}
        assert stats["total"]["files"] == len(read_jsonl(out / FILES_OUT))
        config = tmp_path / "config.json"
        config.write_text(json.dumps(config_to_dict(cfg)), encoding="utf-8")
        assert main(["dedup", "--config", str(config)]) == EXIT_STAGE
        assert "stage 'order' has not completed" in capsys.readouterr().err
        assert run_pipeline(cfg).completed_stages == ["order"]
        assert output_digest(out) == fresh

    def test_upstream_is_digest_of_predecessor_first_output(self, tmp_path):
        from repopipe.pipeline import STAGES

        cfg = fixture_config(tmp_path)
        cfg.dump_graphs = True
        cfg.dedup.report = True
        cfg.decontaminate.report = True
        run_pipeline(cfg)
        out = Path(cfg.output_dir)
        for report in (GRAPHS_OUT, "reports/dedup_report.jsonl", "reports/contamination_report.jsonl"):
            assert (out / report).exists()
        for previous, stage in zip(STAGES, STAGES[1:]):
            first = read_manifest(cfg, previous.name)["outputs"][0]
            assert first["path"] == stage.reads
            digest = hashlib.sha256((out / first["path"]).read_bytes()).hexdigest()
            assert read_manifest(cfg, stage.name)["upstream"] == first["sha256"] == digest, stage.name

    def test_side_output_leaves_later_stages_done(self, tmp_path):
        from repopipe.pipeline import emit_stats, run_stage

        cfg = fixture_config(tmp_path)
        run_pipeline(cfg)
        out = Path(cfg.output_dir)
        stats_before = (out / "stats.json").read_bytes()
        dumping = copy.deepcopy(cfg)
        dumping.dump_graphs = True
        run_stage(dumping, "order")
        assert (out / GRAPHS_OUT).exists()
        emit_stats(cfg)
        assert (out / "stats.json").read_bytes() == stats_before
        assert run_stage(cfg, "build")["completed"]


class TestGraphDump:
    def test_edge_lists_dumped(self, tmp_path):
        cfg = fixture_config(tmp_path)
        cfg.dump_graphs = True
        run_pipeline(cfg)
        rows = read_jsonl(Path(cfg.output_dir) / GRAPHS_OUT)
        assert [row["repo_id"] for row in rows] == ["repo_alpha", "repo_beta", "repo_delta", "repo_gamma"]
        assert {row["repo_id"]: row["edges"] for row in rows}["repo_delta"] == [["main.py", "util.py"]]
        assert [entry["path"] for entry in read_manifest(cfg, "order")["outputs"]] == [SAMPLES_OUT, GRAPHS_OUT]


class TestGraphDumpFileNames:
    """Repo ids come from input data, so they may hold `/`, `..`, `%`,
    non-ASCII text or hundreds of characters, and paths may hold tabs.
    Each id must appear verbatim in exactly one row of
    reports/graphs.jsonl, and the dump is the only file under reports/."""

    EDGES = [["main.py", "util.py"]]

    @staticmethod
    def run_jsonl(tmp_path, repo_ids, util="util.py"):
        rows = [
            {"repo_id": rid, "path": path, "content": content}
            for rid in repo_ids
            for path, content in (
                ("main.py", "import util\n\n" + code_lines(seed=37, n_lines=30)),
                (util, code_lines(seed=41, n_lines=25) + f"# {rid}\n"),
            )
        ]
        inputs = tmp_path / "in.jsonl"
        inputs.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
        cfg = PipelineConfig(inputs=[str(inputs)], output_dir=str(tmp_path / "out"), dump_graphs=True)
        cfg.stages.dedup = False
        run_pipeline(cfg)
        out = Path(cfg.output_dir)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.jsonl", "out"]
        assert [p for p in (out / "reports").rglob("*")] == [out / GRAPHS_OUT]
        return [(row["repo_id"], row["edges"]) for row in read_jsonl(out / GRAPHS_OUT)]

    def test_slash_in_repo_id(self, tmp_path):
        assert self.run_jsonl(tmp_path, ["owner/name"]) == [("owner/name", self.EDGES)]

    def test_parent_reference_stays_inside_graphs_dir(self, tmp_path):
        assert self.run_jsonl(tmp_path, ["../escape"]) == [("../escape", self.EDGES)]

    def test_distinct_ids_get_distinct_files(self, tmp_path):
        ids = ["owner/name", "../escape", "a%2Fb", "a%b", "%", ".a", "..", "a\\b", "目录/é", "r" * 300]
        assert self.run_jsonl(tmp_path, ids) == [(rid, self.EDGES) for rid in sorted(ids)]

    def test_long_and_non_ascii_ids_fit_one_file_name(self, tmp_path):
        ids = ["r" * 300, "r" * 299, "é" * 200, "目录/" * 60]
        assert self.run_jsonl(tmp_path, ids) == [(rid, self.EDGES) for rid in sorted(ids)]

    def test_tab_in_paths_kept(self, tmp_path):
        # A tab-separated edge list could not hold this path. (A path with
        # a line break never gets here: ingest drops it as a bad record.)
        util = "lib/a\tb/c/util.py"
        assert self.run_jsonl(tmp_path, ["r"], util=util) == [("r", [["main.py", util]])]


class TestStageOwnership:
    def test_every_output_is_listed_and_owned_by_its_stage(self, tmp_path):
        # The runner clears only the paths in each stage's `writes`, so a
        # file a stage wrote outside them would outlive a re-run.
        from repopipe.pipeline import STAGES

        cfg = fixture_config(tmp_path)
        cfg.dump_graphs = True
        cfg.build.output_format = "bin"
        run_pipeline(cfg)
        listed = set()
        for stage in STAGES:
            for entry in read_manifest(cfg, stage.name)["outputs"]:
                rel = entry["path"]
                assert any(rel == w or rel.startswith(w + "/") for w in stage.writes), (stage.name, rel)
                listed.add(rel)
        out = Path(cfg.output_dir)
        on_disk = {p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()}
        run_files = {"run.json", "stats.json", "stats.txt", *(f"manifests/{s.name}.json" for s in STAGES)}
        assert on_disk == listed | run_files


class TestBuildOwnsEntriesDir:
    def test_stale_shards_removed_when_sharding_changes(self, tmp_path):
        cfg = fixture_config(tmp_path)
        cfg.build.entry_len = 16
        cfg.build.entries_per_shard = 5
        run_pipeline(cfg)
        entries = Path(cfg.output_dir) / "entries"
        assert len(list(entries.iterdir())) > 1
        cfg.build.entries_per_shard = 5000
        run_pipeline(cfg)
        listed = {o["path"] for o in read_manifest(cfg, "build")["outputs"]}
        assert {f"entries/{p.name}" for p in entries.iterdir()} == listed

    def test_stale_sidecars_removed_when_format_changes(self, tmp_path):
        cfg = fixture_config(tmp_path)
        cfg.build.output_format = "bin"
        run_pipeline(cfg)
        cfg.build.output_format = "jsonl"
        run_pipeline(cfg)
        entries = Path(cfg.output_dir) / "entries"
        listed = {o["path"] for o in read_manifest(cfg, "build")["outputs"]}
        assert {f"entries/{p.name}" for p in entries.iterdir()} == listed


class TestStageFailure:
    def test_failure_carries_stage_name_and_leaves_progress(self, tmp_path, monkeypatch):
        import repopipe.pipeline as pipeline_module
        from repopipe.pipeline import StageFailure

        def boom(cfg, source, out):
            raise RuntimeError("simulated crash")

        monkeypatch.setattr(pipeline_module, "stage_dedup", boom)
        cfg = fixture_config(tmp_path)
        with pytest.raises(StageFailure) as exc_info:
            pipeline_module.run_pipeline(cfg)
        assert exc_info.value.stage == "dedup"
        out = Path(cfg.output_dir)
        assert (out / "manifests" / "filter.json").exists()
        assert (out / "manifests" / "order.json").exists()
        assert not (out / "manifests" / "dedup.json").exists()


class TestMixedLanguageStats:
    def test_three_to_one_byte_ratio(self, tmp_path):
        corpus = tmp_path / "corpus2"
        corpus.mkdir()
        py_text = "".join(f"python_payload_{i:04d} = 1\n" for i in range(75))  # 75 * 24 bytes
        go_text = "".join(f"go_payload_items_{i:03d} = 2\n" for i in range(24))  # 24 * 25 bytes
        assert len(py_text) == 3 * len(go_text)
        write_repo(corpus, "repo_mix", {"a.py": py_text, "b.go": go_text})
        cfg = PipelineConfig(inputs=[str(corpus)], output_dir=str(tmp_path / "out2"), seed=1)
        cfg.build.entry_len = 64
        run_pipeline(cfg)
        stats = json.loads((tmp_path / "out2" / "stats.json").read_text())
        props = {row["language"]: row["proportion"] for row in stats["languages"]}
        assert props == {"Python": 75.0, "Go": 25.0}
