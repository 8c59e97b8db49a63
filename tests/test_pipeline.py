from __future__ import annotations

import json
import os
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_fixture_corpus, code_lines, fixture_config, write_repo
from repopipe.config import PipelineConfig
from repopipe.pipeline import (
    CLEAN_OUT,
    DEDUP_OUT,
    FILES_OUT,
    SAMPLES_OUT,
    graph_file_name,
    run_pipeline,
)


def read_jsonl(path: Path) -> list[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def read_manifest(cfg: PipelineConfig, stage: str) -> dict:
    with open(Path(cfg.output_dir) / "manifests" / f"{stage}.json") as fh:
        return json.load(fh)


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


class TestVacuousRun:
    def test_empty_input_directory(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        cfg = PipelineConfig(inputs=[str(empty)], output_dir=str(tmp_path / "out"))
        summary = run_pipeline(cfg)
        assert summary.stats.total_bytes == 0
        assert summary.stats.rows == []
        stats = json.loads((tmp_path / "out" / "stats.json").read_text())
        assert stats["total"]["files"] == 0


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

    def test_build_disabled_stops_after_clean_samples(self, tmp_path):
        cfg = fixture_config(tmp_path)
        cfg.stages.build = False
        run_pipeline(cfg)
        out = Path(cfg.output_dir)
        assert (out / CLEAN_OUT).exists()
        assert not (out / "entries").exists()


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
        assert "build" in summary.completed_stages

    def test_deleted_output_forces_rerun(self, tmp_path):
        cfg = fixture_config(tmp_path)
        run_pipeline(cfg)
        os.remove(Path(cfg.output_dir) / DEDUP_OUT)
        summary = run_pipeline(cfg)
        assert "dedup" in summary.completed_stages


class TestGraphDump:
    def test_edge_lists_dumped(self, tmp_path):
        cfg = fixture_config(tmp_path)
        cfg.dump_graphs = True
        run_pipeline(cfg)
        dump = Path(cfg.output_dir) / "reports" / "graphs" / "repo_delta.deps.txt"
        assert dump.read_text() == "main.py\tutil.py\n"


class TestGraphDumpFileNames:
    """Repo ids come from input data, so they may hold `/`, `..` or `%`;
    each must land in exactly one file directly under reports/graphs/."""

    @staticmethod
    def run_jsonl(tmp_path, repo_ids):
        rows = [
            {"repo_id": rid, "path": path, "content": content}
            for rid in repo_ids
            for path, content in (
                ("main.py", "import util\n\n" + code_lines(seed=37, n_lines=30)),
                ("util.py", code_lines(seed=41, n_lines=25) + f"# {rid}\n"),
            )
        ]
        inputs = tmp_path / "in.jsonl"
        inputs.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
        cfg = PipelineConfig(inputs=[str(inputs)], output_dir=str(tmp_path / "out"), dump_graphs=True)
        cfg.stages.dedup = False
        run_pipeline(cfg)
        return Path(cfg.output_dir)

    def test_slash_in_repo_id(self, tmp_path):
        out = self.run_jsonl(tmp_path, ["owner/name"])
        dump = out / "reports" / "graphs" / "owner%2Fname.deps.txt"
        assert dump.read_text() == "main.py\tutil.py\n"

    def test_parent_reference_stays_inside_graphs_dir(self, tmp_path):
        out = self.run_jsonl(tmp_path, ["../escape"])
        assert not (out / "reports" / "escape.deps.txt").exists()
        assert [p.name for p in (out / "reports" / "graphs").iterdir()] == ["%2E.%2Fescape.deps.txt"]

    def test_distinct_ids_get_distinct_files(self, tmp_path):
        ids = ["a/b", "a%2Fb", "a%b", ".a", "%2Ea", "..", "a\\b", "a%5Cb"]
        out = self.run_jsonl(tmp_path, ids)
        names = sorted(p.name for p in (out / "reports" / "graphs").iterdir())
        assert names == sorted(graph_file_name(rid) for rid in ids)
        assert len(set(names)) == len(ids)
        for rid in ids:
            assert (out / "reports" / "graphs" / graph_file_name(rid)).read_text().endswith(
                "main.py\tutil.py\n"
            )

    @settings(max_examples=300, deadline=None)
    @given(st.text(min_size=0, max_size=12), st.text(min_size=0, max_size=12))
    def test_names_are_injective_and_flat(self, a, b):
        for rid in (a, b):
            name = graph_file_name(rid)
            assert "/" not in name and "\\" not in name
            assert not name.startswith(".") or rid == ""  # only "" gives ".deps.txt"
        if a != b:
            assert graph_file_name(a) != graph_file_name(b)


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

        def boom(cfg, upstream):
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
