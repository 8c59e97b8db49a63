from __future__ import annotations

import json
from pathlib import Path

import pytest

from conftest import build_fixture_corpus
from repopipe.cli import EXIT_CONFIG, EXIT_OK, EXIT_STAGE, main
from repopipe.config import config_from_dict


def write_config(tmp_path: Path, corpus: Path, bench: Path, out_name: str = "cli_out") -> Path:
    cfg = {
        "inputs": [str(corpus)],
        "output_dir": str(tmp_path / out_name),
        "seed": 7,
        "decontaminate": {"benchmark_files": [str(bench)]},
        "build": {"entry_len": 64, "entries_per_shard": 8},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


class TestPrintDefaultConfig:
    def test_prints_parseable_default(self, capsys):
        assert main(["--print-default-config"]) == EXIT_OK
        printed = capsys.readouterr().out
        cfg = config_from_dict(json.loads(printed))
        assert cfg.dedup.num_perm == 128
        assert cfg.build.fim_rate == 0.5


class TestExitCodes:
    def test_bare_command_prints_help(self, capsys):
        assert main([]) == EXIT_OK
        assert capsys.readouterr().out.startswith("usage: repopipe")

    def test_output_dir_inside_an_input_exits_2(self, tmp_path, capsys):
        corpus, _ = build_fixture_corpus(tmp_path)
        code = main(["run", "--inputs", str(corpus), "--output-dir", str(corpus / "out")])
        assert code == EXIT_CONFIG
        assert "output_dir" in capsys.readouterr().err
        assert not (corpus / "out").exists()

    def test_output_dir_inside_a_linked_repo_exits_2(self, tmp_path, capsys):
        corpus, _ = build_fixture_corpus(tmp_path)
        (corpus / "linked").symlink_to(tmp_path / "elsewhere")
        (tmp_path / "elsewhere").mkdir()
        code = main(["run", "--inputs", str(corpus), "--output-dir", str(tmp_path / "elsewhere" / "out")])
        assert code == EXIT_CONFIG
        assert "through the repo link" in capsys.readouterr().err
        assert not (tmp_path / "elsewhere" / "out").exists()

    def test_validation_error_exits_2(self, tmp_path, capsys):
        code = main(["run", "--inputs", str(tmp_path / "nope"), "--output-dir", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        assert "does not exist" in capsys.readouterr().err

    @pytest.mark.parametrize("field,path", [
        ("output_dir", "file"), ("output_dir", "file/out"), ("language_map", "."), ("benchmark_files", "."),
    ])
    def test_config_path_of_the_wrong_kind_exits_2(self, tmp_path, capsys, field, path):
        # Each crashed with a traceback and exit 1.
        corpus, bench = build_fixture_corpus(tmp_path)
        config = write_config(tmp_path, corpus, bench)
        raw = json.loads(config.read_text())
        (tmp_path / "file").write_text("x")
        if field == "benchmark_files":
            raw["decontaminate"]["benchmark_files"] = [str(tmp_path / path)]
        else:
            raw[field] = str(tmp_path / path)
        config.write_text(json.dumps(raw))
        assert main(["run", "--config", str(config)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert field in err

    def test_unreadable_config_exits_2(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "missing.json")]) == EXIT_CONFIG

    def test_stage_without_upstream_exits_3(self, tmp_path, capsys):
        corpus, bench = build_fixture_corpus(tmp_path)
        cfg_path = write_config(tmp_path, corpus, bench)
        code = main(["order", "--config", str(cfg_path)])
        assert code == EXIT_STAGE
        assert "order" in capsys.readouterr().err


class TestMalformedInput:
    def test_config_value_of_wrong_type_exits_2(self, tmp_path, capsys):
        corpus, _ = build_fixture_corpus(tmp_path)
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"inputs": [str(corpus)], "workers": "2"}))
        assert main(["run", "--config", str(path)]) == EXIT_CONFIG
        assert "workers: expected int" in capsys.readouterr().err

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_config_float_exits_2(self, tmp_path, capsys, literal):
        corpus, _ = build_fixture_corpus(tmp_path)
        path = tmp_path / "config.json"
        where = {"inputs": [str(corpus)], "output_dir": str(tmp_path / "out")}
        path.write_text(json.dumps(where)[:-1] + f', "filters": {{"max_avg_line_len": {literal}}}}}')
        assert main(["run", "--config", str(path)]) == EXIT_CONFIG
        assert "filters.max_avg_line_len: must be finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_out_of_range_config_value_exits_2(self, tmp_path, capsys):
        corpus, _ = build_fixture_corpus(tmp_path)
        path = tmp_path / "config.json"
        raw = {"inputs": [str(corpus)], "output_dir": str(tmp_path / "out"),
               "filters": {"max_line_len": -1}}
        path.write_text(json.dumps(raw))
        assert main(["run", "--config", str(path)]) == EXIT_CONFIG
        assert "filters.max_line_len: must be >= 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_undecodable_jsonl_line_is_a_decode_error(self, tmp_path):
        stream = tmp_path / "files.jsonl"
        good = json.dumps({"repo_id": "r", "path": "a.py", "content": "def a():\n    return 1\n"})
        stream.write_bytes(good.encode() + b'\n{"repo_id": "r", "path": "b.py", "content": "\xff"}\n')
        out = tmp_path / "out"
        assert main(["run", "--inputs", str(stream), "--output-dir", str(out)]) == EXIT_OK
        stats = json.loads((out / "stats.json").read_text())
        assert stats["drop_counters"]["ingest"] == {"decode_error": 1}

    @pytest.mark.parametrize(
        "bad_line, problem",
        [(b'{"benchmark": "b"}', '"text" field'), (b"not json", "not JSON"),
         (b'{"text": null}', "must be strings"), (b'{"text": "caf\xff"}', "not UTF-8"),
         (b'{"text": "caf\\ud800"}', "lone surrogate"),
         (b'{"text": "one two three", "benchmark": "\\udfff"}', "lone surrogate")],
    )
    def test_malformed_benchmark_line_is_named(self, tmp_path, capsys, bad_line, problem):
        corpus, bench = build_fixture_corpus(tmp_path)
        with open(bench, "ab") as fh:
            fh.write(bad_line + b"\n")
        line = len(bench.read_bytes().splitlines())
        cfg_path = write_config(tmp_path, corpus, bench)
        assert main(["run", "--config", str(cfg_path)]) == EXIT_STAGE
        err = capsys.readouterr().err
        assert "decontaminate" in err
        assert f"{bench}:{line}: " in err and problem in err

    @pytest.mark.parametrize(
        "text, problem",
        [('{"languages": ["Python"], "extensions": {".py": "Python"}}', "missing key 'basenames'"),
         ("not json", "not JSON")],
    )
    def test_malformed_language_map_is_named(self, tmp_path, capsys, text, problem):
        corpus, bench = build_fixture_corpus(tmp_path)
        lang_map = tmp_path / "langs.json"
        lang_map.write_text(text)
        cfg_path = write_config(tmp_path, corpus, bench)
        cfg_path.write_text(json.dumps({**json.loads(cfg_path.read_text()), "language_map": str(lang_map)}))
        assert main(["run", "--config", str(cfg_path)]) == EXIT_STAGE
        err = capsys.readouterr().err
        assert "filter" in err and f"{lang_map}: {problem}" in err


class TestFullRun:
    def test_run_writes_stats_and_entries(self, tmp_path, capsys):
        corpus, bench = build_fixture_corpus(tmp_path)
        cfg_path = write_config(tmp_path, corpus, bench)
        assert main(["run", "--config", str(cfg_path)]) == EXIT_OK
        out = tmp_path / "cli_out"
        assert (out / "stats.txt").exists()
        assert sorted((out / "entries").glob("entries-*.jsonl"))
        printed = capsys.readouterr().out
        assert "Python" in printed and "Total" in printed

    def test_stats_needs_only_the_output_dir(self, tmp_path, capsys):
        corpus, bench = build_fixture_corpus(tmp_path)
        cfg_path = write_config(tmp_path, corpus, bench)
        assert main(["run", "--config", str(cfg_path)]) == EXIT_OK
        table, done = capsys.readouterr().out.rsplit("stages run: ", 1)
        assert "Total" in table and done.startswith("filter, order")
        assert main(["stats", "--output-dir", str(tmp_path / "cli_out")]) == EXIT_OK
        assert capsys.readouterr().out == table

    @pytest.mark.parametrize("made", [False, True], ids=["missing", "empty"])
    def test_stats_without_a_completed_stage_exits_3(self, tmp_path, capsys, made):
        out = tmp_path / "typo_out"
        if made:
            out.mkdir()
        assert main(["stats", "--output-dir", str(out)]) == EXIT_STAGE
        assert str(out) in capsys.readouterr().err
        assert out.exists() == made and not (made and any(out.iterdir()))

    def test_stage_by_stage_matches_full_run(self, tmp_path):
        corpus, bench = build_fixture_corpus(tmp_path)
        staged_cfg = write_config(tmp_path, corpus, bench, out_name="staged")
        for stage in ("filter", "order", "dedup", "decontaminate", "build"):
            assert main([stage, "--config", str(staged_cfg)]) == EXIT_OK
        assert main(["stats", "--config", str(staged_cfg)]) == EXIT_OK

        full_cfg = write_config(tmp_path, corpus, bench, out_name="full")
        assert main(["run", "--config", str(full_cfg)]) == EXIT_OK

        staged_entries = sorted((tmp_path / "staged" / "entries").glob("*.jsonl"))
        full_entries = sorted((tmp_path / "full" / "entries").glob("*.jsonl"))
        assert [p.name for p in staged_entries] == [p.name for p in full_entries]
        for a, b in zip(staged_entries, full_entries):
            assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "staged" / "stats.json").read_bytes() == (
            tmp_path / "full" / "stats.json"
        ).read_bytes()

    def test_resume_after_interruption_matches_uninterrupted(self, tmp_path):
        corpus, bench = build_fixture_corpus(tmp_path)
        resumed_cfg = write_config(tmp_path, corpus, bench, out_name="resumed")
        # Simulate an interrupted run: only the first two stages complete.
        assert main(["filter", "--config", str(resumed_cfg)]) == EXIT_OK
        assert main(["order", "--config", str(resumed_cfg)]) == EXIT_OK
        assert main(["run", "--config", str(resumed_cfg)]) == EXIT_OK

        fresh_cfg = write_config(tmp_path, corpus, bench, out_name="fresh")
        assert main(["run", "--config", str(fresh_cfg)]) == EXIT_OK

        for rel in ("work/samples_clean.jsonl", "stats.json", "stats.txt"):
            assert (tmp_path / "resumed" / rel).read_bytes() == (
                tmp_path / "fresh" / rel
            ).read_bytes()
        resumed = sorted((tmp_path / "resumed" / "entries").glob("*"))
        fresh = sorted((tmp_path / "fresh" / "entries").glob("*"))
        assert [p.name for p in resumed] == [p.name for p in fresh]
        for a, b in zip(resumed, fresh):
            assert a.read_bytes() == b.read_bytes()

    def test_binary_output_format(self, tmp_path):
        corpus, bench = build_fixture_corpus(tmp_path)
        cfg_path = write_config(tmp_path, corpus, bench, out_name="bin_out")
        assert main(["run", "--config", str(cfg_path), "--output-format", "bin"]) == EXIT_OK
        out = tmp_path / "bin_out"
        bins = sorted((out / "entries").glob("entries-*.bin"))
        assert bins
        manifest = json.loads((out / "manifests" / "build.json").read_text())
        # uint32 little-endian, entry_len tokens per entry
        first = bins[0].read_bytes()
        n_entries = next(
            e["records"] for e in manifest["outputs"] if e["path"].endswith("00000.bin")
        )
        assert len(first) == n_entries * manifest["entry_len"] * 4
        sidecars = sorted((out / "entries").glob("entries-*.boundaries.jsonl"))
        assert len(sidecars) == len(bins)
