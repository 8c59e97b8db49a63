from __future__ import annotations

import json
import os
from pathlib import Path

from repopipe.config import PipelineConfig
from repopipe.ingest import load_repos
from repopipe.pipeline import CLEAN_OUT, run_pipeline


def test_directory_input_one_repo_per_subdir(tmp_path):
    (tmp_path / "corpus" / "repo_a" / "src").mkdir(parents=True)
    (tmp_path / "corpus" / "repo_a" / "src" / "m.py").write_text("x = 1\n")
    (tmp_path / "corpus" / "repo_b").mkdir()
    (tmp_path / "corpus" / "repo_b" / "n.py").write_text("y = 2\n")
    repos = load_repos([str(tmp_path / "corpus")])
    assert [r.repo_id for r in repos] == ["repo_a", "repo_b"]
    assert repos[0].files[0].path == "src/m.py"


def test_dot_directories_and_files_skipped(tmp_path):
    root = tmp_path / "corpus" / "repo"
    (root / ".git").mkdir(parents=True)
    (root / ".git" / "HEAD").write_text("ref: refs/heads/main\n")
    (root / ".hidden.py").write_text("h = 1\n")
    (root / "kept.py").write_text("k = 1\n")
    repos = load_repos([str(tmp_path / "corpus")])
    assert [f.path for f in repos[0].files] == ["kept.py"]


def test_decode_error_counted_and_dropped(tmp_path):
    root = tmp_path / "corpus" / "repo"
    root.mkdir(parents=True)
    (root / "bin.py").write_bytes(b"\xff\xfe\x00bad")
    (root / "ok.py").write_text("fine = 1\n")
    counters: dict[str, int] = {}
    repos = load_repos([str(tmp_path / "corpus")], counters)
    assert counters == {"decode_error": 1}
    assert [f.path for f in repos[0].files] == ["ok.py"]


def test_jsonl_stream_input(tmp_path):
    stream = tmp_path / "files.jsonl"
    rows = [
        {"repo_id": "zrepo", "path": "a.py", "content": "a = 1\n"},
        {"repo_id": "arepo", "path": "b.py", "content": "b = 2\n"},
        {"repo_id": "zrepo", "path": "a.py", "content": "duplicate\n"},
        {"repo_id": "zrepo", "path": "c.py"},  # malformed: no content
    ]
    stream.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    counters: dict[str, int] = {}
    repos = load_repos([str(stream)], counters)
    assert [r.repo_id for r in repos] == ["arepo", "zrepo"]
    assert counters == {"duplicate_path": 1, "bad_record": 1}
    zrepo = repos[1]
    assert [f.content for f in zrepo.files] == ["a = 1\n"]


def test_undecodable_jsonl_line_counted_as_decode_error(tmp_path):
    stream = tmp_path / "files.jsonl"
    good = json.dumps({"repo_id": "r", "path": "a.py", "content": "a = 1\n"}).encode()
    bad = b'{"repo_id": "r", "path": "b.py", "content": "\xff"}'
    unparsed = b'{"repo_id": "r", \xff "path": "e.py", "content": ""}'
    # Line ends as text mode reads them: "\r\n", "\n" and a lone "\r".
    tail = good.replace(b"a.py", b"c.py") + b"\r" + good.replace(b"a.py", b"d.py")
    stream.write_bytes(good + b"\r\n" + bad + b"\n" + unparsed + b"\n" + tail + b"\n{}")
    counters: dict[str, int] = {}
    repos = load_repos([str(stream)], counters)
    assert counters == {"decode_error": 2, "bad_record": 1}
    assert [f.path for f in repos[0].files] == ["a.py", "c.py", "d.py"]


def test_lone_surrogate_records_counted_as_decode_errors(tmp_path):
    # JSON may escape a lone surrogate, which no UTF-8 output can hold; a
    # valid escaped pair decodes to one character and is kept.
    stream = tmp_path / "files.jsonl"
    rows = [
        {"repo_id": "r", "path": "a.py", "content": "bad = '\ud800'\n"},
        {"repo_id": "r", "path": "\udcff.py", "content": "b = 1\n"},
        {"repo_id": "\ud800r", "path": "c.py", "content": "c = 1\n"},
        {"repo_id": "r", "path": "ok.py", "content": "smile = '\ud83d\ude00'\n"},
    ]
    stream.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    counters: dict[str, int] = {}
    repos = load_repos([str(stream)], counters)
    assert counters == {"decode_error": 3}
    assert [(r.repo_id, [f.path for f in r.files]) for r in repos] == [("r", ["ok.py"])]
    assert repos[0].files[0].content == "smile = '\U0001f600'\n"

    cfg = PipelineConfig(inputs=[str(stream)], output_dir=str(tmp_path / "out"), seed=1)
    cfg.build.entry_len = 16
    run_pipeline(cfg)
    manifest = json.loads((Path(cfg.output_dir) / "manifests" / "filter.json").read_text())
    assert manifest["ingest_counters"] == {"decode_error": 3}
    assert manifest["output_records"] == 1


def test_non_string_repo_id_or_path_counted_as_bad_record(tmp_path):
    stream = tmp_path / "files.jsonl"
    rows = [
        {"repo_id": 1, "path": "a.py", "content": "a = 1\n"},
        {"repo_id": "1", "path": "b.py", "content": "b = 1\n"},
        {"repo_id": None, "path": "c.py", "content": "c = 1\n"},
        {"repo_id": "r", "path": ["x"], "content": "x = 1\n"},
    ]
    stream.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    counters: dict[str, int] = {}
    repos = load_repos([str(stream)], counters)
    assert counters == {"bad_record": 3}
    assert [(r.repo_id, [f.path for f in r.files]) for r in repos] == [("1", ["b.py"])]


def test_undecodable_file_name_counted_as_decode_error(tmp_path):
    root = tmp_path / "corpus" / "repo"
    root.mkdir(parents=True)
    (root / os.fsdecode(b"\xff.py")).write_text("x = 1\n")
    (root / "ok.py").write_text("fine = 1\n")
    counters: dict[str, int] = {}
    repos = load_repos([str(tmp_path / "corpus")], counters)
    assert counters == {"decode_error": 1}
    assert [f.path for f in repos[0].files] == ["ok.py"]


def test_symlinked_files_skipped_and_counted(tmp_path):
    # A dangling link and a link out of the corpus are both skipped; a
    # top-level repo entry that links to a checkout is still a repo.
    outside = tmp_path / "outside.py"
    outside.write_text("secret = 1\n")
    root = tmp_path / "corpus" / "r1"
    root.mkdir(parents=True)
    (root / "a.py").write_text("a = 1\n")
    (root / "b.py").symlink_to(tmp_path / "missing.py")
    (root / "c.py").symlink_to(outside)
    checkout = tmp_path / "checkout"
    checkout.mkdir()
    (checkout / "m.py").write_text("m = 1\n")
    (tmp_path / "corpus" / "r2").symlink_to(checkout, target_is_directory=True)
    counters: dict[str, int] = {}
    repos = load_repos([str(tmp_path / "corpus")], counters)
    assert counters == {"symlink": 2}
    assert [(r.repo_id, [f.path for f in r.files]) for r in repos] == [("r1", ["a.py"]), ("r2", ["m.py"])]
    cfg = PipelineConfig(inputs=[str(tmp_path / "corpus")], output_dir=str(tmp_path / "out"))
    run_pipeline(cfg)
    manifest = json.loads((tmp_path / "out" / "manifests" / "filter.json").read_text())
    assert manifest["ingest_counters"] == {"symlink": 2}


def test_jsonl_input_through_full_pipeline(tmp_path):
    stream = tmp_path / "corpus.jsonl"
    rows = [
        {"repo_id": "jr", "path": "main.py", "content": "import util\nrun(util.v)\n"},
        {"repo_id": "jr", "path": "util.py", "content": "v = compute_value(3)\n"},
    ]
    stream.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    cfg = PipelineConfig(inputs=[str(stream)], output_dir=str(tmp_path / "out"), seed=1)
    cfg.build.entry_len = 16
    run_pipeline(cfg)
    clean = [
        json.loads(line)
        for line in (Path(cfg.output_dir) / CLEAN_OUT).read_text().splitlines()
    ]
    assert clean[0]["repo_id"] == "jr"
    assert clean[0]["ordered_paths"] == ["util.py", "main.py"]
