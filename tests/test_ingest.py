from __future__ import annotations

import errno
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from repopipe.config import PipelineConfig
from repopipe.ingest import _walk_repo_dir, load_repos, read_jsonl
from repopipe.pipeline import (
    CLEAN_OUT,
    GRAPHS_OUT,
    SAMPLES_OUT,
    StageFailure,
    ingest_and_fingerprint,
    load_benchmark_strings,
    run_pipeline,
    run_stage,
)

SRC = Path(__file__).resolve().parents[1] / "src"


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


def test_top_level_files_and_dot_entries_of_an_input_directory_skipped_uncounted(tmp_path):
    corpus = tmp_path / "corpus"
    (corpus / "repo").mkdir(parents=True)
    (corpus / "repo" / "kept.py").write_text("k = 1\n")
    (corpus / "README.md").write_text("not a repo\n")
    (corpus / ".cache").mkdir()
    (corpus / ".cache" / "c.py").write_text("c = 1\n")
    (corpus / ".top.py").write_text("t = 1\n")
    counters: dict[str, int] = {}
    repos = load_repos([str(corpus)], counters)
    assert [(r.repo_id, [f.path for f in r.files]) for r in repos] == [("repo", ["kept.py"])]
    assert counters == {}


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
    # Line ends "\r\n" and "\n"; a lone "\r" is JSON whitespace inside a record.
    tail = good.replace(b"a.py", b"c.py").replace(b", ", b",\r", 1) + b"\n" + good.replace(b"a.py", b"d.py")
    stream.write_bytes(good + b"\r\n" + bad + b"\n" + unparsed + b"\n" + tail + b"\n{}")
    counters: dict[str, int] = {}
    repos = load_repos([str(stream)], counters)
    assert counters == {"decode_error": 2, "bad_record": 1}
    assert [f.path for f in repos[0].files] == ["a.py", "c.py", "d.py"]


def test_undecodable_byte_in_any_field_is_a_decode_error(tmp_path):
    stream = tmp_path / "files.jsonl"
    stream.write_bytes(
        b'{"repo_id": "r", "path": "a.py", "content": "a = 1", "license": "\xff"}\n'
        b'{"repo_id": "r", "path": "b.py", "content": "b = 1", "license": "MIT"}\n'
    )
    counters: dict[str, int] = {}
    repos = load_repos([str(stream)], counters)
    assert counters == {"decode_error": 1}
    assert [f.path for f in repos[0].files] == ["b.py"]


def test_read_jsonl_numbers_lines_and_names_problems(tmp_path):
    stream = tmp_path / "rows.jsonl"
    stream.write_bytes(b'{"a": 1}\n\n \r\n[2,\r3]\r\nnot json\n"\xff"\n')
    rows = list(read_jsonl(str(stream)))
    assert [(n, value) for n, value, _ in rows] == [(1, {"a": 1}), (4, [2, 3]), (5, None), (6, None)]
    assert [problem for _, _, problem in rows][:2] == [None, None]
    assert rows[2][2].startswith("not JSON: ") and rows[3][2] == "not UTF-8"


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


def test_symlinked_directory_skipped_and_counted(tmp_path):
    # os.walk lists a linked directory but does not descend into it.
    real = tmp_path / "corpus" / "real"
    real.mkdir(parents=True)
    (real / "b.py").write_text("b = 1\n")
    root = tmp_path / "corpus" / "r1"
    root.mkdir()
    (root / "a.py").write_text("a = 1\n")
    (root / "linked").symlink_to("../real", target_is_directory=True)
    counters: dict[str, int] = {}
    repos = load_repos([str(tmp_path / "corpus")], counters)
    assert counters == {"symlink": 1}
    assert [(r.repo_id, [f.path for f in r.files]) for r in repos] == [("r1", ["a.py"]), ("real", ["b.py"])]


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


def test_jsonl_paths_are_normalised_and_stay_inside_their_repo(tmp_path):
    # A directory input never yields "./a.py", "a//b.py" or "../up.py";
    # a JSONL path is read as the file it names, and one naming no file
    # of its repo is a bad record.
    stream = tmp_path / "files.jsonl"
    paths = ["./a.py", "b.py", "a.py", "a//b.py", "sub/./c.py", "sub/../d.py",
             "../up.py", "/abs.py", "//abs.py", "..", ".", "sub/..", "x/../../y.py"]
    stream.write_text("".join(json.dumps({"repo_id": "r", "path": p, "content": p}) + "\n" for p in paths))
    counters: dict[str, int] = {}
    repos = load_repos([str(stream)], counters)
    assert [(f.path, f.content) for f in repos[0].files] == [
        ("a.py", "./a.py"), ("b.py", "b.py"), ("a/b.py", "a//b.py"), ("sub/c.py", "sub/./c.py"),
        ("d.py", "sub/../d.py"),
    ]
    assert counters == {"duplicate_path": 1, "bad_record": 7}


# Every break `str.splitlines` splits on, "\n", "\r", "\x0b", "\x85" and U+2028 among them.
LINE_BREAKS = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


def test_a_path_holding_a_line_break_is_a_bad_record(tmp_path):
    # A path header is one line: the file "a\nimport os.py" would give
    # "# a" and then a line "import os.py" that reads as code.
    names = [f"a{brk}import os.py" for brk in LINE_BREAKS] + [f"d{brk}x/b.py" for brk in LINE_BREAKS]
    stream = tmp_path / "files.jsonl"
    stream.write_text("".join(json.dumps({"repo_id": "r", "path": p, "content": "x = 1\n"}) + "\n"
                              for p in [*names, "ok.py"]))
    root = tmp_path / "corpus" / "r"
    for name in [*names, "ok.py"]:
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text("x = 1\n")
    for source in (stream, tmp_path / "corpus"):
        counters: dict[str, int] = {}
        [repo] = load_repos([str(source)], counters)
        assert [f.path for f in repo.files] == ["ok.py"], source
        assert counters == {"bad_record": len(names)}, source


def test_a_dot_slash_jsonl_path_resolves_its_relative_imports(tmp_path):
    stream = tmp_path / "files.jsonl"
    rows = [
        {"repo_id": "r", "path": "./a.py", "content": "from . import b\nrun(b)\n"},
        {"repo_id": "r", "path": "b.py", "content": "value = 1\n"},
        {"repo_id": "r", "path": "a.py", "content": "again = 1\n"},
    ]
    stream.write_text("".join(json.dumps(r) + "\n" for r in rows))
    cfg = PipelineConfig(inputs=[str(stream)], output_dir=str(tmp_path / "out"), dump_graphs=True)
    run_stage(cfg, "filter")
    run_stage(cfg, "order")
    out = Path(cfg.output_dir)
    [sample] = [json.loads(line) for line in (out / SAMPLES_OUT).read_text().splitlines()]
    [graph] = [json.loads(line) for line in (out / GRAPHS_OUT).read_text().splitlines()]
    assert sample["ordered_paths"] == ["b.py", "a.py"]
    assert graph["edges"] == [["a.py", "b.py"]]


def test_carriage_return_inside_a_jsonl_record_stays_in_it(tmp_path):
    # JSON allows a bare "\r" between tokens; only "\n" ends a record.
    stream = tmp_path / "files.jsonl"
    b = json.dumps({"repo_id": "r", "path": "b.py", "content": "b = 2\n"}).encode()
    stream.write_bytes(b'{"repo_id": "r", "path": "a.py",\r"content": "print(1)\\n"}\n' + b + b"\r\n")
    counters: dict[str, int] = {}
    repos = load_repos([str(stream)], counters)
    assert counters == {}
    assert [(f.path, f.content) for f in repos[0].files] == [("a.py", "print(1)\n"), ("b.py", "b = 2\n")]


def test_carriage_return_inside_a_benchmark_record_stays_in_it(tmp_path):
    bench = tmp_path / "bench.jsonl"
    bench.write_bytes(b'{"text": "one",\r"benchmark": "x"}\n{"text": "two"}\r\n')
    assert list(load_benchmark_strings([str(bench)])) == [("one", "x"), ("two", "bench")]


def test_directory_and_jsonl_inputs_fill_one_table_per_repo(tmp_path):
    # A repo id that two inputs share keeps its files in first-seen
    # order, and a path the second input repeats is dropped and counted.
    # The fingerprint pins the bytes hashed for each file and the counters.
    repo = tmp_path / "corpus" / "shared"
    (repo / "pkg").mkdir(parents=True)
    (repo / "b.py").write_text("b = 1\n")
    (repo / "pkg" / "a.py").write_text("a = 1\n")
    stream = tmp_path / "more.jsonl"
    rows = [
        {"repo_id": "shared", "path": "c.py", "content": "c = 1\n"},
        {"repo_id": "other", "path": "z.py", "content": "z = 1\n"},
        {"repo_id": "shared", "path": "b.py", "content": "b = 2\n"},
        {"repo_id": "shared", "path": "a.py", "content": "a = 2\n"},
    ]
    stream.write_text("".join(json.dumps(r) + "\n" for r in rows))
    cfg = PipelineConfig(inputs=[str(tmp_path / "corpus"), str(stream)], output_dir=str(tmp_path / "out"))
    repos, counters, fingerprint = ingest_and_fingerprint(cfg)
    assert [(r.repo_id, [(f.path, f.content) for f in r.files]) for r in repos] == [
        ("other", [("z.py", "z = 1\n")]),
        ("shared", [("b.py", "b = 1\n"), ("pkg/a.py", "a = 1\n"), ("c.py", "c = 1\n"), ("a.py", "a = 2\n")]),
    ]
    assert counters == {"duplicate_path": 1}
    assert fingerprint == "dc0eedff5130a39a494f134efb55c426eb1a521d8d04efce82cb9b37d74ace9b"


def test_fifo_skipped_and_counted(tmp_path):
    # Opening a FIFO that no process writes blocks forever, so the run
    # goes in a child process under a timeout.
    root = tmp_path / "corpus" / "r1"
    root.mkdir(parents=True)
    (root / "a.py").write_text("a = 1\n")
    os.mkfifo(root / "pipe.py")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"inputs": [str(tmp_path / "corpus")], "output_dir": str(tmp_path / "out")}))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    subprocess.run([sys.executable, "-m", "repopipe.cli", "run", "--config", str(config)],
                   check=True, capture_output=True, timeout=60, env=env)
    manifest = json.loads((tmp_path / "out" / "manifests" / "filter.json").read_text())
    assert manifest["ingest_counters"] == {"not_regular_file": 1}
    assert manifest["input_records"] == 1


@pytest.mark.parametrize("refused", ["r1/sub", "."], ids=["repo-subdirectory", "input-directory"])
def test_directory_that_cannot_be_listed_fails_the_filter_stage(tmp_path, monkeypatch, refused):
    # Root lists a directory whatever its mode, so the refusal is patched in.
    corpus = tmp_path / "corpus"
    (corpus / "r1" / "sub").mkdir(parents=True)
    (corpus / "r1" / "a.py").write_text("a = 1\n")
    (corpus / "r1" / "sub" / "b.py").write_text("b = 2\n")

    def refusing(listing):
        def refuse(path="."):
            if os.path.normpath(path) == os.path.normpath(corpus / refused):
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
            return listing(path)
        return refuse

    monkeypatch.setattr(os, "scandir", refusing(os.scandir))
    monkeypatch.setattr(os, "listdir", refusing(os.listdir))
    counters: dict[str, int] = {}
    with pytest.raises(PermissionError):
        load_repos([str(corpus)], counters)
    assert counters == {}
    cfg = PipelineConfig(inputs=[str(corpus)], output_dir=str(tmp_path / "out"))
    with pytest.raises(StageFailure) as exc_info:
        run_pipeline(cfg)
    assert exc_info.value.stage == "filter"
    assert isinstance(exc_info.value.cause, PermissionError)
    assert not (tmp_path / "out" / "manifests").exists()


# Names that sort around one another, dot-names, non-ASCII and `%` names.
tree_names = st.sampled_from(["a", "b", "c.py", ".d", ".e.py", "é", "%25.py", "名前.go", "a b.py"])
tree_specs = st.lists(
    st.tuples(
        st.lists(tree_names, min_size=1, max_size=3),
        st.sampled_from(["file", "dir", "file link", "dir link", "loop link", "dangling link"]),
    ),
    max_size=14,
)


@settings(max_examples=200, deadline=None)
@given(tree_specs)
def test_scandir_walk_matches_os_walk(spec):
    """Nested and empty directories, dot-entries, symlinked files and
    directories (one a loop back to the repo root) and dangling links:
    the same paths in the same order, and the same counters."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "repo"
        root.mkdir()
        (Path(tmp) / "outside.py").write_text("o = 1\n")
        (Path(tmp) / "outside").mkdir()
        targets = {"file link": Path(tmp) / "outside.py", "dir link": Path(tmp) / "outside",
                   "loop link": root, "dangling link": Path(tmp) / "missing"}
        for parts, kind in spec:
            path = root.joinpath(*parts)
            try:
                path.parent.mkdir(parents=True, exist_ok=True)
                if kind == "file":
                    path.write_text("x = 1\n")
                elif kind == "dir":
                    path.mkdir()
                else:
                    path.symlink_to(targets[kind])
            except OSError:  # the path, or a parent of it, is already there
                pass
        got: dict[str, int] = {}
        want: dict[str, int] = {}
        assert _walk_repo_dir(str(root), got) == oracles.walk_repo_dir(str(root), want)
        assert got == want
