"""Every config field but UNKEYED_FIELDS keys the checkpoints.

A field the key left out could change output bytes without invalidating
any checkpoint, so a resume would keep stale outputs. The first test
fails as soon as a field is added to the config without being placed in
the stage table; the second perturbs each field after a complete run and
checks that the resume gives the bytes of a fresh run.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from conftest import code_lines, fixture_config, output_digest, write_repo
from repopipe.config import (
    UNKEYED_FIELDS,
    config_field,
    config_from_dict,
    config_to_dict,
    covers,
    default_config,
)
from repopipe.corpus import LanguageMap
from repopipe.pipeline import STAGES, run_pipeline


def leaves(raw: dict, prefix: str = "") -> list[str]:
    out = []
    for key, value in raw.items():
        name = prefix + key
        out.extend(leaves(value, name + ".") if isinstance(value, dict) else [name])
    return out


LEAVES = leaves(config_to_dict(default_config()))
KEYED = [name for name in LEAVES if name not in UNKEYED_FIELDS]


def test_every_field_is_keyed_or_explicitly_unkeyed():
    for name in LEAVES:
        read = any(covers(stage.config, name) for stage in STAGES)
        assert read != (name in UNKEYED_FIELDS), name


def set_field(raw: dict, name: str, value) -> None:
    *head, last = name.split(".")
    for part in head:
        raw = raw[part]
    raw[last] = value


def perturbed(raw: dict, name: str, tmp: Path) -> dict:
    """`raw` with field `name` changed to another valid value, one that
    changes the fixture run's outputs wherever the field can."""
    raw = json.loads(json.dumps(raw))
    value = config_field(raw, name)
    special = {
        "inputs": lambda: value + [str(extra_inputs(tmp))],
        "language_map": lambda: str(language_map_without_python(tmp)),
        "filters.max_avg_line_len": lambda: 20.0,
        "filters.max_line_len": lambda: 40,
        "filters.min_alpha_fraction": lambda: 0.6,
        "filters.xml_window": lambda: 5,
        "filters.html_min_visible_chars": lambda: 1000,
        "filters.html_min_visible_ratio": lambda: 0.99,
        "filters.data_min_chars": lambda: 100,
        "filters.data_max_chars": lambda: 40,
        "filters.max_repeated_token_fraction": lambda: 0.01,
        "filters.long_line_chars": lambda: 10,
        "filters.max_long_line_fraction": lambda: 0.0,
        "dedup.threshold": lambda: 0.99,
        "dedup.shingle_width": lambda: 2,
        "decontaminate.benchmark_files": lambda: [],
        "build.fim_mode": lambda: "spm",
        "build.fim_rate": lambda: 0.0,
        "build.entry_len": lambda: 32,
        "build.output_format": lambda: "bin",
        "build.entries_per_shard": lambda: 3,
    }
    if name == "dedup.num_perm":  # bands * rows must stay equal to num_perm
        raw["dedup"].update(num_perm=64, bands=8)
        return raw
    if name in ("dedup.bands", "dedup.rows"):
        raw["dedup"].update(bands=32, rows=4)
        return raw
    if name in special:
        new = special[name]()
    elif isinstance(value, bool):
        new = not value
    elif isinstance(value, int):
        new = value + 1
    elif isinstance(value, float):
        new = value / 2
    elif name.startswith("build.sentinels."):
        new = "value_"  # occurs in every sample, so every document collides
    else:
        raise AssertionError(f"no perturbation for {name} = {value!r}")
    set_field(raw, name, new)
    return raw


def extra_inputs(tmp: Path) -> Path:
    path = tmp / "extra.jsonl"
    row = {"repo_id": "owner/extra", "path": "extra.py", "content": "extra_value = compute(1)\n"}
    path.write_text(json.dumps(row) + "\n", encoding="utf-8")
    return path


def language_map_without_python(tmp: Path) -> Path:
    table = LanguageMap.load()
    extensions = {ext: lang for ext, lang in table.extensions.items() if lang != "Python"}
    raw = {"languages": sorted(table.languages), "extensions": extensions,
           "basenames": dict(table.basenames)}
    path = tmp / "languages.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def complete_run(tmp_path_factory) -> tuple[dict, Path]:
    """The fixture corpus plus files that sit on the far side of a
    threshold the perturbations above move: HTML, JSON, an XML
    declaration, an unknown extension, one long line, a repetitive repo."""
    tmp = tmp_path_factory.mktemp("complete")
    cfg = fixture_config(tmp)
    write_repo(Path(cfg.inputs[0]), "repo_misc", {
        "index.html": "<html><body><p>\n" + "visible words here\n" * 10 + "</p></body></html>\n",
        "config.json": '{"name": "misc", "values": [1, 2, 3], "enabled": true}\n',
        "feed.py": 'payload = """<?xml version="1.0"?><feed/>"""\n',
        "notes.xyz": "unrecognised extension\n",
        "main.py": code_lines(seed=43, n_lines=41) + "wide = " + "w" * 300 + "\n",
    })
    write_repo(Path(cfg.inputs[0]), "repo_repeat", {"main.py": "filler filler filler\n" * 40})
    run_pipeline(cfg)
    return config_to_dict(cfg), Path(cfg.output_dir)


@pytest.mark.parametrize("name", KEYED)
def test_changed_field_resumes_to_fresh_bytes(complete_run, tmp_path, name):
    raw, done = complete_run
    changed = perturbed(raw, name, tmp_path)
    assert config_field(changed, name) != config_field(raw, name)

    resumed = config_from_dict(dict(changed, output_dir=str(tmp_path / "resumed")))
    shutil.copytree(done, resumed.output_dir)
    summary = run_pipeline(resumed)
    assert summary.completed_stages, f"changing {name} re-ran no stage"

    fresh = config_from_dict(dict(changed, output_dir=str(tmp_path / "fresh")))
    run_pipeline(fresh)
    assert output_digest(Path(resumed.output_dir)) == output_digest(Path(fresh.output_dir))


def test_worker_count_reruns_nothing(complete_run, tmp_path):
    raw, done = complete_run
    cfg = config_from_dict(dict(raw, workers=2, output_dir=str(tmp_path / "resumed")))
    shutil.copytree(done, cfg.output_dir)
    assert run_pipeline(cfg).completed_stages == []
    assert output_digest(Path(cfg.output_dir)) == output_digest(done)
