from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import random
import tracemalloc

import pytest

from repopipe.config import (
    ConfigError,
    config_from_dict,
    config_hash,
    config_to_dict,
    default_config,
    load_config,
    sha256_file,
    validate_config,
)


class TestRoundTrip:
    def test_default_round_trips_through_dict(self):
        cfg = default_config()
        again = config_from_dict(config_to_dict(cfg))
        assert config_to_dict(again) == config_to_dict(cfg)

    def test_load_from_file(self, tmp_path):
        inputs = tmp_path / "corpus"
        inputs.mkdir()
        path = tmp_path / "cfg.json"
        path.write_text(
            json.dumps(
                {
                    "inputs": [str(inputs)],
                    "output_dir": str(tmp_path / "out"),
                    "seed": 3,
                    "dedup": {"threshold": 0.9},
                }
            )
        )
        cfg = load_config(str(path))
        assert cfg.seed == 3
        assert cfg.dedup.threshold == 0.9
        assert cfg.dedup.num_perm == 128  # untouched defaults survive

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"inputs": [], "no_such_option": 1})

    def test_unknown_section_key_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"dedup": {"nope": 1}})

    def test_bad_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_config_that_is_not_an_object_rejected(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="must contain a JSON object"):
            load_config(str(path))


FILTER_LENGTHS = ["max_avg_line_len", "max_line_len", "xml_window", "html_min_visible_chars",
                  "data_min_chars", "data_max_chars", "long_line_chars"]
FILTER_FRACTIONS = ["min_alpha_fraction", "html_min_visible_ratio",
                    "max_repeated_token_fraction", "max_long_line_fraction"]
OUT_OF_RANGE = [
    [("dedup.bands", -16), ("dedup.rows", -8)],  # bands * rows is still num_perm
    *([(f"filters.{name}", -1)] for name in FILTER_LENGTHS),
    *([(f"filters.{name}", value)] for name in FILTER_FRACTIONS for value in (-0.1, 1.1)),
    [("build.fim_mode", "msp")],
    [("build.output_format", "parquet")],
]


# Numeric fields any value of which is valid.
UNBOUNDED = ("seed", "dedup.seed")


def numeric_fields(section, where: str = ""):
    for f in dataclasses.fields(section):
        value, name = getattr(section, f.name), where + f.name
        if dataclasses.is_dataclass(value):
            yield from numeric_fields(value, name + ".")
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            yield name, f.metadata


class TestValidation:
    def test_all_violations_reported_at_once(self, tmp_path):
        cfg = default_config()
        cfg.inputs = [str(tmp_path / "missing")]
        cfg.workers = 0
        cfg.dedup.threshold = 1.5
        cfg.dedup.bands = 10  # 10*8 != 128
        cfg.build.fim_rate = -0.1
        cfg.build.entry_len = 1
        cfg.language_map = str(tmp_path / "missing_map.json")
        cfg.decontaminate.benchmark_files = [str(tmp_path / "missing_bench.jsonl")]
        violations = validate_config(cfg)
        text = "\n".join(violations)
        assert len(violations) >= 8
        assert "missing" in text
        assert "language_map: path does not exist" in text
        assert "decontaminate.benchmark_files: path does not exist" in text
        assert "workers" in text
        assert "threshold" in text
        assert "bands" in text
        assert "fim_rate" in text
        assert "entry_len" in text

    def test_valid_default_with_real_input(self, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        cfg = default_config()
        cfg.inputs = [str(corpus)]
        cfg.output_dir = str(tmp_path / "out")
        assert validate_config(cfg) == []

    @pytest.mark.parametrize("out,ingested", [
        (".", True), ("out", True), ("repo/deep/out", True),
        (".out", False), ("repo/.cache/out", False), ("../out", False),
    ])
    def test_output_dir_that_ingest_would_read_is_a_violation(self, tmp_path, out, ingested):
        # Without the check, `run` read its own manifests back as a repo
        # named after the output directory, and so never resumed.
        corpus = tmp_path / "corpus"
        (corpus / "repo").mkdir(parents=True)
        cfg = default_config()
        cfg.inputs = [str(corpus)]
        cfg.output_dir = str(corpus / out)
        assert any(v.startswith("output_dir:") for v in validate_config(cfg)) == ingested

    def test_output_dir_check_resolves_symlinks(self, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (tmp_path / "link").symlink_to(corpus)
        cfg = default_config()
        cfg.inputs = [str(tmp_path / "link")]
        cfg.output_dir = str(corpus / "out")
        assert [v.split(":")[0] for v in validate_config(cfg)] == ["output_dir"]
        cfg.inputs, cfg.output_dir = [str(corpus)], str(tmp_path / "link" / "out")
        assert [v.split(":")[0] for v in validate_config(cfg)] == ["output_dir"]

    @pytest.mark.parametrize("out,ingested", [
        ("r", True), ("r/out", True), ("r/deep/out", True),
        ("r/.cache/out", False), ("out", False), (".hidden/out", False),
    ])
    def test_output_dir_in_the_target_of_a_repo_symlink_is_a_violation(self, tmp_path, out, ingested):
        # Ingest follows a symlinked repo root, so `corpus/r -> elsewhere/r`
        # made `--output-dir elsewhere/r/out` a repo `r` file set that the
        # check on the input directory's own path could not see.
        corpus, elsewhere = tmp_path / "corpus", tmp_path / "elsewhere"
        (elsewhere / "r").mkdir(parents=True)
        (elsewhere / ".hidden").mkdir()
        corpus.mkdir()
        (corpus / "r").symlink_to(elsewhere / "r")
        (corpus / ".hidden").symlink_to(elsewhere / ".hidden")  # ingest skips it
        cfg = default_config()
        cfg.inputs = [str(corpus)]
        cfg.output_dir = str(elsewhere / out)
        assert any(v.startswith("output_dir:") for v in validate_config(cfg)) == ingested

    def test_file_fields_must_name_regular_files(self, tmp_path):
        # The checkpoint key hashes these files' bytes; a directory here
        # raised IsADirectoryError there instead of a violation.
        corpus, missing = tmp_path / "corpus", tmp_path / "missing.jsonl"
        corpus.mkdir()
        cfg = default_config()
        cfg.inputs = [str(corpus)]
        cfg.output_dir = str(tmp_path / "out")
        cfg.language_map = str(corpus)
        cfg.decontaminate.benchmark_files = [str(corpus), str(missing)]
        assert validate_config(cfg) == [
            f"language_map: not a regular file: {corpus}",
            f"decontaminate.benchmark_files: not a regular file: {corpus}",
            f"decontaminate.benchmark_files: path does not exist: {missing}",
        ]

    @pytest.mark.parametrize("out,bad", [
        ("file", True), ("file/out", True), ("file/a/b", True), ("dangling", True),
        ("dir", False), ("dir/out", False), ("dir/a/b", False), ("link/out", False),
    ])
    def test_output_dir_that_cannot_be_a_directory_is_a_violation(self, tmp_path, out, bad):
        # os.makedirs raised FileExistsError or NotADirectoryError here.
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (tmp_path / "file").write_text("x")
        (tmp_path / "dir").mkdir()
        (tmp_path / "link").symlink_to(tmp_path / "dir")
        (tmp_path / "dangling").symlink_to(tmp_path / "nowhere")
        cfg = default_config()
        cfg.inputs = [str(corpus)]
        cfg.output_dir = str(tmp_path / out)
        violations = validate_config(cfg)
        assert violations == ([f"output_dir: {cfg.output_dir}: {tmp_path / out.split('/')[0]} "
                               "exists and is not a directory"] if bad else [])

    def test_empty_inputs_rejected(self):
        cfg = default_config()
        cfg.inputs = []
        assert any("inputs" in v for v in validate_config(cfg))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_every_non_finite_float_is_a_violation(self, tmp_path, value):
        # NaN fails every comparison, so a NaN threshold turned its rule off.
        cfg = default_config()
        cfg.inputs = [str(tmp_path)]
        filters = ["max_avg_line_len", "min_alpha_fraction", "html_min_visible_ratio",
                   "max_repeated_token_fraction", "max_long_line_fraction"]
        cfg.filters = dataclasses.replace(cfg.filters, **dict.fromkeys(filters, value))
        cfg.dedup.threshold = value
        cfg.build.fim_rate = value
        violations = validate_config(cfg)
        for name in [*(f"filters.{f}" for f in filters), "dedup.threshold", "build.fim_rate"]:
            assert f"{name}: must be finite, got {value!r}" in violations

    def test_duplicate_sentinels_rejected(self, tmp_path):
        corpus = tmp_path / "c"
        corpus.mkdir()
        cfg = default_config()
        cfg.inputs = [str(corpus)]
        cfg.build.sentinels["eos"] = cfg.build.sentinels["fim_start"]
        assert any("sentinels" in v for v in validate_config(cfg))

    @pytest.mark.parametrize(
        "values", OUT_OF_RANGE, ids=lambda values: ",".join(f"{n}={v}" for n, v in values)
    )
    def test_out_of_range_value_is_a_violation(self, tmp_path, values):
        raw: dict = {"inputs": [str(tmp_path)]}
        for name, value in values:
            section, leaf = name.split(".")
            raw.setdefault(section, {})[leaf] = value
        violations = validate_config(config_from_dict(raw))
        assert [v.split(":")[0] for v in violations] == [name for name, _ in values]

    def test_every_number_is_bounded_or_explicitly_unbounded(self):
        for name, meta in numeric_fields(default_config()):
            bounded = any(sign in meta for sign in (">=", "<=", ">", "<"))
            assert bounded != (name in UNBOUNDED), name


class TestConfigHash:
    def test_stable_for_equal_configs(self):
        assert config_hash(default_config()) == config_hash(default_config())

    def test_workers_excluded(self):
        a = default_config()
        b = default_config()
        b.workers = 8
        assert config_hash(a) == config_hash(b)

    def test_parameter_changes_change_hash(self):
        a = default_config()
        b = default_config()
        b.dedup.threshold = 0.9
        assert config_hash(a) != config_hash(b)


class TestSha256File:
    @pytest.mark.parametrize("size", [0, 1, 65_535, 65_536, 65_537, 3 * 65_536 + 5])
    def test_digest_at_block_edges(self, tmp_path, size):
        data = random.Random(size).randbytes(size)
        (tmp_path / "f").write_bytes(data)
        assert sha256_file(str(tmp_path / "f")) == hashlib.sha256(data).hexdigest()

    def test_peak_is_one_block_not_the_file(self, tmp_path):
        (tmp_path / "f").write_bytes(random.Random(0).randbytes(8 << 20))
        sha256_file(str(tmp_path / "f"))  # hashlib imported outside the measurement
        tracemalloc.start()
        try:
            sha256_file(str(tmp_path / "f"))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 128 << 10, f"peak {peak} bytes hashing 8 MiB"


class TestTypes:
    @pytest.mark.parametrize(
        "raw, field",
        [
            ({"dedup": 5}, "dedup"),
            ({"stages": []}, "stages"),
            ({"workers": "2"}, "workers"),
            ({"build": {"entry_len": "4096"}}, "build.entry_len"),
            ({"build": {"pad_final": "false"}}, "build.pad_final"),
            ({"inputs": "corpus"}, "inputs"),
            ({"filters": {"max_line_len": None}}, "filters.max_line_len"),
            ({"seed": True}, "seed"),
            ({"language_map": 3}, "language_map"),
            ({"decontaminate": {"benchmark_files": ["a.jsonl", 1]}}, "decontaminate.benchmark_files"),
            ({"build": {"sentinels": {"eos": 0}}}, "build.sentinels"),
        ],
    )
    def test_wrong_json_type_is_a_violation(self, raw, field):
        with pytest.raises(ConfigError) as info:
            config_from_dict(raw)
        assert [v.split(":")[0] for v in info.value.violations] == [field]

    def test_every_mismatch_in_one_error(self):
        raw = {"workers": "2", "nope": 1, "dedup": {"threshold": "high"}, "build": {"pad_final": 0}}
        with pytest.raises(ConfigError) as info:
            config_from_dict(raw)
        assert len(info.value.violations) == 4

    def test_int_is_a_float_and_null_a_language_map(self):
        cfg = config_from_dict({"build": {"fim_rate": 1}, "language_map": None})
        assert cfg.build.fim_rate == 1
        assert cfg.language_map is None
