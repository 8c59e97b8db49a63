"""Pipeline configuration: typed sections, JSON round-trip, validation
that reports every violation at once, and the content hashes that key
the stage checkpoints.

A leaf module: it imports no other repopipe module, so loading and
validating a config compiles no stage kernel. The sections that the
kernels also take, `FilterThresholds` and `SentinelSet` with the FIM
layouts and sentinel literals, are defined here, and `filters` and
`packing` import them from here. hashlib, and OpenSSL with it, is imported
only by the functions that hash.
"""

from __future__ import annotations

import dataclasses
import json
import math
import operator
import os
import types
from dataclasses import dataclass, field
from typing import Iterator, Sequence, Union, get_args, get_origin, get_type_hints

OUTPUT_FORMATS = ("jsonl", "bin")
PSM = "psm"
SPM = "spm"

# The fim_* sentinels use the fullwidth vertical bar (U+FF5C); the eos
# sentinel uses the ASCII bar. Both forms are intentional.
FIM_START = "<｜fim_start｜>"
FIM_HOLE = "<｜fim_hole｜>"
FIM_END = "<｜fim_end｜>"
EOS = "<|eos_token|>"

# Field metadata keys that bound a number: {">=": 0, "<=": 1} is [0, 1].
_BOUNDS = {">=": operator.ge, "<=": operator.le, ">": operator.gt, "<": operator.lt}


class ConfigError(Exception):
    """Raised on invalid configuration; carries every violation found."""

    def __init__(self, violations: list[str]) -> None:
        self.violations = violations
        super().__init__("invalid config:\n" + "\n".join(f"  - {v}" for v in violations))


@dataclass(frozen=True)
class SentinelSet:
    """The four reserved literals. They must be pairwise distinct and
    must never occur in document content (checked per document).
    """

    fim_start: str = FIM_START
    fim_hole: str = FIM_HOLE
    fim_end: str = FIM_END
    eos: str = EOS

    def __post_init__(self) -> None:
        four = (self.fim_start, self.fim_hole, self.fim_end, self.eos)
        if len(set(four)) != 4 or not all(four):
            raise ValueError("sentinels must be four distinct non-empty strings")

    def as_tuple(self) -> tuple[str, str, str, str]:
        return (self.fim_start, self.fim_hole, self.fim_end, self.eos)


@dataclass(frozen=True)
class FilterThresholds:
    """All numeric filter knobs; overridable via the pipeline config,
    which checks each against the range in its metadata."""

    max_avg_line_len: float = field(default=100.0, metadata={">=": 0})
    max_line_len: int = field(default=1000, metadata={">=": 0})
    min_alpha_fraction: float = field(default=0.25, metadata={">=": 0, "<=": 1})
    xml_window: int = field(default=100, metadata={">=": 0})
    html_min_visible_chars: int = field(default=100, metadata={">=": 0})
    html_min_visible_ratio: float = field(default=0.20, metadata={">=": 0, "<=": 1})
    data_min_chars: int = field(default=50, metadata={">=": 0})
    data_max_chars: int = field(default=5000, metadata={">=": 0})
    # Quality-screening heuristics (applied at the screening stage).
    max_repeated_token_fraction: float = field(default=0.5, metadata={">=": 0, "<=": 1})
    long_line_chars: int = field(default=200, metadata={">=": 0})
    max_long_line_fraction: float = field(default=0.9, metadata={">=": 0, "<=": 1})


@dataclass
class StageToggles:
    """A disabled stage acts as the identity map (filter/dedup/
    decontaminate drop nothing; order falls back to input order; build
    off means the run stops at clean samples).
    """

    filter: bool = True
    order: bool = True
    dedup: bool = True
    decontaminate: bool = True
    build: bool = True


@dataclass
class DedupConfig:
    num_perm: int = field(default=128, metadata={">=": 16})
    shingle_width: int = field(default=5, metadata={">=": 1})
    threshold: float = field(default=0.85, metadata={">": 0, "<": 1})
    bands: int = field(default=16, metadata={">=": 1})
    rows: int = field(default=8, metadata={">=": 1})
    seed: int = 1
    report: bool = False


@dataclass
class DecontamConfig:
    # JSONL files of {"text": ..., "benchmark": ...} records.
    benchmark_files: list[str] = field(default_factory=list)
    quality_heuristics: bool = True
    report: bool = True


@dataclass
class BuildConfig:
    fim_rate: float = field(default=0.5, metadata={">=": 0, "<=": 1})
    fim_mode: str = field(default=PSM, metadata={"choices": (PSM, SPM)})
    entry_len: int = field(default=4096, metadata={">=": 2})
    pad_final: bool = False
    output_format: str = field(default="jsonl", metadata={"choices": OUTPUT_FORMATS})
    entries_per_shard: int = field(default=1000, metadata={">=": 1})
    sentinels: dict[str, str] = field(default_factory=lambda: dataclasses.asdict(SentinelSet()))

    def sentinel_set(self) -> SentinelSet:
        return SentinelSet(**self.sentinels)


@dataclass
class PipelineConfig:
    inputs: list[str] = field(default_factory=list, metadata={"nonempty": True})
    output_dir: str = field(default="out", metadata={"nonempty": True})
    seed: int = 0
    workers: int = field(default=1, metadata={">=": 1})
    language_map: str | None = None
    dump_graphs: bool = False
    stages: StageToggles = field(default_factory=StageToggles)
    filters: FilterThresholds = field(default_factory=FilterThresholds)
    dedup: DedupConfig = field(default_factory=DedupConfig)
    decontaminate: DecontamConfig = field(default_factory=DecontamConfig)
    build: BuildConfig = field(default_factory=BuildConfig)


def default_config() -> PipelineConfig:
    return PipelineConfig()


def config_to_dict(cfg: PipelineConfig) -> dict:
    return dataclasses.asdict(cfg)


def _has_type(value, hint) -> bool:
    """Whether a JSON value fits a field's type. A bool is not an int;
    an int is a float."""
    args, origin = get_args(hint), get_origin(hint)
    if origin in (Union, types.UnionType):
        return any(_has_type(value, arg) for arg in args)
    if origin is list:
        return isinstance(value, list) and all(_has_type(v, args[0]) for v in value)
    if origin is dict:
        return isinstance(value, dict) and all(
            _has_type(k, args[0]) and _has_type(v, args[1]) for k, v in value.items()
        )
    if isinstance(value, bool) and hint is not bool:
        return False
    return isinstance(value, (int, float) if hint is float else hint)


def _build_section(cls, raw, where: str, violations: list[str]):
    """`cls` from `raw`, checking each key against the fields of `cls`; a
    field whose type is a dataclass is a section of its own. `where` is
    the dotted name of the section, "" at the top."""
    if not isinstance(raw, dict):
        violations.append(f"{where or 'config'}: expected an object, got {raw!r}")
        return cls()
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(raw) - set(fields)
    if unknown:
        violations.append(f"unknown key(s) in {where or 'config'}: {sorted(unknown)}")
    hints = get_type_hints(cls)
    kwargs = {}
    for name in fields:
        if name not in raw:
            continue
        value, hint = raw[name], hints[name]
        dotted = f"{where}.{name}" if where else name
        if dataclasses.is_dataclass(hint):
            kwargs[name] = _build_section(hint, value, dotted, violations)
        elif _has_type(value, hint):
            kwargs[name] = value
        else:
            violations.append(f"{dotted}: expected {fields[name].type}, got {value!r}")
    return cls(**kwargs)


def config_from_dict(raw: dict) -> PipelineConfig:
    """A config from its JSON form; every unknown key and every value of
    the wrong type is reported in one ConfigError."""
    violations: list[str] = []
    cfg = _build_section(PipelineConfig, raw, "", violations)
    if violations:
        raise ConfigError(violations)
    return cfg


def load_config(path: str) -> PipelineConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError([f"cannot read config file {path}: {exc}"]) from exc
    except json.JSONDecodeError as exc:
        raise ConfigError([f"config file {path} is not valid JSON: {exc}"]) from exc
    if not isinstance(raw, dict):
        raise ConfigError([f"config file {path} must contain a JSON object"])
    return config_from_dict(raw)


def _range_violations(section, where: str = ""):
    """Every field value outside the range its metadata declares, walking
    the sections of `section`. The keys are those of _BOUNDS, "choices"
    and "nonempty". Every float must also be finite: NaN fails
    every comparison, so a NaN threshold would turn its rule off."""
    for f in dataclasses.fields(section):
        value, name, meta = getattr(section, f.name), where + f.name, f.metadata
        if dataclasses.is_dataclass(value):
            yield from _range_violations(value, name + ".")
        elif isinstance(value, float) and not math.isfinite(value):
            yield f"{name}: must be finite, got {value!r}"
        elif "choices" in meta and value not in meta["choices"]:
            yield f"{name}: must be one of {meta['choices']}, got {value!r}"
        elif meta.get("nonempty") and not value:
            yield f"{name}: must not be empty"
        else:
            for sign, holds in _BOUNDS.items():
                if sign in meta and not holds(value, meta[sign]):
                    yield f"{name}: must be {sign} {meta[sign]}, got {value}"


def _file_violations(name: str, paths: Sequence[str]) -> Iterator[str]:
    """A field's paths that do not name a regular file, whose bytes the
    checkpoint key hashes."""
    for path in paths:
        if not os.path.exists(path):
            yield f"{name}: path does not exist: {path}"
        elif not os.path.isfile(path):
            yield f"{name}: not a regular file: {path}"


def validate_config(cfg: PipelineConfig) -> list[str]:
    """Every violation, not just the first."""
    v = list(_range_violations(cfg))
    out = os.path.realpath(cfg.output_dir)
    for path in cfg.inputs:
        if not os.path.exists(path):
            v.append(f"inputs: path does not exist: {path}")
        elif os.path.isdir(path):  # ingest skips only '.'-named directories, and follows repo links
            try:
                with os.scandir(path) as it:
                    links = [e.path for e in it if not e.name.startswith(".") and e.is_symlink() and e.is_dir()]
            except OSError:  # ingest cannot list it either, and fails the filter stage
                continue
            for root in [path, *links]:
                rel = os.path.relpath(out, os.path.realpath(root))
                if rel == os.curdir or not any(part.startswith(".") for part in rel.split(os.sep)):
                    via = "" if root == path else f" through the repo link {root}"
                    v.append(f"output_dir: {cfg.output_dir} lies in input directory {path}{via}, "
                             "which would ingest the outputs")
    existing = os.path.abspath(cfg.output_dir)  # os.makedirs needs its nearest ancestor a directory
    while not os.path.lexists(existing):
        existing = os.path.dirname(existing)
    if not os.path.isdir(existing):
        v.append(f"output_dir: {cfg.output_dir}: {existing} exists and is not a directory")
    if cfg.language_map is not None:
        v.extend(_file_violations("language_map", [cfg.language_map]))

    d = cfg.dedup
    if d.bands * d.rows != d.num_perm:
        v.append(
            f"dedup.bands*rows must equal num_perm: {d.bands}*{d.rows} != {d.num_perm}"
        )

    v.extend(_file_violations("decontaminate.benchmark_files", cfg.decontaminate.benchmark_files))

    try:
        cfg.build.sentinel_set()
    except (TypeError, ValueError) as exc:
        v.append(f"build.sentinels: {exc}")
    return v


def require_valid(cfg: PipelineConfig) -> None:
    violations = validate_config(cfg)
    if violations:
        raise ConfigError(violations)


# Fields that never change output bytes, so the checkpoint key leaves them out.
UNKEYED_FIELDS = ("workers", "output_dir")
# Fields that name files; the key covers the files' contents too.
PATH_FIELDS = ("language_map", "decontaminate.benchmark_files")


def sha256_file(path: str) -> str:
    """The file's sha256, read unbuffered into one reused 64 KiB buffer,
    so hashing a file of any size allocates no block per read."""
    import hashlib

    h = hashlib.sha256()
    buf = bytearray(1 << 16)
    view = memoryview(buf)
    with open(path, "rb", buffering=0) as fh:
        while n := fh.readinto(buf):
            h.update(view[:n])
    return h.hexdigest()


def config_field(raw: dict, name: str):
    """The value of a dotted field, such as "build.entry_len", in a
    config_to_dict() dict."""
    for part in name.split("."):
        raw = raw[part]
    return raw


def covers(fields: Sequence[str], name: str) -> bool:
    """Whether the dotted field `name` is one of `fields` or inside one."""
    return any(name == f or name.startswith(f + ".") for f in fields)


def config_hash(cfg: PipelineConfig) -> str:
    """Hash of every field but UNKEYED_FIELDS, plus the contents of each
    file a PATH_FIELDS entry names: the key of every stage's checkpoint.
    """
    import hashlib

    raw = config_to_dict(cfg)
    payload = {name: value for name, value in raw.items() if name not in UNKEYED_FIELDS}
    for name in PATH_FIELDS:
        paths = config_field(raw, name) or []
        if isinstance(paths, str):
            paths = [paths]
        payload[f"{name} sha256"] = [sha256_file(path) for path in paths]
    canonical = json.dumps(payload, sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
