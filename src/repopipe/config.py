"""Pipeline configuration: typed sections, JSON round-trip, validation
that reports every violation at once, and the content hashes that key
the stage checkpoints.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Sequence

from .filters import FilterThresholds
from .fim import PSM, SPM, SentinelSet

OUTPUT_FORMATS = ("jsonl", "bin")


class ConfigError(Exception):
    """Raised on invalid configuration; carries every violation found."""

    def __init__(self, violations: list[str]) -> None:
        self.violations = violations
        super().__init__("invalid config:\n" + "\n".join(f"  - {v}" for v in violations))


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
    num_perm: int = 128
    shingle_width: int = 5
    threshold: float = 0.85
    bands: int = 16
    rows: int = 8
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
    fim_rate: float = 0.5
    fim_mode: str = PSM
    entry_len: int = 4096
    pad_final: bool = False
    output_format: str = "jsonl"
    entries_per_shard: int = 1000
    sentinels: dict[str, str] = field(
        default_factory=lambda: {
            "fim_start": SentinelSet().fim_start,
            "fim_hole": SentinelSet().fim_hole,
            "fim_end": SentinelSet().fim_end,
            "eos": SentinelSet().eos,
        }
    )

    def sentinel_set(self) -> SentinelSet:
        return SentinelSet(**self.sentinels)


@dataclass
class PipelineConfig:
    inputs: list[str] = field(default_factory=list)
    output_dir: str = "out"
    seed: int = 0
    workers: int = 1
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


def _build_section(cls, raw: dict, where: str):
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError([f"unknown key(s) in {where}: {sorted(unknown)}"])
    return cls(**raw)


def config_from_dict(raw: dict) -> PipelineConfig:
    raw = dict(raw)
    sections = {
        "stages": StageToggles,
        "filters": FilterThresholds,
        "dedup": DedupConfig,
        "decontaminate": DecontamConfig,
        "build": BuildConfig,
    }
    kwargs: dict = {}
    for name, cls in sections.items():
        if name in raw:
            kwargs[name] = _build_section(cls, raw.pop(name), name)
    top = _build_section(PipelineConfig, raw, "config")
    for name, value in kwargs.items():
        setattr(top, name, value)
    return top


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


def validate_config(cfg: PipelineConfig) -> list[str]:
    """Every violation, not just the first."""
    v: list[str] = []
    if not cfg.inputs:
        v.append("inputs: at least one input path is required")
    for path in cfg.inputs:
        if not os.path.exists(path):
            v.append(f"inputs: path does not exist: {path}")
    if not cfg.output_dir:
        v.append("output_dir: required")
    if cfg.workers < 1:
        v.append(f"workers: must be >= 1, got {cfg.workers}")
    if cfg.language_map is not None and not os.path.exists(cfg.language_map):
        v.append(f"language_map: path does not exist: {cfg.language_map}")

    d = cfg.dedup
    if d.num_perm < 16:
        v.append(f"dedup.num_perm: must be >= 16, got {d.num_perm}")
    if not 0.0 < d.threshold < 1.0:
        v.append(f"dedup.threshold: must be in (0, 1), got {d.threshold}")
    if d.bands * d.rows != d.num_perm:
        v.append(
            f"dedup.bands*rows must equal num_perm: {d.bands}*{d.rows} != {d.num_perm}"
        )
    if d.shingle_width < 1:
        v.append(f"dedup.shingle_width: must be >= 1, got {d.shingle_width}")

    for path in cfg.decontaminate.benchmark_files:
        if not os.path.exists(path):
            v.append(f"decontaminate.benchmark_files: path does not exist: {path}")

    b = cfg.build
    if not 0.0 <= b.fim_rate <= 1.0:
        v.append(f"build.fim_rate: must be in [0, 1], got {b.fim_rate}")
    if b.fim_mode not in (PSM, SPM):
        v.append(f"build.fim_mode: must be '{PSM}' or '{SPM}', got {b.fim_mode!r}")
    if b.entry_len < 2:
        v.append(f"build.entry_len: must be >= 2, got {b.entry_len}")
    if b.output_format not in OUTPUT_FORMATS:
        v.append(f"build.output_format: must be one of {OUTPUT_FORMATS}, got {b.output_format!r}")
    if b.entries_per_shard < 1:
        v.append(f"build.entries_per_shard: must be >= 1, got {b.entries_per_shard}")
    try:
        b.sentinel_set()
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
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
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
    raw = config_to_dict(cfg)
    payload = {name: value for name, value in raw.items() if name not in UNKEYED_FIELDS}
    for name in PATH_FIELDS:
        paths = config_field(raw, name) or []
        if isinstance(paths, str):
            paths = [paths]
        payload[f"{name} sha256"] = [sha256_file(path) for path in paths]
    canonical = json.dumps(payload, sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
