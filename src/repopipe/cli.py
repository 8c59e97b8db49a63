"""Command line interface.

Exit codes: 0 success, 2 invalid configuration, 3 stage failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from .config import (
    ConfigError,
    PipelineConfig,
    config_to_dict,
    covers,
    default_config,
    load_config,
    require_valid,
)
from .pipeline import STAGES, StageFailure, emit_stats, run_pipeline, run_stage
from .stats import render_stats_table

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_STAGE = 3

# Flags that set one config field. `run` takes them all, a stage command
# those whose field its stage reads.
_FIELD_FLAGS = {
    "dump_graphs": ("--dump-graphs", {"action": "store_true", "help": "dump per-repo edge lists"}),
    "dedup.report": (
        "--dedup-report", {"action": "store_true", "help": "emit the dedup report JSONL"}
    ),
    "build.output_format": ("--output-format", {"choices": ("jsonl", "bin"), "default": None}),
}


def _load(args: argparse.Namespace) -> PipelineConfig:
    cfg = load_config(args.config) if args.config else default_config()
    if args.workers is not None:
        cfg.workers = args.workers
    if args.seed is not None:
        cfg.seed = args.seed
    if getattr(args, "output_dir", None):
        cfg.output_dir = args.output_dir
    if getattr(args, "inputs", None):
        cfg.inputs = args.inputs
    if getattr(args, "dump_graphs", False):
        cfg.dump_graphs = True
    if getattr(args, "dedup_report", False):
        cfg.dedup.report = True
    if getattr(args, "output_format", None):
        cfg.build.output_format = args.output_format
    require_valid(cfg)
    return cfg


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repopipe",
        description="Turn raw multi-language repositories into pretraining-ready samples.",
    )
    parser.add_argument(
        "--print-default-config",
        action="store_true",
        help="print the default config as JSON and exit",
    )
    sub = parser.add_subparsers(dest="command")

    def add_command(name: str, help: str, fields: tuple[str, ...]) -> None:
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", help="path to a JSON config file")
        p.add_argument("--inputs", nargs="+", help="input repo directories or JSONL files")
        p.add_argument("--output-dir", help="pipeline output directory")
        p.add_argument("--workers", type=int, default=None, help="worker process count")
        p.add_argument("--seed", type=int, default=None, help="global seed")
        for field_name, (flag, kwargs) in _FIELD_FLAGS.items():
            if covers(fields, field_name):
                p.add_argument(flag, **kwargs)

    add_command("run", "run the full pipeline", tuple(_FIELD_FLAGS))
    for number, stage in enumerate(STAGES, 1):
        add_command(stage.name, f"stage {number}: {stage.about}", stage.config)
    add_command("stats", "emit the corpus summary table", ())
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.print_default_config:
        print(json.dumps(config_to_dict(default_config()), indent=2, sort_keys=True))
        return EXIT_OK
    if not args.command:
        parser.print_help()
        return EXIT_OK
    try:
        cfg = _load(args)
        if args.command == "run":
            summary = run_pipeline(cfg)
            print(render_stats_table(summary.stats), end="")
            done = ", ".join(summary.completed_stages) or "none"
            skipped = ", ".join(summary.skipped_stages) or "none"
            print(f"stages run: {done}; resumed past: {skipped}")
        elif args.command == "stats":
            print(render_stats_table(emit_stats(cfg)), end="")
        else:
            run_stage(cfg, args.command)
            print(f"stage {args.command} completed")
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return EXIT_CONFIG
    except StageFailure as exc:
        print(exc, file=sys.stderr)
        return EXIT_STAGE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
