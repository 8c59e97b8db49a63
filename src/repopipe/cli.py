"""Command line interface.

Exit codes: 0 success, 2 invalid configuration, 3 stage failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from .config import (
    OUTPUT_FORMATS,
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

# Flags that set one config field, keyed by that field. Every command
# takes the first four, a stage command also those whose field its stage
# reads, and `run` all of them. An absent flag leaves the config's value.
_FIELD_FLAGS = {
    "inputs": ("--inputs", {"nargs": "+", "help": "input repo directories or JSONL files"}),
    "output_dir": ("--output-dir", {"help": "pipeline output directory"}),
    "workers": ("--workers", {"type": int, "help": "worker process count"}),
    "seed": ("--seed", {"type": int, "help": "global seed"}),
    "dump_graphs": ("--dump-graphs", {"action": "store_const", "const": True,
                                      "help": "write the dependency edges to reports/graphs.jsonl"}),
    "dedup.report": ("--dedup-report", {"action": "store_const", "const": True,
                                        "help": "emit the dedup report JSONL"}),
    "build.output_format": ("--output-format", {"choices": OUTPUT_FORMATS}),
}
_EVERY_COMMAND = ("inputs", "output_dir", "workers", "seed")


def _load(args: argparse.Namespace) -> PipelineConfig:
    cfg = load_config(args.config) if args.config else default_config()
    for name in _FIELD_FLAGS:
        value = getattr(args, name, None)
        if value is not None:
            section, _, leaf = name.rpartition(".")
            setattr(getattr(cfg, section) if section else cfg, leaf, value)
    if args.command != "stats":  # it reads only the output directory
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
        for field_name, (flag, kwargs) in _FIELD_FLAGS.items():
            if covers(_EVERY_COMMAND + fields, field_name):
                p.add_argument(flag, dest=field_name, **kwargs)

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
