"""End-to-end benchmark of repopipe on seeded synthetic corpora.

    python3 bench/run.py --workload mixed --seed 1 --seconds 20 --trace 0

Generates the workload's corpus from --seed under .bench_work/, then
repeats whole rounds of `repopipe run` child processes for --seconds and
checks every output against the generator's ground truth. With
--trace 0 it reports the end-to-end metrics; with --trace 1 it pairs an
untraced run with a traced one (bench/traced_run.py, one worker) per
round and reports the per-layer metrics. The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

The program is taken from src/ of the checkout this file sits in; the
benchmark exits with code 2 when there is none.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
sys.path.insert(0, HERE)

from check_outputs import CheckError, check_all, output_bytes, output_digest, work_digest  # noqa: E402
from gen_corpus import SPECS, generate  # noqa: E402

FIM_RATE = 0.5
SETUP_LAUNCHES = 7  # at least this many set-up probes per run
ROUND_PROBES = 2
ROUND_RESUMES = 3
REBUILD_ENTRY_LENS = (4096, 3072)  # the rebuild workload alternates between these
WORKLOADS = {
    # name: (workers of the timed run, build.output_format)
    "mixed": (1, "jsonl"),
    "monorepo": (1, "bin"),
    "rebuild": (2, "jsonl"),
}
SETUP_PROBE = (
    "import sys\n"
    "import repopipe\n"
    "from repopipe.config import load_config, require_valid\n"
    "from repopipe.corpus import LanguageMap\n"
    "cfg = load_config(sys.argv[1])\n"
    "require_valid(cfg)\n"
    "LanguageMap.load(cfg.language_map)\n"
)


# Each child is started by a small launcher that times it and reports its
# rusage. Linux sets a new program's peak RSS at exec to the peak of the
# address space it replaces; a child started straight from this process
# (by vfork or fork) would report at least this process's own peak, which
# holds the corpus, the checks and numpy. The launcher's address space is
# a bare interpreter's, far below any repopipe process.
LAUNCHER = (
    "import os, sys, time\n"
    "fd = os.open(sys.argv[1], os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)\n"
    "io = [(os.POSIX_SPAWN_DUP2, fd, 1), (os.POSIX_SPAWN_DUP2, fd, 2)]\n"
    "start = time.perf_counter()\n"
    "pid = os.posix_spawn(sys.argv[2], sys.argv[2:], os.environ, file_actions=io)\n"
    "_, status, usage = os.wait4(pid, 0)\n"
    "wall = time.perf_counter() - start\n"
    "print(wall, usage.ru_maxrss, os.waitstatus_to_exitcode(status))\n"
)


def launch(argv: list[str], log: str) -> tuple[float, float, int]:
    """Run a child to completion: (wall seconds, peak RSS in MB, exit code).
    The peak is the largest resident set among the child and the
    descendants it waited for, pool workers included."""
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-I", "-c", LAUNCHER, log, *argv],
                         env=env, cwd=ROOT, stdout=subprocess.PIPE, check=True)
    wall, maxrss_kb, code = out.stdout.split()
    return float(wall), int(maxrss_kb) * 1024 / 1e6, int(code)


def harness_peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


class Workload:
    """One workload's corpus, config and output directory, and the
    operations (CLI invocations) run on them."""

    def __init__(self, name: str, seed: int) -> None:
        self.name, self.seed = name, seed
        self.dir = os.path.join(WORK, f"{name}-{seed}-{os.getpid()}")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.truth = generate(name, seed, self.dir)
        self.corpus = os.path.join(self.dir, "corpus")
        self.out = os.path.join(self.dir, "out")
        self.config = os.path.join(self.dir, "config.json")
        self.log = os.path.join(self.dir, "children.log")
        self.workers, self.output_format = WORKLOADS[name]
        self.input_mb = self.truth["input_bytes"] / 1e6
        self.attempted = self.failed = 0
        self.correct = True
        self.checked: dict[int, dict[str, str]] = {}  # entry_len -> digest of a checked output
        self.prepared_work: dict[str, str] | None = None
        self.write_config(REBUILD_ENTRY_LENS[0])

    def write_config(self, entry_len: int) -> None:
        self.entry_len = entry_len
        cfg = {
            "inputs": [self.corpus],
            "output_dir": self.out,
            "seed": self.seed,
            "workers": 1,
            "decontaminate": {"benchmark_files": [os.path.join(self.dir, "benchmarks.jsonl")]},
            "build": {"entry_len": entry_len, "fim_rate": FIM_RATE, "output_format": self.output_format},
        }
        with open(self.config, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh, indent=1)

    def setup_probe(self) -> float:
        wall, _, code = launch([sys.executable, "-c", SETUP_PROBE, self.config], self.log)
        if code != 0:
            raise RuntimeError(f"set-up probe exited {code}; see {self.log}")
        return wall

    def operation(self, argv: list[str], resume: bool = False) -> tuple[float, float] | None:
        """One CLI invocation and the checks of what it wrote; None when it failed."""
        before = output_digest(self.out) if resume else None
        self.attempted += 1
        wall, rss, code = launch(argv, self.log)
        if code != 0:
            self.failed += 1
            return None
        try:
            self.verify(before)
        except CheckError as exc:
            print(f"check failed ({self.name}, seed {self.seed}): {exc}", file=sys.stderr)
            self.failed += 1
            self.correct = False
            return None
        return wall, rss

    def verify(self, before: dict[str, str] | None) -> None:
        digest = output_digest(self.out)
        if before is not None:
            with open(os.path.join(self.out, "run.json"), encoding="utf-8") as fh:
                ran = json.load(fh)["stages_completed"]
            if ran or digest != before:
                raise CheckError(f"resume with unchanged config re-ran {ran} or changed outputs")
        elif self.entry_len in self.checked:
            if digest != self.checked[self.entry_len]:
                raise CheckError("output differs from an earlier checked run with the same config")
        else:
            check_all(self.out, self.truth, self.corpus, FIM_RATE)
            self.checked[self.entry_len] = digest
        if self.prepared_work is not None and work_digest(self.out) != self.prepared_work:
            raise CheckError("work/*.jsonl differ from the prepared run's")

    def cli(self, workers: int) -> list[str]:
        return [sys.executable, "-m", "repopipe.cli", "run", "--config", self.config, "--workers", str(workers)]

    def prepare(self) -> None:
        """rebuild: an untimed run at one worker whose outputs later runs must reuse."""
        if self.name == "rebuild":
            if self.operation(self.cli(1)) is None:
                raise RuntimeError(f"preparing the rebuild output failed; see {self.log}")
            self.prepared_work = work_digest(self.out)

    def next_input(self) -> None:
        """mixed, monorepo: start from an empty output directory.
        rebuild: change only build.entry_len."""
        if self.name == "rebuild":
            first, second = REBUILD_ENTRY_LENS
            self.write_config(second if self.entry_len == first else first)
        else:
            shutil.rmtree(self.out, ignore_errors=True)

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def measure(w: Workload, seconds: float) -> dict[str, tuple[float, str]]:
    """Whole rounds of (set-up probes, timed run, resumes) for `seconds`.
    Probes and resumes are short and vary most from call to call, so a
    round takes several, spread over the run like the timed runs."""
    w.prepare()
    setups, walls, rsss, resumes, sizes = [], [], [], [], []
    start = time.perf_counter()
    while not setups or time.perf_counter() - start < seconds:
        setups += [w.setup_probe() for _ in range(ROUND_PROBES)]
        w.next_input()
        timed = w.operation(w.cli(w.workers))
        if timed is not None:
            walls.append(timed[0])
            rsss.append(timed[1])
            sizes.append(output_bytes(w.out) / 1e6)
        for _ in range(ROUND_RESUMES):
            resumed = w.operation(w.cli(w.workers), resume=True)
            if resumed is not None:
                resumes.append(resumed[0])
    while len(setups) < SETUP_LAUNCHES:
        setups.append(w.setup_probe())
    med = lambda xs: statistics.median(xs) if xs else float("nan")  # noqa: E731
    return {
        "setup_s": (med(setups), "s"),
        "throughput_mb_s": (w.input_mb / med(walls), "MB/s"),
        "peak_rss_mb": (med(rsss), "MB"),
        "resume_s": (med(resumes), "s"),
        "output_mb": (med(sizes), "MB"),
    }


def measure_traced(w: Workload, seconds: float) -> dict[str, tuple[float, str]]:
    """Rounds of an untraced and a traced run at one worker, in turns
    first; per-layer medians over the rounds and the tracing overhead."""
    w.prepare()
    rounds: list[dict] = []
    overheads: list[float] = []
    result = os.path.join(w.dir, "trace.json")
    traced_argv = [sys.executable, os.path.join(HERE, "traced_run.py"), SRC, w.config, result]
    start, attempts = time.perf_counter(), 0
    while attempts == 0 or time.perf_counter() - start < seconds:
        attempts += 1
        runs = {}
        for kind in ("plain", "traced") if attempts % 2 else ("traced", "plain"):
            w.next_input()
            runs[kind] = w.operation(w.cli(1) if kind == "plain" else traced_argv)
        plain, traced = runs["plain"], runs["traced"]
        if plain is None or traced is None:
            continue
        with open(result, encoding="utf-8") as fh:
            rounds.append(json.load(fh)["metrics"])
        overheads.append(traced[0] - plain[0])
    if not rounds:
        return {}
    metrics = {
        name: (statistics.median(r[name][0] for r in rounds), unit)
        for name, (_, unit) in rounds[0].items()
    }
    metrics["trace.overhead_s"] = (statistics.median(overheads), "s")
    return metrics


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    w = Workload(name, seed)
    try:
        metrics = (measure_traced if trace else measure)(w, seconds)
    finally:
        w.close()
    for key, (value, unit) in metrics.items():
        print(f"{name:9s} {key:32s} {value:12.4f} {unit}")
    print(f"{name:9s} operations attempted {w.attempted}, failed {w.failed}, "
          f"outputs {'correct' if w.correct else 'WRONG'}; harness peak RSS {harness_peak_mb():.1f} MB")
    return {
        "correct": w.correct,
        "attempted": w.attempted,
        "failed": w.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="repopipe end-to-end benchmark")
    parser.add_argument("--workload", choices=[*SPECS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "repopipe", "cli.py")):
        print(f"no repopipe source under {SRC}", file=sys.stderr)
        return 2
    names = list(SPECS) if args.workload == "all" else [args.workload]
    results = {n: run(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    if len(results) == 1:
        final = results[names[0]]
    else:  # one object for all workloads, metric names prefixed by workload
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
