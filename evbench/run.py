"""The eventyield benchmark.  Run from the root of a checkout:

    python3 evbench/run.py --workload ols_bands --seed 0 --seconds 20 --trace 0

Inputs are generated from the seed (see workloads.py) under `.evbench_work/`
in the checkout and removed afterwards; generation is not timed.  Every
program run is a fresh process started with the environment users get
(inherited `*_NUM_THREADS` removed), and every output is checked against
the SHA-256 references recorded in references.json.

With `--trace 0` the run reports the end-to-end metrics:
  study_s      median wall seconds of one unit of work, interpreter start
               and import included
  reps_per_s   placebo replications of one unit (all assets and panels)
               divided by study_s
  setup_s      median wall seconds of a fresh `eventyield validate` (import,
               config, every asset and the event table); for hac_coverage,
               import plus parsing the series file
  peak_rss_mb  median peak resident set size of the unit-of-work process
With `--trace 1` it alternates untraced and traced units (traced.py) and
reports the per-layer metrics, the tracing overhead and failed_frac.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; a line before it records
the environment (nproc, versions, BLAS threads) and the samples taken.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

import harness
import traced
import workloads

SETUP_RUNS = 3  # fresh set-up processes per run; setup_s is their median
MIN_UNITS = 3  # at least this many units of work per run, however long they take
TIME_LIMIT_S = 165.0  # a run ends within this, whatever the program does


class Tally:
    """Program runs attempted and failed; a run fails if it exits non-zero,
    writes another set of files, or writes bytes unlike the reference."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []  # what went wrong, one entry per failed run

    def add(self, run: harness.ChildRun, problems: list[str], label: str) -> None:
        self.attempted += 1
        if not run.ok:
            problems = ["exited non-zero or timed out"] + problems
        if problems:
            self.failed += 1
            self.failures.append(f"{label}: {', '.join(problems)}")


class Runner:
    """Starts the program's runs for one generated input set and checks
    each against its reference."""

    def __init__(self, inputs, reference, work: Path, deadline: float):
        self.inputs = inputs
        self.reference = reference
        self.work = work
        self.deadline = deadline
        self.tally = Tally()
        self.runs = 0

    def _child(self, argv, env) -> harness.ChildRun:
        self.runs += 1
        return harness.run_child(argv, env, self.work / f"run{self.runs}",
                                 self.deadline - time.perf_counter())

    def unit(self, argv=None, env=None, label="unit") -> harness.ChildRun:
        shutil.rmtree(self.inputs.out_dir, ignore_errors=True)
        run = self._child(argv or self.inputs.unit_argv, env or harness.program_env())
        self.tally.add(run, harness.mismatches(self.reference, self.inputs.out_dir), label)
        return run

    def setup(self) -> harness.ChildRun:
        run = self._child(self.inputs.setup_argv, harness.program_env())
        wrong = [] if run.stdout == self.inputs.setup_stdout else [f"printed {run.stdout!r}"]
        self.tally.add(run, wrong, "setup")
        return run

    def has_time_for(self, walls: list[float], seconds: float, started: float) -> bool:
        """Another unit fits in the measured time (at least MIN_UNITS are
        taken) and, at the slowest pace seen, before the time limit."""
        now = time.perf_counter()
        if now + max(walls) > self.deadline:
            return False
        return len(walls) < MIN_UNITS or now - started + statistics.median(walls) <= seconds


def check_blas_threads(runner: Runner, name: str, env_info: dict) -> None:
    """On ols_bands, outputs must also match the references with the BLAS
    pool pinned to one and to two threads (the default is measured anyway)."""
    if name == "ols_bands":
        for threads in (1, 2):
            if threads != env_info.get("blas_threads"):
                label = f"unit with BLAS threads={threads}"
                runner.unit(env=harness.program_env(threads), label=label)


def measure(runner: Runner, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics, tracing off."""
    setup = [runner.setup().wall_s for _ in range(SETUP_RUNS)]
    walls, rss = [], []
    started = time.perf_counter()
    while not walls or runner.has_time_for(walls, seconds, started):
        run = runner.unit()
        walls.append(run.wall_s)
        rss.append(run.peak_rss_mb)
    study = statistics.median(walls)
    metrics = {
        "study_s": (study, "s"),
        "reps_per_s": (runner.inputs.replications / study, "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }
    return metrics, {"study_s": walls, "setup_s": setup, "peak_rss_mb": rss}


def measure_traced(runner: Runner, seconds: float) -> tuple[dict, dict]:
    """Per-layer metrics: untraced and traced units alternate, each traced
    unit in a fresh process; each metric is the median over traced units."""
    spans = runner.work / "spans.json"
    traced_argv = [sys.executable, str(harness.HERE / "traced.py"), str(spans),
                   runner.inputs.program] + runner.inputs.unit_args
    plain, walls, per_unit = [], [], []
    started = time.perf_counter()
    while not walls or runner.has_time_for([p + t for p, t in zip(plain, walls)], seconds, started):
        plain.append(runner.unit().wall_s)
        spans.unlink(missing_ok=True)
        run = runner.unit(traced_argv, label="traced unit")
        walls.append(run.wall_s)
        if run.ok and spans.is_file():
            layers = traced.layer_metrics(json.loads(spans.read_text(encoding="utf-8")))
            layers["report.bytes_written"] = sum(
                p.stat().st_size for p in runner.inputs.out_dir.iterdir())
            layers["trace.study_s"] = run.wall_s
            per_unit.append(layers)
    metrics = {
        name: (statistics.median(u[name] for u in per_unit) if per_unit else 0.0, unit)
        for name, unit in traced.METRICS.items()
    }
    metrics["trace.overhead_s"] = (statistics.median(walls) - statistics.median(plain), "s")
    metrics["failed_frac"] = (runner.tally.failed / runner.tally.attempted, "ratio")
    return metrics, {"study_s": plain, "trace.study_s": walls}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--references", type=Path, default=harness.REFERENCES,
                   help="reference digests to check against")
    p.add_argument("--replications", type=int, default=None,
                   help="override the workload's placebo replications (smoke test)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    harness.check_checkout()
    deadline = time.perf_counter() + TIME_LIMIT_S
    references = harness.load_references(args.references)
    work = harness.WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        inputs = workloads.generate(args.workload, args.seed, work / "inputs", args.replications)
        index = str(workloads.input_index(args.seed))
        runner = Runner(inputs, references.get(args.workload, {}).get(index), work, deadline)
        env_info = harness.environment(harness.program_env())
        check_blas_threads(runner, args.workload, env_info)
        if args.trace:
            metrics, samples = measure_traced(runner, args.seconds)
        else:
            metrics, samples = measure(runner, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    tally = runner.tally
    detail = {"workload": args.workload, "seed": args.seed, "input": int(index),
              "environment": env_info, "samples": samples, "failures": tally.failures}
    print(json.dumps(detail))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
