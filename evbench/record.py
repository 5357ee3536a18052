"""Record the reference outputs the benchmark checks against.  Run from the
root of a checkout, at a commit whose outputs are known to be right:

    python3 evbench/record.py [--workload NAME ...] [--out evbench/references.json]

For every workload and every one of its N_INPUTS input sets, the unit of
work is run at the default BLAS thread count; the SHA-256 of every output
file is stored (and, for hac_coverage, the exact coverage dict), with the
environment it was recorded in.  Each unit is run again with one BLAS
thread, and output files whose bytes differ from the default run are
listed on standard error: the benchmark counts such a difference on
ols_bands as a failed run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

import harness
import workloads


def record(name: str, index: int, work: Path, replications: int | None = None) -> dict:
    inputs = workloads.generate(name, index, work / "inputs", replications)
    entry = None
    for threads in (1, None):
        shutil.rmtree(inputs.out_dir, ignore_errors=True)
        run = harness.run_child(inputs.unit_argv, harness.program_env(threads),
                                work / f"{name}-{index}", timeout_s=600)
        if not run.ok:
            raise SystemExit(f"{name} input {index}: the unit of work failed:\n{run.stdout}")
        files = harness.digests(inputs.out_dir)
        if entry is not None:
            differ = sorted(f for f in files if files[f] != entry["files"].get(f))
            if differ:
                print(f"{name} input {index}: one BLAS thread writes other bytes in {differ}",
                      file=sys.stderr, flush=True)
        entry = {"files": files}
    if name == "hac_coverage":
        entry["coverage"] = json.loads((inputs.out_dir / "coverage.json").read_text(encoding="utf-8"))
    return entry


def main(argv=None) -> int:
    harness.check_checkout()
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    p.add_argument("--input", action="append", type=int,
                   help="record only these input sets (default: all)")
    p.add_argument("--out", type=Path, default=harness.REFERENCES)
    p.add_argument("--replications", type=int, default=None,
                   help="override the workloads' placebo replications (smoke test)")
    args = p.parse_args(argv)
    references = harness.load_references(args.out) if args.out.is_file() else {}
    references["environment"] = harness.environment(harness.program_env())
    work = harness.WORK / f"record-{os.getpid()}"
    try:
        for name in args.workload or list(workloads.WORKLOADS):
            indexes = args.input or range(workloads.N_INPUTS)
            recorded = references.setdefault(name, {})
            for i in indexes:
                recorded[str(i)] = record(name, i, work, args.replications)
            args.out.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n",
                                encoding="utf-8")
            print(f"{name}: {len(indexes)} input sets recorded", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
