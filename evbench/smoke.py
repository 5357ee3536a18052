"""Smoke test of the benchmark at tiny sizes.  Run from the root of a
checkout (it takes about three minutes):

    python3 evbench/smoke.py

It records references for two placebo replications, then checks that
every workload emits every metric named in BENCHMARK.json with its unit,
with tracing off and on; that a run whose reference digest was altered is
counted as failed; and that the benchmark refuses to run without the
program's source.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import harness
import workloads

TINY = "2"


def bench(*args: str, cwd=harness.ROOT) -> tuple[int, list[str]]:
    script = os.path.join(harness.HERE.name, "run.py")
    done = subprocess.run([sys.executable, script, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    return done.returncode, done.stdout.strip().splitlines()


def result_of(lines: list[str]) -> dict:
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["attempted"] >= 1
    return result


def check_metrics(result: dict, declared: list[dict]) -> None:
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in declared}, emitted
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name


def main() -> int:
    harness.check_checkout()
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    work = harness.WORK / f"smoke-{os.getpid()}"
    work.mkdir(parents=True)
    refs = work / "references.json"
    try:
        subprocess.run([sys.executable, str(harness.HERE / "record.py"), "--input", "0",
                        "--replications", TINY, "--out", str(refs)], check=True, timeout=600)
        for name in workloads.WORKLOADS:
            for trace, declared in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
                code, lines = bench("--workload", name, "--seed", "0", "--seconds", "1",
                                    "--trace", trace, "--replications", TINY,
                                    "--references", str(refs))
                assert code == 0, (name, trace, lines)
                result = result_of(lines)
                assert result["correct"] and result["failed"] == 0, (name, trace, result)
                check_metrics(result, declared)
                detail = json.loads(lines[-2])
                for key in ("nproc", "python", "numpy", "scipy", "openblas", "blas_threads"):
                    assert key in detail["environment"], detail
                print(f"ok: {name} --trace {trace}", flush=True)

        altered = json.loads(refs.read_text(encoding="utf-8"))
        files = altered["hac_coverage"]["0"]["files"]
        files["coverage.json"] = "0" * 64
        refs.write_text(json.dumps(altered), encoding="utf-8")
        code, lines = bench("--workload", "hac_coverage", "--seed", "0", "--seconds", "1",
                            "--trace", "0", "--replications", TINY, "--references", str(refs))
        result = result_of(lines)
        assert code == 0 and not result["correct"], result
        assert result["failed"] >= 1, result
        print("ok: an altered reference digest counts as a failed run", flush=True)

        bare = work / "bare"
        shutil.copytree(harness.HERE, bare / harness.HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(harness.ROOT / "BENCHMARK.json", bare)
        code, lines = bench("--workload", "hac_coverage", "--seed", "0",
                            "--seconds", "1", "--trace", "0", cwd=bare)
        assert code != 0 and not lines, (code, lines)
        print("ok: without the program's source the benchmark fails", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
