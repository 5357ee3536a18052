"""Shared pieces of the benchmark: the program's environment, fresh-process
runs with their wall time and peak memory, and output digests."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path.cwd().resolve()  # the checkout; the benchmark runs from its root
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"
WORK = ROOT / ".evbench_work"


def check_checkout() -> None:
    """Refuse to run anywhere but the root of a checkout with the program's
    source, and make that source importable here."""
    if not (SRC / "eventyield" / "__init__.py").is_file():
        sys.exit(f"evbench: no program source at {SRC / 'eventyield'}; run from the repository root")
    sys.path.insert(0, str(SRC))


def program_env(blas_threads: int | None = None) -> dict[str, str]:
    """The environment users get: inherited thread-count settings removed,
    so BLAS runs at its default, and the checkout's source on the path.
    ``blas_threads`` pins the BLAS pool instead."""
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    env["PYTHONPATH"] = str(SRC)
    if blas_threads is not None:
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = str(blas_threads)
    return env


@dataclass(frozen=True)
class ChildRun:
    wall_s: float
    peak_rss_mb: float
    ok: bool  # exited 0 within its time limit
    stdout: str


def run_child(argv: list[str], env: dict[str, str], log: Path, timeout_s: float) -> ChildRun:
    """Run ``argv`` in a fresh process and wait for it; a process still
    running after ``timeout_s`` is killed and counts as not ok."""
    out_path = log.with_suffix(".out")
    with open(out_path, "wb") as out, open(log.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=out, stderr=err, stdin=subprocess.DEVNULL)
        killer = threading.Timer(max(timeout_s, 0.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(
        wall_s=wall,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        ok=proc.returncode == 0,
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
    )


def digests(out_dir: Path) -> dict[str, str]:
    """SHA-256 of every file the unit of work wrote, by file name."""
    if not out_dir.is_dir():
        return {}
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.iterdir())
        if p.is_file()
    }


def load_references(path: Path = REFERENCES) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def mismatches(reference: dict | None, out_dir: Path) -> list[str]:
    """Output files whose bytes differ from the reference's, or that only
    one of the two has (for coverage, also a dict unlike the reference's);
    empty when the outputs are exactly the reference."""
    if reference is None:
        return ["(no reference for this input)"]
    got, want = digests(out_dir), reference["files"]
    bad = sorted(f for f in got.keys() | want.keys() if got.get(f) != want.get(f))
    if not bad and "coverage" in reference:
        text = (out_dir / "coverage.json").read_text(encoding="utf-8")
        if json.loads(text) != reference["coverage"]:
            bad = ["coverage.json"]
    return bad


_ENV_PROBE = r"""
import ctypes, glob, json, os, platform
from importlib.metadata import version
import numpy
info = {"nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": version("scipy"),
        "openblas": None, "blas_threads": None}
libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))
for path in libs:
    lib = ctypes.CDLL(path)
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            get_threads = getattr(lib, prefix + "_get_num_threads" + suffix, None)
            get_config = getattr(lib, prefix + "_get_config" + suffix, None)
            if get_threads is not None and info["blas_threads"] is None:
                get_threads.restype = ctypes.c_int
                info["blas_threads"] = get_threads()
            if get_config is not None and info["openblas"] is None:
                get_config.restype = ctypes.c_char_p
                info["openblas"] = get_config().decode()
print(json.dumps(info))
"""


def environment(env: dict[str, str]) -> dict:
    """nproc, Python/numpy/scipy/OpenBLAS versions and the BLAS thread count
    in effect, as a process with ``env`` sees them."""
    done = subprocess.run([sys.executable, "-c", _ENV_PROBE], env=env, capture_output=True,
                          text=True, timeout=60)
    if done.returncode != 0:
        return {"nproc": os.cpu_count(), "probe_error": done.stderr.strip()[-200:]}
    return json.loads(done.stdout)
