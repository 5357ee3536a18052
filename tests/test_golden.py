"""Golden outputs: `run` for each statistic and `permute` on the same
configs must write files whose SHA-256 digests match the committed fixture.

The CLI runs in a subprocess with one BLAS/OpenMP thread, so the digests do
not depend on the core count of the machine.  The fixture
`data/golden_sha256.json` maps "<command>_<statistic>/<file>" to a digest.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import yaml

FIXTURE = Path(__file__).parent / "data" / "golden_sha256.json"
SRC = Path(__file__).resolve().parents[1] / "src"
STATISTICS = ("ols", "lad", "median")
REPLICATIONS = 4


def cli(*args: str) -> None:
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-c", "from eventyield.cli import main; main()", *args]
    done = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


def golden_digests(root: Path) -> dict[str, str]:
    data = root / "data"
    cli("synth", "--output", str(data), "--length", "400", "--events-per-group", "4")
    digests = {}
    for statistic in STATISTICS:
        for command in ("run", "permute"):
            case = root / f"{command}_{statistic}"
            case.mkdir()
            doc = {
                "assets": [{"path": str(data / "synth_prices.csv"), "label": "synth"}],
                "events": str(data / "synth_events.csv"),
                "output_dir": "out",
                "window": 15,
                "hac_lags": 10,
                "estimator": statistic,
                "permutation": {
                    "replications": REPLICATIONS,
                    "seed": 0,
                    "statistic": statistic,
                },
            }
            cfg = case / "study.yaml"
            cfg.write_text(yaml.safe_dump(doc), encoding="utf-8")
            args = ["--config", str(cfg)]
            if command == "permute":
                args += ["--statistic", statistic, "--replications", str(REPLICATIONS), "--seed", "0"]
            cli(command, *args)
            for f in sorted((case / "out").iterdir()):
                digests[f"{case.name}/{f.name}"] = hashlib.sha256(f.read_bytes()).hexdigest()
    return digests


def test_outputs_match_golden_digests(tmp_path):
    expected = json.loads(FIXTURE.read_text(encoding="utf-8"))
    assert golden_digests(tmp_path) == expected
