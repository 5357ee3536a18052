"""Golden outputs: `run` for each statistic and `permute` on the same
configs must write files whose SHA-256 digests match the committed fixture.

Three event layouts are covered, each for every statistic: the synth
events split by openness (with `run` and `permute`), the same events
pooled into one group, and the synth events plus a weekend pair, a
Saturday open release and a Sunday closed release that both align onto
the Friday before.  Two more `run` cases read two calendars: a median
study with OLS placebo bands, and an OLS study with median placebo bands.

The CLI runs in a subprocess with one BLAS/OpenMP thread, so the digests do
not depend on the core count of the machine.  The fixture
`data/golden_sha256.json` maps "<case>/<file>" to a digest, where a case is
"<command>_<statistic>", "pooled_run_<statistic>",
"weekend_run_<statistic>" or "mixed_run_<estimator>_<statistic>".
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
# (estimator, placebo statistic) pairs whose study and bands read different calendars
MIXED = (("median", "ols"), ("ols", "median"))
REPLICATIONS = 4
# a Saturday and a Sunday release; both align onto Friday 2022-04-22, which
# lies inside the windows of two synth events
WEEKEND_ROWS = ("2022-04-23,weekend-open,x", "2022-04-24,weekend-closed,")


def cli(*args: str) -> None:
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-c", "from eventyield.cli import main; main()", *args]
    done = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


def weekend_events(data: Path) -> Path:
    """The synth event table with the two weekend releases appended."""
    lines = (data / "synth_events.csv").read_text(encoding="utf-8").splitlines()
    width = lines[0].count(",")
    rows = [row + "," * (width - row.count(",")) for row in WEEKEND_ROWS]
    out = data / "weekend_events.csv"
    out.write_text("\n".join(lines + rows) + "\n", encoding="utf-8")
    return out


def run_case(case: Path, statistic: str, events: Path, prices: Path, command: str, **extra):
    case.mkdir()
    doc = {
        "assets": [{"path": str(prices), "label": "synth"}],
        "events": str(events),
        "output_dir": "out",
        "window": 15,
        "hac_lags": 10,
        "estimator": statistic,
        "permutation": {
            "replications": REPLICATIONS,
            "seed": 0,
            "statistic": statistic,
        },
        **extra,
    }
    cfg = case / "study.yaml"
    cfg.write_text(yaml.safe_dump(doc), encoding="utf-8")
    args = ["--config", str(cfg)]
    if command == "permute":
        args += ["--statistic", statistic, "--replications", str(REPLICATIONS), "--seed", "0"]
    cli(command, *args)
    return {
        f"{case.name}/{f.name}": hashlib.sha256(f.read_bytes()).hexdigest()
        for f in sorted((case / "out").iterdir())
    }


def golden_digests(root: Path) -> dict[str, str]:
    data = root / "data"
    cli("synth", "--output", str(data), "--length", "400", "--events-per-group", "4")
    prices, events = data / "synth_prices.csv", data / "synth_events.csv"
    weekend = weekend_events(data)
    digests = {}
    for statistic in STATISTICS:
        for command in ("run", "permute"):
            digests.update(
                run_case(root / f"{command}_{statistic}", statistic, events, prices, command)
            )
        digests.update(
            run_case(root / f"pooled_run_{statistic}", statistic, events, prices, "run",
                     split="pooled")
        )
        digests.update(
            run_case(root / f"weekend_run_{statistic}", statistic, weekend, prices, "run")
        )
    for estimator, statistic in MIXED:
        digests.update(
            run_case(root / f"mixed_run_{estimator}_{statistic}", statistic, events, prices,
                     "run", estimator=estimator)
        )
    return digests


def test_outputs_match_golden_digests(tmp_path):
    expected = json.loads(FIXTURE.read_text(encoding="utf-8"))
    assert golden_digests(tmp_path) == expected
