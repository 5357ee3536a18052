"""Unit of work of the `hac_coverage` workload, run in a fresh process.

    python3 hac_unit.py setup SERIES.csv
        import eventyield and parse the series file (the set-up cost)
    python3 hac_unit.py run SERIES.csv OUT_DIR REPLICATIONS SEED
        coverage_assessment (K=30, W=15, HAC lag 30, OLS path) written to
        OUT_DIR/coverage.json

The calls go through module attributes so that the traced run can wrap them.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

GROUP_SIZE = 30
WINDOW = 15
HAC_LAGS = 30


def setup(series_path: str) -> str:
    from eventyield import ingest

    series = ingest.parse_fred_csv(Path(series_path).read_text(encoding="utf-8"))
    return f"OK: {len(series)} rows\n"


def run(series_path: str, out_dir: str, replications: int, seed: int) -> list[Path]:
    from eventyield import ingest, permutation

    series = ingest.parse_fred_csv(Path(series_path).read_text(encoding="utf-8"))
    spec = permutation.PermutationSpec(
        replications=replications,
        statistic=permutation.Statistic.OLS_PATH,
        window=WINDOW,
        seed=seed,
        hac_lags=HAC_LAGS,
    )
    coverage = permutation.coverage_assessment(series, spec, group_size=GROUP_SIZE)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "coverage.json"
    path.write_text(json.dumps(coverage, sort_keys=True) + "\n", encoding="utf-8")
    return [path]


def main(argv: list[str]) -> None:
    if argv[:1] == ["setup"] and len(argv) == 2:
        sys.stdout.write(setup(argv[1]))
    elif argv[:1] == ["run"] and len(argv) == 5:
        run(argv[1], argv[2], int(argv[3]), int(argv[4]))
    else:
        sys.exit(__doc__)


if __name__ == "__main__":
    main(sys.argv[1:])
