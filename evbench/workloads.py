"""The four benchmark workloads and their seeded input generator.

Each workload is one unit of work run in a fresh process: an `eventyield`
command line, or for `hac_coverage` the library call `coverage_assessment`
driven by `hac_unit.py`.  Inputs are generated here with `eventyield.synth`
from a seed; the program under test only ever sees the generated files.

A seed selects one of `N_INPUTS` recorded input sets (`seed % N_INPUTS`), so
every run can be checked byte for byte against the references recorded in
`references.json`.
"""

from __future__ import annotations

import contextlib
import io
import sys
from dataclasses import dataclass
from datetime import date
from pathlib import Path

N_INPUTS = 16
WINDOW = 15
HAC_LAGS = 30
HERE = Path(__file__).resolve().parent

# How each kind of unit of work is started: the `eventyield` command line,
# as its console script runs it, or the `hac_coverage` unit script.
PROGRAMS = {
    "cli": [sys.executable, "-c", "import sys; from eventyield.cli import main; sys.exit(main())"],
    "hac": [sys.executable, str(HERE / "hac_unit.py")],
}


@dataclass(frozen=True)
class Workload:
    """One workload; BENCHMARK.json and README.md record why it was chosen."""

    name: str
    replications: int  # placebo replications per panel
    panels: int  # placebo panels per unit of work, over all assets


WORKLOADS = {
    w.name: w
    for w in (
        Workload("ols_bands", replications=250, panels=3),
        Workload("lad_bands", replications=20, panels=3),
        Workload("median_panel", replications=600, panels=15),  # five assets
        Workload("hac_coverage", replications=120, panels=1),
    )
}


@dataclass(frozen=True)
class Inputs:
    """What one generated input set asks of the program."""

    program: str  # a key of PROGRAMS
    unit_args: list[str]  # one unit of work
    setup_args: list[str]  # import plus parsing every input file
    setup_stdout: str  # what a correct set-up run prints
    out_dir: Path  # where the unit of work writes its outputs
    replications: int  # placebo replications per unit, over all panels

    @property
    def unit_argv(self) -> list[str]:
        return PROGRAMS[self.program] + self.unit_args

    @property
    def setup_argv(self) -> list[str]:
        return PROGRAMS[self.program] + self.setup_args


def input_index(seed: int) -> int:
    return seed % N_INPUTS


def _event_dates(cal, total: int) -> list[date]:
    """``total`` evenly spaced dates whose windows stay inside ``cal``, laid
    out as the `synth` command lays them out."""
    usable = len(cal) - 2 * (WINDOW + 1)
    step = max(1, usable // (total + 1))
    return [cal.dates[WINDOW + 1 + (i + 1) * step] for i in range(total)]


def _write_config(path: Path, assets: list[tuple[str, str]], events: str, estimator: str,
                  replications: int, seed: int) -> None:
    lines = ["assets:"]
    for file, label in assets:
        lines += [f"  - path: {file}", "    kind: fred", f"    label: {label}"]
    lines += [
        f"events: {events}",
        "output_dir: out",
        "split: openness",
        f"window: {WINDOW}",
        f"hac_lags: {HAC_LAGS}",
        f"estimator: {estimator}",
        "permutation:",
        f"  replications: {replications}",
        f"  seed: {seed}",
        f"  statistic: {estimator}",
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _bands_inputs(dest: Path, index: int, estimator: str, replications: int) -> None:
    """One synthetic asset (n=800, 10+10 events) from the `synth` command."""
    from eventyield.cli import main

    with contextlib.redirect_stdout(io.StringIO()):
        main(["synth", "--output", str(dest), "--seed", str(index)], standalone_mode=False)
    _write_config(dest / "study.yaml", [("synth_prices.csv", "SYNTH")], "synth_events.csv",
                  estimator, replications, index)


def _panel_inputs(dest: Path, index: int, replications: int) -> None:
    """Five assets over 800 days with 24+24 events, so windows overlap."""
    from eventyield import (Event, EventSet, Openness, SynthSpec, generate_walk, inject_effects,
                            split_by_openness, weekday_calendar, write_event_csv, write_fred_csv)

    dest.mkdir(parents=True, exist_ok=True)
    labels = ["DGS1", "DGS5", "DGS10", "DGS20", "DGS30"]
    cal = weekday_calendar(SynthSpec.start_date, 800)
    events = EventSet(tuple(
        Event(date=d, name=f"release-{i}", openness=Openness.OPEN if i % 2 == 0 else Openness.CLOSED)
        for i, d in enumerate(_event_dates(cal, 48))
    ))
    groups = split_by_openness(events)
    for j, label in enumerate(labels):
        spec = SynthSpec(length=800, sigma=0.05, seed=index * len(labels) + j, asset_id=label)
        effect = 0.02 * (j + 1)
        series = inject_effects(generate_walk(spec), groups,
                                {"Open": {0: effect}, "Closed": {0: -effect}})
        (dest / f"{label}.csv").write_text(write_fred_csv(series), encoding="utf-8")
    (dest / "releases.csv").write_text(write_event_csv(events), encoding="utf-8")
    _write_config(dest / "study.yaml", [(f"{label}.csv", label) for label in labels],
                  "releases.csv", "median", replications, index)


def _hac_inputs(dest: Path, index: int) -> None:
    """One FRED-shaped random walk of 4000 business days."""
    from eventyield import SynthSpec, generate_walk, write_fred_csv

    dest.mkdir(parents=True, exist_ok=True)
    series = generate_walk(SynthSpec(length=4000, sigma=0.05, seed=index, asset_id="SYNTH"))
    (dest / "series.csv").write_text(write_fred_csv(series), encoding="utf-8")


def generate(name: str, seed: int, dest: Path, replications: int | None = None) -> Inputs:
    """Write the inputs of workload ``name`` for ``seed`` under ``dest``.

    ``replications`` overrides the workload's placebo count (the smoke test
    uses tiny counts)."""
    w = WORKLOADS[name]
    b = replications or w.replications
    index = input_index(seed)
    dest = dest.resolve()
    if name == "hac_coverage":
        _hac_inputs(dest, index)
        series = str(dest / "series.csv")
        return Inputs(
            program="hac",
            unit_args=["run", series, str(dest / "out"), str(b), str(index)],
            setup_args=["setup", series],
            setup_stdout="OK: 4000 rows\n",
            out_dir=dest / "out",
            replications=b,
        )
    if name == "median_panel":
        _panel_inputs(dest, index, b)
        setup_stdout = "OK: 48 events, 5 asset(s)\n"
    else:
        _bands_inputs(dest, index, "ols" if name == "ols_bands" else "lad", b)
        setup_stdout = "OK: 20 events, 1 asset(s)\n"
    config = str(dest / "study.yaml")
    return Inputs(
        program="cli",
        unit_args=["run", "--config", config],
        setup_args=["validate", "--config", config],
        setup_stdout=setup_stdout,
        out_dir=dest / "out",
        replications=b * w.panels,
    )
