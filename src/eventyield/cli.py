"""Command-line interface: run full studies, placebo permutations, render
tables, generate synthetic data, and validate configs."""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import click

from . import report
from .errors import ConfigError, EventYieldError
from .events import Event, EventSet, Openness, split_by_openness
from .ingest import write_event_csv, write_fred_csv
from .permutation import ESTIMATORS
from .report import PermutationConfig, StudyConfig, load_config, run_study
from .synth import SynthSpec, generate_walk, inject_effects


def _parse_years(text: str | None) -> tuple[int, int] | None:
    if not text:
        return None
    try:
        a, b = text.split("..")
        return int(a), int(b)
    except ValueError:
        raise click.BadParameter("expected <first>..<last>, e.g. 2023..2024")


def _apply_overrides(
    cfg: StudyConfig, seed=None, replications=None, statistic=None, **kw
) -> StudyConfig:
    """Replace the config values given on the command line.  A replication
    count switches placebo bands on; a seed or a statistic alone only changes
    the config's existing ``permutation`` section, and is an error without
    one."""
    updates = {k: v for k, v in kw.items() if v is not None}
    perm = {
        k: v
        for k, v in (("seed", seed), ("replications", replications), ("statistic", statistic))
        if v is not None
    }
    if perm:
        if cfg.permutation is None and replications is None:
            raise ConfigError(
                "no permutation section to re-seed: add one to the config or pass --replications"
            )
        updates["permutation"] = replace(cfg.permutation or PermutationConfig(), **perm)
    return replace(cfg, **updates)


class _Main(click.Group):
    """The command group, and the one place where a fault in the input or
    on the output path becomes a one-line ``Error:`` instead of a traceback."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except EventYieldError as exc:
            raise click.ClickException(str(exc)) from None
        except BrokenPipeError:
            raise  # click's own handling: a closed stdout is not an error
        except OSError as exc:
            where = f"{exc.filename}: " if exc.filename else ""
            raise click.ClickException(f"{where}{exc.strerror or exc}") from None


@click.group(cls=_Main)
def main():
    """Event studies around dated releases: fixed-effect regressions with
    HAC inference, median/LAD estimators, and permutation placebo bands."""


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--seed", type=int, default=None, help="Re-seeds the config's permutation section.")
@click.option("--window", type=int, default=None)
@click.option("--hac-lags", type=int, default=None)
@click.option("--replications", type=int, default=None)
@click.option("--years", default=None, help="Restrict events, e.g. 2023..2024.")
@click.option("--estimator", type=click.Choice(ESTIMATORS), default=None)
def run(config_path, seed, window, hac_lags, replications, years, estimator):
    """Run the full study described by the config file."""
    cfg = _apply_overrides(
        load_config(config_path),
        seed=seed,
        window=window,
        hac_lags=hac_lags,
        replications=replications,
        years=_parse_years(years),
        estimator=estimator,
    )
    for p in run_study(cfg):
        click.echo(p)


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--seed", type=int, default=None, help="Overrides permutation.seed.")
@click.option("--replications", type=int, default=None, help="Overrides permutation.replications.")
@click.option("--statistic", type=click.Choice(ESTIMATORS), default=None,
              help="Overrides permutation.statistic.")
@click.option("--years", default=None)
def permute(config_path, seed, replications, statistic, years):
    """Compute placebo permutation bands only, with the config's permutation
    settings (defaults: 5000 OLS replications, seed 0) and any overrides."""
    cfg = load_config(config_path)
    cfg = _apply_overrides(
        replace(cfg, permutation=cfg.permutation or PermutationConfig()),
        seed=seed,
        replications=replications,
        statistic=statistic,
        years=_parse_years(years),
    )
    for p in report.run_permutation(cfg):
        click.echo(p)


@main.command()
@click.option("--output", type=click.Path(), required=True, help="Output directory.")
@click.option("--length", type=int, default=800)
@click.option("--sigma-bp", type=float, default=5.0, help="Daily volatility in bp.")
@click.option("--drift-bp", type=float, default=0.0, help="Daily drift in bp.")
@click.option("--seed", type=int, default=0)
@click.option("--events-per-group", type=int, default=10)
@click.option("--effect-bp", type=float, default=10.0, help="Day-0 effect: +x for group A, -x for B.")
@click.option("--window", type=int, default=15)
def synth(output, length, sigma_bp, drift_bp, seed, events_per_group, effect_bp, window):
    """Generate an oracle dataset: a random-walk price file and an event
    table with known injected effects, in the shapes `run` ingests."""
    spec = SynthSpec(
        length=length, sigma=sigma_bp / 100.0, drift=drift_bp / 100.0, seed=seed,
        asset_id="SYNTH",
    )
    if window < 1:
        raise ConfigError("--window must be >= 1")
    if events_per_group < 1:
        raise ConfigError("--events-per-group must be >= 1")
    usable = length - 2 * (window + 1)
    total = 2 * events_per_group
    if total > usable:
        raise ConfigError(
            f"2 x --events-per-group {events_per_group} windows of +-{window} days "
            f"(--window) do not fit in --length {length}"
        )
    series = generate_walk(spec)
    cal = series.calendar
    step = max(1, usable // (total + 1))
    dates = [cal.dates[window + 1 + (i + 1) * step] for i in range(total)]
    evs = []
    for i, d in enumerate(dates):
        openness = Openness.OPEN if i % 2 == 0 else Openness.CLOSED
        evs.append(Event(date=d, name=f"synthetic-{i}", openness=openness))
    events = EventSet(tuple(evs))
    groups = split_by_openness(events)
    series = inject_effects(
        series,
        groups,
        {"Open": {0: effect_bp / 100.0}, "Closed": {0: -effect_bp / 100.0}},
    )
    out = Path(output)
    out.mkdir(parents=True, exist_ok=True)
    (out / "synth_prices.csv").write_text(write_fred_csv(series), encoding="utf-8", newline="\n")
    (out / "synth_events.csv").write_text(write_event_csv(events), encoding="utf-8", newline="\n")
    click.echo(out / "synth_prices.csv")
    click.echo(out / "synth_events.csv")


@main.command()
@click.argument("path_csvs", nargs=-1, required=True, type=click.Path(exists=True))
@click.option("--out", type=click.Path(), default=None, help="Write here instead of stdout.")
def table(path_csvs, out):
    """Render a significance table from emitted path CSVs."""
    columns = [report.read_path_csv(p) for p in path_csvs]
    text = report.render_table(columns, scale=1.0)  # CSVs are already in bp
    if out:
        Path(out).write_text(text, encoding="utf-8", newline="\n")
        click.echo(out)
    else:
        click.echo(text, nl=False)


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
def validate(config_path):
    """Parse the config and every referenced file, and check each asset as
    `run` does: event windows and HAC lags; report problems."""
    cfg = load_config(config_path)
    events, groups = report.load_events(cfg)
    for asset in cfg.assets:
        report.position_asset(cfg, groups, asset)
    click.echo(f"OK: {len(events)} events, {len(cfg.assets)} asset(s)")


if __name__ == "__main__":
    main()
