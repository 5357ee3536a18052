"""Study configuration, orchestration, and rendering: regression tables in
basis points with significance stars, path CSVs for figures, and placebo
band CSVs.

Outputs are byte-identical across repeated runs with the same config and
seed: UTF-8, LF line endings, fixed float formatting.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path

import numpy as np
import yaml

from .design import aligned_positions
from .errors import ConfigError, EventYieldError, IngestError
from .estimators import CumulativePath, _two_sided_p
from .events import (
    EventSet,
    GroupAssignment,
    labelled_groups,
    split_by_country,
    split_by_median,
    split_by_openness,
    split_by_sign,
)
from .ingest import (
    format_number,
    parse_event_table,
    parse_forecast_series,
    parse_fred_csv,
    parse_number,
    parse_ohlc_csv,
    read_table,
    write_table,
)
from .permutation import (
    ESTIMATORS,
    MAX_REPLICATIONS,
    PermutationResult,
    PermutationSpec,
    Statistic,
    comparison_at,
    group_level_at,
    paths_at,
    statistic_data,
)
from .series import PriceSeries, Transform

PATH_COLUMNS = ("relative_day", "estimate_bp", "se", "ci90_lo", "ci90_hi", "ci95_lo", "ci95_hi")
PLACEBO_COLUMNS = (
    "relative_day", "observed", "placebo_mean", "band90_lo", "band90_hi", "band95_lo", "band95_hi"
)


@dataclass(frozen=True)
class AssetConfig:
    path: str
    label: str
    kind: str = "fred"  # fred | ohlc | forecast


def _check_estimator(key: str, name: str) -> None:
    if name not in ESTIMATORS:
        expected = ", ".join(ESTIMATORS)
        raise ConfigError(f"{key}: unknown estimator {name!r}; expected one of {expected}")


@dataclass(frozen=True)
class PermutationConfig:
    replications: int = 5000
    seed: int = 0
    statistic: str = "ols"

    def __post_init__(self):
        if self.replications < 1:
            raise ConfigError("permutation.replications must be >= 1")
        if self.replications > MAX_REPLICATIONS:
            raise ConfigError(f"permutation.replications must be <= {MAX_REPLICATIONS}")
        if self.seed < 0:
            raise ConfigError("permutation.seed must be >= 0")
        if self.seed >= 2**64:
            raise ConfigError("permutation.seed must be < 2**64")
        _check_estimator("permutation.statistic", self.statistic)


_SEPARATORS = {"/", os.sep, os.altsep} - {None}


@dataclass(frozen=True)
class StudyConfig:
    assets: tuple[AssetConfig, ...]
    events_path: str
    output_dir: str
    split: str = "openness"
    window: int = 15
    hac_lags: int = 30
    estimator: str = "ols"
    years: tuple[int, int] | None = None
    permutation: PermutationConfig | None = None

    def __post_init__(self):
        if self.window < 1:
            raise ConfigError("window must be >= 1")
        if self.hac_lags < 0:
            raise ConfigError("hac_lags must be >= 0")
        _check_estimator("estimator", self.estimator)
        if self.years is not None and self.years[0] > self.years[1]:
            first, last = self.years
            raise ConfigError(f"years: first year {first} is after last year {last}")
        labels = set()
        for asset in self.assets:
            if asset.kind not in ("fred", "ohlc", "forecast"):
                raise ConfigError(f"unknown asset kind {asset.kind!r}")
            # a label names the asset's output files, which must not clash or nest
            label = asset.label
            if not label or any(sep in label for sep in _SEPARATORS):
                raise ConfigError(
                    f"assets: label {label!r} must be non-empty and hold no path separator"
                )
            if label in labels:
                raise ConfigError(f"assets: label {label!r} is used by more than one asset")
            labels.add(label)


# Each config mapping's keys and the type of each value; a label may be a number.
_STUDY_KEYS = {
    "assets": list, "events": str, "output_dir": str, "split": str, "window": int,
    "hac_lags": int, "estimator": str, "years": list, "permutation": dict,
}
_PERMUTATION_KEYS = {"replications": int, "seed": int, "statistic": str}
_ASSET_KEYS = {"path": str, "kind": str, "label": (str, int, float)}
_TYPE_NAMES = {
    int: "an integer", str: "a string", list: "a list", dict: "a mapping",
    (str, int, float): "a string or a number",
}


def _is(value, expected) -> bool:
    # bool is an int subclass, but `window: true` is not a window
    return isinstance(value, expected) and not isinstance(value, bool)


def _read(mapping: dict, keys: dict, what: str, where: str = "") -> dict:
    """The entries of ``mapping`` whose value is not null, each checked
    against ``keys``: an unknown key, or a value of another type than its
    key's, is a ConfigError naming the key (prefixed by ``where``).  A null
    value is left out, so the key takes its default."""
    read = {}
    for key, value in mapping.items():
        if key not in keys:
            raise ConfigError(f"unknown {what} key {key!r}; expected one of {', '.join(keys)}")
        if value is None:
            continue
        if not _is(value, keys[key]):
            raise ConfigError(f"{where}{key}: expected {_TYPE_NAMES[keys[key]]}, got {value!r}")
        read[key] = value
    return read


def _read_file(path: str | Path, parse):
    """``parse`` applied to the UTF-8 text of the file at ``path``, less a
    leading byte-order mark.  A file that cannot be read, is not UTF-8, or
    that ``parse`` rejects is a one-line ConfigError naming the file."""
    try:
        # strip the mark after decoding, so error offsets count from the file's start
        return parse(Path(path).read_text(encoding="utf-8").removeprefix("\ufeff"))
    except OSError as exc:
        problem = exc.strerror or str(exc)
    except UnicodeDecodeError as exc:
        problem = f"not UTF-8 text (byte 0x{exc.object[exc.start]:02x} at offset {exc.start})"
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f"line {mark.line + 1}: " if mark else ""
        problem = getattr(exc, "problem", None) or str(exc).splitlines()[0]
        problem = f"invalid YAML: {where}{problem}"
    except EventYieldError as exc:
        problem = str(exc)
    raise ConfigError(f"{path}: {problem}")


def load_config(path: str | Path) -> StudyConfig:
    """Read the YAML study document; see README for the schema.  A missing
    or unknown key, a value of the wrong type, or an empty asset list is a
    ConfigError naming the key.  Only the keys given are passed on, so every
    other one takes its dataclass default."""
    doc = _read_file(path, yaml.safe_load)
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: config must be a mapping")
    study = _read(doc, _STUDY_KEYS, "config")
    if "events" not in study:
        raise ConfigError("missing config key 'events'")
    base = Path(path).parent
    entries = study.pop("assets", [])
    assets = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ConfigError(f"assets: expected a list of mappings, got {entries!r}")
        asset = _read(entry, _ASSET_KEYS, "asset", f"assets[{i}].")
        if "path" not in asset:
            raise ConfigError(f"assets[{i}]: missing key 'path'")
        asset["label"] = str(asset.get("label", Path(asset["path"]).stem))
        asset["path"] = str(base / asset["path"])
        assets.append(AssetConfig(**asset))
    study["events_path"] = str(base / study.pop("events"))
    study["output_dir"] = str(base / study.get("output_dir", "out"))
    years = study.get("years")
    if years is not None:
        if len(years) != 2 or not all(_is(year, int) for year in years):
            raise ConfigError(f"years: expected [first, last], got {years!r}")
        study["years"] = tuple(years)
    if "permutation" in study:
        perm = _read(study["permutation"], _PERMUTATION_KEYS, "permutation", "permutation.")
        study["permutation"] = PermutationConfig(**perm)
    cfg = StudyConfig(assets=tuple(assets), **study)
    for p in [cfg.events_path] + [a.path for a in cfg.assets]:
        if not os.path.exists(p):
            raise ConfigError(f"file not found: {p}")
    if not cfg.assets:
        raise ConfigError("assets: expected at least one asset")
    return cfg


def load_asset(asset: AssetConfig) -> PriceSeries:
    if asset.kind == "ohlc":
        return _read_file(asset.path, lambda text: parse_ohlc_csv(text, asset_id=asset.label))
    if asset.kind == "forecast":
        return _read_file(asset.path, parse_forecast_series)
    return _read_file(asset.path, parse_fred_csv)


def load_events(config: StudyConfig) -> tuple[EventSet, GroupAssignment | EventSet]:
    """The study's events, restricted to ``config.years``, and their split
    by ``config.split``; a split that leaves a group empty is an error."""
    events = _read_file(config.events_path, parse_event_table)
    if config.years:
        events = events.filter_years(*config.years)
    if len(events) == 0:
        raise ConfigError("no events")
    groups = resolve_split(events, config.split)
    for label, group in labelled_groups(groups):
        if len(group) == 0:
            raise ConfigError(f"split {config.split!r} leaves group {label!r} with no events")
    return events, groups


def resolve_split(events: EventSet, rule: str) -> GroupAssignment | EventSet:
    """Split rules: pooled | openness | median:<attr> | sign:<attr> |
    country:<pivot> | interaction:<open|closed>:<attr>."""
    if rule == "pooled":
        return events
    if rule == "openness":
        return split_by_openness(events)
    head, _, rest = rule.partition(":")
    if head == "median" and rest:
        return split_by_median(events, rest)
    if head == "sign" and rest:
        return split_by_sign(events, rest)
    if head == "country" and rest:
        return split_by_country(events, rest)
    if head == "interaction" and rest:
        side, _, attr = rest.partition(":")
        if side not in ("open", "closed") or not attr:
            raise ConfigError(f"bad interaction rule {rule!r}")
        by_open = split_by_openness(events)
        subset = by_open.group_a if side == "open" else by_open.group_b
        return split_by_sign(subset, attr)
    raise ConfigError(f"unknown split rule {rule!r}")


# --- rendering -------------------------------------------------------------


def _round_half_away(x: float, places: int) -> Decimal:
    q = Decimal(1).scaleb(-places)
    return Decimal(repr(float(x))).quantize(q, rounding=ROUND_HALF_UP)


def format_cell(estimate_bp: float, p: float) -> str:
    """'30.4 (<0.01)***' style cell: basis points to one decimal (ties away
    from zero), p to two decimals with '<0.01' below 0.005, strict-inequality
    stars at 0.10/0.05/0.01."""
    bp = _round_half_away(estimate_bp, 1)
    if p < 0.005:
        p_str = "<0.01"
    else:
        p_str = f"{_round_half_away(p, 2):.2f}"
    if p < 0.01:
        stars = "***"
    elif p < 0.05:
        stars = "**"
    elif p < 0.10:
        stars = "*"
    else:
        stars = ""
    return f"{bp:.1f} ({p_str}){stars}"


def _day_span(days: np.ndarray) -> str:
    return f"{days[0]}..{days[-1]} ({len(days)} days)" if len(days) else "no days"


def render_table(
    columns: list[CumulativePath],
    constant: tuple[float, float] | None = None,
    scale: float = 100.0,
) -> str:
    """Text table of cumulative paths: one row per relative day plus an
    optional constant row.  ``scale`` converts estimates to basis points
    (100 for percent-point inputs).  ``constant`` is (estimate, p-value) in
    the unscaled units."""
    if not columns:
        raise ConfigError("no columns to render")
    days = columns[0].rel_days
    if any(not np.array_equal(c.rel_days, days) for c in columns[1:]):
        spans = ", ".join(f"{c.label!r} covers {_day_span(c.rel_days)}" for c in columns)
        raise ConfigError(f"columns cover different relative days: {spans}")
    header = ["Day"] + [c.label for c in columns]
    rows = [header]
    for i, r in enumerate(days):
        cells = [str(int(r))]
        for c in columns:
            p = float(c.pvalues[i]) if c.pvalues is not None else float("nan")
            if np.isnan(p):
                bp = _round_half_away(float(c.estimates[i]) * scale, 1)
                cells.append(f"{bp:.1f}")
            else:
                cells.append(format_cell(float(c.estimates[i]) * scale, p))
        rows.append(cells)
    if constant is not None:
        mu, p = constant
        rows.append(["Constant", format_cell(mu * scale, p)] + [""] * (len(columns) - 1))
    widths = [max(len(row[j]) for row in rows) for j in range(len(header))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]
    return "\n".join(lines) + "\n"


# --- CSV emission ----------------------------------------------------------


def _emit(out_file: str | Path, header, rel_days, columns, scale: float) -> Path:
    """One row per relative day: the day, then each column scaled, then
    empty cells up to the header's width."""
    out_file = Path(out_file)
    padding = [""] * (len(header) - 1 - len(columns))
    rows = (
        [str(int(r))] + [format_number(float(c[i]) * scale) for c in columns] + padding
        for i, r in enumerate(rel_days)
    )
    out_file.write_text(write_table(header, rows), encoding="utf-8", newline="\n")
    return out_file


def emit_paths(path: CumulativePath, out_file: str | Path, scale: float = 100.0) -> Path:
    """Write one cumulative path as CSV (estimates scaled to basis points
    for percent-point series; pass scale=1.0 for log-return series)."""
    columns = [path.estimates]
    if path.ses is not None:
        columns += [path.ses, *path.ci90, *path.ci95]
    return _emit(out_file, PATH_COLUMNS, path.rel_days, columns, scale)


def emit_placebo(result: PermutationResult, out_file: str | Path, scale: float = 100.0) -> Path:
    columns = [result.observed, result.placebo_mean, *result.bands[0.90], *result.bands[0.95]]
    return _emit(out_file, PLACEBO_COLUMNS, result.rel_days, columns, scale)


def _parse_path_table(text: str) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    table = read_table(text)
    if table.header != PATH_COLUMNS:
        raise IngestError(f"not a path CSV (expected the columns {', '.join(PATH_COLUMNS)})")
    rows = list(enumerate(table.rows, start=2))
    if not rows:
        raise IngestError("no rows")
    days = np.array([_parse_day(row[0], i) for i, row in rows])
    back = np.flatnonzero(np.diff(days) <= 0)
    if back.size:
        i = back[0] + 1
        message = f"relative_day {days[i]} is not after the previous row's {days[i - 1]}"
        raise IngestError(message, row=rows[i][0])
    est = np.array([parse_number(row[1], i) for i, row in rows])
    se = None
    if any(row[2] for _, row in rows):
        se = np.array([_parse_se(row[2], i) for i, row in rows])
    return days, est, se


def _parse_day(cell: str, row: int) -> int:
    day = parse_number(cell, row)
    if not day.is_integer():
        raise IngestError(f"relative_day {cell!r} is not an integer", row=row)
    return int(day)


def _parse_se(cell: str, row: int) -> float:
    se = parse_number(cell, row)
    if se < 0:
        raise IngestError(f"negative se {cell!r}", row=row)
    return se


def read_path_csv(path: str | Path, label: str | None = None) -> CumulativePath:
    """Reconstruct a CumulativePath from an emitted path CSV; p-values are
    recomputed from the estimate/SE ratio.  Any other file is a ConfigError
    naming it."""
    days, est, se = _read_file(path, _parse_path_table)
    label = label or Path(path).stem
    if se is None:
        return CumulativePath(label=label, rel_days=days, estimates=est)
    return CumulativePath(
        label=label, rel_days=days, estimates=est, ses=se, pvalues=_two_sided_p(est, se)
    )


# --- orchestration ---------------------------------------------------------


def _slug(text: str) -> str:
    return "".join(c if c.isalnum() else "_" for c in text).strip("_").lower()


@dataclass(frozen=True)
class PositionedAsset:
    """An asset positioned before any file is written: its group labels and,
    per statistic read, its ``statistic_data`` and each group's positions."""

    label: str
    scale: float
    groups: tuple[str, ...]
    reads: dict[str, tuple]


def position_asset(config: StudyConfig, groups, asset: AssetConfig, study=True) -> PositionedAsset:
    """Load the asset, and align and position each group once per calendar
    that the estimator (for a ``study``) or the placebo statistic reads, the
    return calendar first.  Every error from aligning or positioning (a
    window that leaves a calendar is a DesignError) names the asset, as does
    the ConfigError for a ``hac_lags`` at or beyond an OLS ``study``'s row
    count."""
    series = load_asset(asset)
    labelled = labelled_groups(groups)
    names = [config.estimator] if study else []
    if config.permutation:
        names.append(config.permutation.statistic)
    reads = {}
    try:
        for regression in (True, False):
            readers = [name for name in names if Statistic(name).uses_regression is regression]
            if readers:
                cal, data = statistic_data(Statistic(readers[0]), series)
                positions = tuple(aligned_positions(g, cal, config.window) for _, g in labelled)
                reads.update(dict.fromkeys(readers, (data, positions)))
    except EventYieldError as exc:
        raise type(exc)(f"{asset.label}: {exc}") from None
    if study and config.estimator == "ols":
        all_pos = np.concatenate(reads[config.estimator][1])
        rows = int(all_pos.max() - all_pos.min()) + 2 * config.window + 1
        if config.hac_lags >= rows:
            raise ConfigError(f"{asset.label}: hac_lags {config.hac_lags} >= row count {rows}")
    # percent points -> bp for level series; log returns left unscaled
    scale = 100.0 if series.transform is Transform.LEVEL else 1.0
    return PositionedAsset(asset.label, scale, tuple(g for g, _ in labelled), reads)


def _emit_study(asset: PositionedAsset, config: StudyConfig, out_dir: Path) -> list[Path]:
    """Path CSVs per group plus the difference, and the significance table."""
    data, positions = asset.reads[config.estimator]
    paths, constant = paths_at(
        Statistic(config.estimator), data, positions, asset.groups, config.window, config.hac_lags
    )
    written = []
    for i, path in enumerate(paths):
        # the path after the groups' is their difference
        suffix = "diff" if i == len(asset.groups) else _slug(path.label)
        written.append(emit_paths(path, out_dir / f"{asset.label}_{suffix}.csv", asset.scale))
    table_file = out_dir / f"{asset.label}_table.txt"
    table = render_table(paths, constant=constant, scale=asset.scale)
    table_file.write_text(table, encoding="utf-8", newline="\n")
    written.append(table_file)
    return written


def _emit_permutation(asset: PositionedAsset, config: StudyConfig, out_dir: Path) -> list[Path]:
    """Placebo band CSVs: one per group, plus the difference for two groups."""
    perm = config.permutation
    data, positions = asset.reads[perm.statistic]
    base = PermutationSpec(
        replications=perm.replications,
        statistic=Statistic(perm.statistic),
        window=config.window,
        seed=perm.seed,
    )
    # group-level panels draw samples of the smaller group's size
    level = replace(base, k=min(len(pos) for pos in positions))
    panels = [
        (_slug(group), group_level_at, pos, level) for group, pos in zip(asset.groups, positions)
    ]
    if len(positions) == 2:
        panels.append(("diff", comparison_at, positions, base))
    written = []
    for suffix, permute, real, spec in panels:
        out_file = out_dir / f"{asset.label}_{suffix}_placebo.csv"
        written.append(emit_placebo(permute(data, real, spec), out_file, asset.scale))
    return written


def _for_each_asset(config: StudyConfig, stages) -> list[Path]:
    _, groups = load_events(config)
    study = _emit_study in stages
    assets = [position_asset(config, groups, asset, study) for asset in config.assets]
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    for asset in assets:
        for stage in stages:
            written.extend(stage(asset, config, out_dir))
    return written


def run_study(config: StudyConfig) -> list[Path]:
    """Run the configured study end to end; returns the written files."""
    stages = [_emit_study] if config.permutation is None else [_emit_study, _emit_permutation]
    return _for_each_asset(config, stages)


def run_permutation(config: StudyConfig) -> list[Path]:
    """Write only the placebo band CSVs of the configured study; returns the
    written files."""
    if config.permutation is None:
        raise ConfigError("permutation settings missing")
    return _for_each_asset(config, [_emit_permutation])
