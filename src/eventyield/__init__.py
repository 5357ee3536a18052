"""Event studies of asset prices around dated releases.

The names below are exported lazily: each submodule is imported on first
use of one of its names, so ``from eventyield import ingest, permutation``
loads neither the report layer nor PyYAML.
"""

import importlib

# submodule -> the names the package exports from it
_EXPORTS = {
    "design": ("DesignMatrix", "StudySpec", "build_design"),
    "errors": (
        "CalendarError",
        "ConfigError",
        "DesignError",
        "EstimationError",
        "EventError",
        "EventYieldError",
        "IngestError",
        "PermutationError",
        "SeriesError",
    ),
    "estimators": (
        "CumulativePath",
        "HacCovariance",
        "RegressionFit",
        "accumulate_lad_path",
        "constant_stats",
        "cumulative_path",
        "fit_lad",
        "fit_ols",
        "hac_covariance",
        "hac_variance",
        "median_change",
    ),
    "events": (
        "Event",
        "EventSet",
        "GroupAssignment",
        "Openness",
        "align_events",
        "split_by_country",
        "split_by_median",
        "split_by_openness",
        "split_by_sign",
    ),
    "ingest": (
        "RawTable",
        "parse_event_table",
        "parse_forecast_series",
        "parse_fred_csv",
        "parse_ohlc_csv",
        "read_table",
        "write_event_csv",
        "write_fred_csv",
        "write_table",
    ),
    "permutation": (
        "PermutationResult",
        "PermutationSpec",
        "Statistic",
        "coverage_assessment",
        "draw_placebo",
        "percentile_bands",
        "permutation_comparison",
        "permutation_group_level",
    ),
    "report": (
        "StudyConfig",
        "emit_paths",
        "emit_placebo",
        "format_cell",
        "load_config",
        "render_table",
        "run_study",
    ),
    "series": (
        "PriceSeries",
        "ReturnSeries",
        "TradingCalendar",
        "Transform",
        "align_event_date",
        "to_returns",
    ),
    "synth": ("SynthSpec", "generate_walk", "inject_effects", "weekday_calendar"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)
__version__ = "0.1.0"


def __getattr__(name):
    # eventyield.report and its siblings resolve without an import of their own
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_SOURCE})
