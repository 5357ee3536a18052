import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import eventyield

SRC = Path(__file__).resolve().parents[1] / "src"

# every name the package exported when it imported its submodules eagerly
EXPORTED = {
    "design": ["DesignMatrix", "StudySpec", "build_design"],
    "errors": [
        "CalendarError", "ConfigError", "DesignError", "EstimationError", "EventError",
        "EventYieldError", "IngestError", "PermutationError", "SeriesError",
    ],
    "estimators": [
        "CumulativePath", "HacCovariance", "RegressionFit", "accumulate_lad_path",
        "constant_stats", "cumulative_path", "fit_lad", "fit_ols", "hac_covariance",
        "hac_variance", "median_change",
    ],
    "events": [
        "Event", "EventSet", "GroupAssignment", "Openness", "align_events", "split_by_country",
        "split_by_median", "split_by_openness", "split_by_sign",
    ],
    "ingest": [
        "RawTable", "parse_event_table", "parse_forecast_series", "parse_fred_csv",
        "parse_ohlc_csv", "read_table", "write_event_csv", "write_fred_csv", "write_table",
    ],
    "permutation": [
        "PermutationResult", "PermutationSpec", "Statistic", "coverage_assessment",
        "draw_placebo", "percentile_bands", "permutation_comparison", "permutation_group_level",
    ],
    "report": [
        "StudyConfig", "emit_paths", "emit_placebo", "format_cell", "load_config",
        "render_table", "run_study",
    ],
    "series": [
        "PriceSeries", "ReturnSeries", "TradingCalendar", "Transform", "align_event_date",
        "to_returns",
    ],
    "synth": ["SynthSpec", "generate_walk", "inject_effects", "weekday_calendar"],
}

_PROBE = """
import json, sys
from eventyield import ingest, permutation
print(json.dumps(sorted(m for m in sys.modules if m.startswith(("eventyield", "yaml")))))
"""


def test_ingest_and_permutation_load_neither_report_nor_yaml():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _PROBE], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stdout)
    assert "eventyield.permutation" in loaded
    assert "eventyield.report" not in loaded
    assert not any(m == "yaml" or m.startswith("yaml.") for m in loaded)


def test_every_exported_name_resolves_to_its_submodule():
    names = [name for names in EXPORTED.values() for name in names]
    assert sorted(eventyield.__all__) == sorted(names)
    for module, names in EXPORTED.items():
        source = importlib.import_module(f"eventyield.{module}")
        assert getattr(eventyield, module) is source
        for name in names:
            assert getattr(eventyield, name) is getattr(source, name), name
            assert name in dir(eventyield)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        eventyield.no_such_name
