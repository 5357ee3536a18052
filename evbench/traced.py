"""Traced unit of work: one workload run in this process with a span around
every call into each layer of `eventyield`.

    python3 traced.py SPANS.json cli run --config study.yaml
    python3 traced.py SPANS.json hac run SERIES.csv OUT_DIR REPLICATIONS SEED

Wrappers are patched onto the bindings the calling modules hold, because
`report` and `permutation` import names directly.  Each wrapper records a
span (name, start, end, parent) in memory, plus counts, and the spans are
written to SPANS.json when the unit ends.  `layer_metrics` turns that file
into the per-layer metrics.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import hac_unit

# layer -> the modules of `eventyield` whose binding of it is patched
PATCHES = {
    "ingest.parse_fred_csv": ("report", "ingest"),
    "ingest.parse_event_table": ("report",),
    "series.to_returns": ("report", "permutation"),
    "events.align_events": ("report", "permutation"),
    "design.build_design": ("report", "permutation"),
    "estimators.fit_ols": ("report", "permutation"),
    "estimators.hac_covariance": ("report", "permutation"),
    "estimators.cumulative_path": ("report", "permutation"),
    "estimators.fit_lad": ("report", "permutation"),
    "estimators.linprog": ("estimators",),
    "estimators.median_change": ("report", "permutation"),
    "permutation.substream": ("permutation",),
    "permutation.draw_placebo": ("permutation",),
    "permutation.percentile_bands": ("permutation",),
    "permutation.permutation_group_level": ("report",),
    "permutation.permutation_comparison": ("report",),
    "permutation.coverage_assessment": ("permutation",),
    "report.load_config": ("cli",),
    "report.load_asset": ("report",),
    "report.emit_paths": ("report",),
    "report.emit_placebo": ("report",),
    "report.render_table": ("report",),
}

# Statistics whose time per placebo replication is reported.
STATISTICS = ("ols", "ols_diff", "lad", "lad_diff", "median", "median_diff", "coverage")

# The per-layer metrics, with their units.
_MEASURES = {
    "ingest.parse_fred_csv": ("calls", "self_s", "cold_s", "warm_s"),
    "ingest.parse_event_table": ("self_s",),
    "series.to_returns": ("calls", "self_s"),
    "events.align_events": ("self_s",),
    "design.build_design": ("calls", "self_s", "incl_s", "cold_s", "warm_s"),
    "estimators.fit_ols": ("calls", "self_s", "incl_s", "cold_s", "warm_s"),
    "estimators.hac_covariance": ("calls", "self_s", "cold_s", "warm_s"),
    "estimators.cumulative_path": ("calls", "self_s"),
    "estimators.fit_lad": ("calls", "self_s", "incl_s", "cold_s", "warm_s"),
    "estimators.linprog": ("self_s",),
    "estimators.median_change": ("calls", "self_s", "cold_s", "warm_s"),
    "permutation.substream": ("calls", "self_s"),
    "permutation.draw_placebo": ("self_s",),
    "permutation.percentile_bands": ("self_s",),
    "report.emit_paths": ("self_s",),
    "report.emit_placebo": ("self_s",),
    "report.render_table": ("self_s",),
}
_UNITS = {"calls": "count", "self_s": "s", "incl_s": "s", "cold_s": "s", "warm_s": "s"}
METRICS = {f"{layer}.{m}": _UNITS[m] for layer, ms in _MEASURES.items() for m in ms}
METRICS.update({
    "ingest.parse_fred_csv.rows": "count",
    "design.build_design.matrix_bytes": "bytes",
    "estimators.fit_lad.lp_iterations": "count",
    "estimators.fit_lad.lp_failed": "count",
    **{f"permutation.replication_ms.{s}": "ms" for s in STATISTICS},
    "report.load_config.s": "s",
    "report.load_asset.s": "s",
    "report.bytes_written": "bytes",
    "cli.import_s": "s",
    "trace.study_s": "s",
    "trace.overhead_s": "s",
    "failed_frac": "ratio",
})


class Tracer:
    """Spans as [name, start, end, parent index] and named counts."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._open: list[int] = []

    def wrap(self, name, fn, label=None, on_result=None):
        def traced(*args, **kwargs):
            span_name = label(args, kwargs) if label else name
            index = len(self.spans)
            parent = self._open[-1] if self._open else -1
            self.spans.append([span_name, time.perf_counter(), 0.0, parent])
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._open.pop()
                self.spans[index][2] = time.perf_counter()
            if on_result:
                on_result(self.counts, result)
            return result

        return traced


def _replication_label(spec_position, statistic=None):
    def label(args, kwargs):
        spec = args[spec_position] if len(args) > spec_position else kwargs["spec"]
        return f"replication.{statistic or spec.statistic.value}.{spec.replications}"

    return label


def _count(key, measure):
    def on_result(counts, result):
        counts[key] += measure(result)

    return on_result


def _count_lp(counts, res):
    counts["estimators.fit_lad.lp_iterations"] += int(getattr(res, "nit", 0))
    counts["estimators.fit_lad.lp_failed"] += 0 if res.success else 1


def install(tracer: Tracer) -> None:
    """Patch a span-recording wrapper onto every binding in PATCHES."""
    hooks = {
        "ingest.parse_fred_csv": {"on_result": _count("ingest.parse_fred_csv.rows", len)},
        "design.build_design": {
            "on_result": _count("design.build_design.matrix_bytes", lambda d: d.matrix.nbytes)
        },
        "estimators.linprog": {"on_result": _count_lp},
        "permutation.permutation_group_level": {"label": _replication_label(2)},
        "permutation.permutation_comparison": {"label": _replication_label(2)},
        "permutation.coverage_assessment": {"label": _replication_label(1, "coverage")},
    }
    for layer, holders in PATCHES.items():
        module, attr = layer.split(".")
        original = getattr(importlib.import_module(f"eventyield.{module}"), attr)
        wrapper = tracer.wrap(layer, original, **hooks.get(layer, {}))
        for holder in holders:
            setattr(importlib.import_module(f"eventyield.{holder}"), attr, wrapper)


def layer_metrics(doc: dict) -> dict[str, float]:
    """Per-layer metrics of one traced unit from its SPANS.json document.
    A span's self time is its duration minus its children's durations."""
    spans = doc["spans"]
    child_s = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_s[parent] += end - start
    incl = defaultdict(list)
    self_s = defaultdict(float)
    for i, (name, start, end, _) in enumerate(spans):
        incl[name].append(end - start)
        self_s[name] += end - start - child_s[i]

    out = {name: 0.0 for name in METRICS}
    for layer, measures in _MEASURES.items():
        calls = incl.get(layer, [])
        values = {
            "calls": len(calls),
            "self_s": self_s.get(layer, 0.0),
            "incl_s": sum(calls),
            "cold_s": calls[0] if calls else 0.0,
            "warm_s": statistics.median(calls[1:]) if len(calls) > 1 else 0.0,
        }
        for m in measures:
            out[f"{layer}.{m}"] = values[m]
    reps = defaultdict(int)
    span_s = defaultdict(float)
    for name, durations in incl.items():
        if name.startswith("replication."):
            _, statistic, count = name.split(".")
            reps[statistic] += int(count) * len(durations)
            span_s[statistic] += sum(durations)
    for statistic in reps:
        out[f"permutation.replication_ms.{statistic}"] = 1000.0 * span_s[statistic] / reps[statistic]
    out["report.load_config.s"] = sum(incl.get("report.load_config", []))
    out["report.load_asset.s"] = sum(incl.get("report.load_asset", []))
    out["cli.import_s"] = doc["import_s"]
    out.update(doc["counts"])
    return out


def main(argv: list[str]) -> None:
    spans_out, program, *args = argv
    start = time.perf_counter()
    import eventyield.cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    install(tracer)
    if program == "cli":
        eventyield.cli.main(args, standalone_mode=False)
    else:
        hac_unit.main(args)
    doc = {"import_s": import_s, "spans": tracer.spans, "counts": tracer.counts}
    Path(spans_out).write_text(json.dumps(doc), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1:])
