import re
from collections import Counter
from dataclasses import replace
from datetime import date
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given
from hypothesis import strategies as st

from eventyield import (
    ConfigError,
    CumulativePath,
    EventSet,
    GroupAssignment,
    Openness,
    SynthSpec,
    PermutationResult,
    emit_paths,
    emit_placebo,
    format_cell,
    generate_walk,
    inject_effects,
    load_config,
    parse_event_table,
    parse_fred_csv,
    render_table,
    run_study,
    write_event_csv,
    write_fred_csv,
)
from eventyield import permutation, report
from eventyield.report import (
    PATH_COLUMNS,
    AssetConfig,
    PermutationConfig,
    StudyConfig,
    read_path_csv,
    resolve_split,
)
from conftest import make_events


class TestFormatCell:
    @pytest.mark.parametrize(
        "bp,p,expected",
        [
            (12.8, 0.06, "12.8 (0.06)*"),
            (-17.6, 0.01, "-17.6 (0.01)**"),
            (30.4, 0.004, "30.4 (<0.01)***"),
            (25.0, 0.10, "25.0 (0.10)"),
            (5.0, 0.0499, "5.0 (0.05)**"),
            (5.0, 0.05, "5.0 (0.05)*"),
            (0.0, 1.0, "0.0 (1.00)"),
        ],
    )
    def test_pinned(self, bp, p, expected):
        assert format_cell(bp, p) == expected

    def test_rounding_half_away_from_zero(self):
        assert format_cell(12.75, 0.5).startswith("12.8")
        assert format_cell(-12.75, 0.5).startswith("-12.8")
        assert format_cell(0.05, 0.5).startswith("0.1")

    def test_p_just_below_cutoff(self):
        # 0.0049 prints as <0.01; 0.005 prints as 0.01 (still ***? no: 0.005 < 0.01)
        assert "(<0.01)" in format_cell(1.0, 0.0049)
        assert "(0.01)***" in format_cell(1.0, 0.005)


class TestRenderTable:
    @staticmethod
    def path(label, days, ests, ps=None):
        return CumulativePath(
            label=label,
            rel_days=np.array(days),
            estimates=np.array(ests, dtype=float),
            pvalues=None if ps is None else np.array(ps, dtype=float),
        )

    def test_layout_and_constant_row(self):
        col = self.path("Open", [-1, 0, 1], [0.0, 0.10, 0.12], [1.0, 0.03, 0.06])
        text = render_table([col], constant=(0.002, 0.5))
        lines = text.splitlines()
        assert lines[0].split() == ["Day", "Open"]
        assert "10.0 (0.03)**" in lines[2]
        assert lines[-1].startswith("Constant")
        assert "0.2 (0.50)" in lines[-1]

    def test_no_pvalues_renders_bare_estimates(self):
        col = self.path("Median", [0, 1], [0.05, 0.07])
        text = render_table([col])
        assert "5.0" in text and "(" not in text.splitlines()[1]

    def test_mismatched_ranges_rejected(self):
        a = self.path("A", [0, 1], [0.0, 0.1])
        b = self.path("B", [0, 1, 2], [0.0, 0.1, 0.2])
        spans = "'A' covers 0..1 (2 days), 'B' covers 0..2 (3 days)"
        with pytest.raises(ConfigError, match=re.escape(spans)):
            render_table([a, b])

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            render_table([])


_bounded = st.floats(-1e100, 1e100)


def _g(values) -> list[str]:
    return ["%.12g" % v for v in values]


class TestPathCsvRoundTrip:
    def test_with_inference(self, tmp_path):
        days = np.arange(-3, 4)
        est = np.linspace(-0.02, 0.05, 7)
        ses = np.linspace(0.001, 0.004, 7)
        p = CumulativePath(
            label="Open",
            rel_days=days,
            estimates=est,
            ses=ses,
            pvalues=np.full(7, 0.5),
            ci90=(est - 1.6449 * ses, est + 1.6449 * ses),
            ci95=(est - 1.96 * ses, est + 1.96 * ses),
        )
        f = emit_paths(p, tmp_path / "p.csv")
        back = read_path_csv(f, label="Open")
        assert np.allclose(back.estimates, est * 100.0, rtol=1e-11)
        assert np.allclose(back.ses, ses * 100.0, rtol=1e-11)
        # p-values recomputed from estimate/SE, not read
        z = np.abs(est) / ses
        from scipy.stats import norm

        assert np.allclose(back.pvalues, 2 * norm.sf(z), rtol=1e-9)

    def test_without_inference(self, tmp_path):
        p = CumulativePath(label="Median", rel_days=np.arange(-2, 3), estimates=np.ones(5) * 0.01)
        f = emit_paths(p, tmp_path / "m.csv")
        back = read_path_csv(f)
        assert back.ses is None and back.pvalues is None
        assert np.allclose(back.estimates, 1.0)

    def test_not_a_path_csv(self, tmp_path):
        f = tmp_path / "x.csv"
        f.write_text("a,b\n1,2\n")
        with pytest.raises(ConfigError):
            read_path_csv(f)

    def test_placebo_csv_rejected(self, tmp_path):
        result = PermutationResult(
            rel_days=np.arange(-1, 2),
            observed=np.zeros(3),
            placebo_mean=np.zeros(3),
            bands={0.90: (np.zeros(3), np.ones(3)), 0.95: (np.zeros(3), np.ones(3))},
            replication_count=2,
        )
        f = emit_placebo(result, tmp_path / "x_open_placebo.csv")
        with pytest.raises(ConfigError, match="x_open_placebo.csv: not a path CSV"):
            read_path_csv(f)

    @pytest.mark.parametrize(
        "row, message",
        [("1,2.0,0.5,1,2,3", "row 3: expected 7 cells, got 6"),
         ("1,abc,0.5,1,2,3,4", "row 3: non-numeric value 'abc'"),
         ("1,2.0,,1,2,3,4", "row 3: non-numeric value ''"),
         ("1.5,2.0,0.5,1,2,3,4", "row 3: relative_day '1.5' is not an integer"),
         ("1,2.0,-1,1,2,3,4", "row 3: negative se '-1'"),
         ("0,2.0,0.5,1,2,3,4", "row 3: relative_day 0 is not after the previous row's 0"),
         ("-1,2.0,0.5,1,2,3,4", "row 3: relative_day -1 is not after the previous row's 0")],
        ids=["short", "non-numeric", "missing-se", "fractional-day", "negative-se",
             "repeated-day", "backward-day"],
    )
    def test_bad_row_named(self, tmp_path, row, message):
        f = tmp_path / "p.csv"
        f.write_text(",".join(PATH_COLUMNS) + "\n0,1.0,0.5,1,2,3,4\n" + row + "\n")
        with pytest.raises(ConfigError, match=f"p.csv: {message}"):
            read_path_csv(f)

    def test_header_only_rejected(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text(",".join(PATH_COLUMNS) + "\n")
        with pytest.raises(ConfigError, match="p.csv: no rows"):
            read_path_csv(f)

    @given(
        st.lists(
            st.tuples(st.integers(-1000, 1000), _bounded, st.floats(1e-100, 1e100)),
            min_size=1, max_size=30, unique_by=lambda r: r[0],
        ).map(sorted),
        st.booleans(),
    )
    def test_emit_then_read(self, tmp_path_factory, rows, with_se):
        days = np.array([r for r, _, _ in rows])
        est = np.array([e for _, e, _ in rows])
        ses = np.array([s for _, _, s in rows])
        if with_se:
            path = CumulativePath(
                label="p", rel_days=days, estimates=est, ses=ses, pvalues=np.full(len(rows), 0.5),
                ci90=(est - ses, est + ses), ci95=(est - 2 * ses, est + 2 * ses),
            )
        else:
            path = CumulativePath(label="p", rel_days=days, estimates=est)
        f = emit_paths(path, tmp_path_factory.mktemp("paths") / "p.csv")
        back = read_path_csv(f)
        assert back.rel_days.tolist() == days.tolist()
        assert _g(back.estimates) == _g(est * 100.0)
        if with_se:
            assert _g(back.ses) == _g(ses * 100.0)
        else:
            assert back.ses is None and back.pvalues is None


class TestWriterRoundTrips:
    def test_event_csv(self, releases_csv):
        es = parse_event_table(releases_csv)
        back = parse_event_table(write_event_csv(es))
        assert len(back) == len(es)
        for a, b in zip(es, back):
            assert (a.date, a.name, a.openness) == (b.date, b.name, b.openness)

    def test_event_csv_with_attributes(self):
        es = parse_event_table(
            "date,model,open,lab,country,arena_score,agi_shift\n"
            "2023-01-02,a,x,Meta,US,1205.5,-30\n"
        )
        back = parse_event_table(write_event_csv(es))
        e = back.events[0]
        assert e.attr("arena_score") == 1205.5
        assert e.attr("agi_shift") == -30.0
        assert e.attr("country") == "US"
        assert e.attr("frontier_gap") is None

    def test_fred_csv(self):
        s = generate_walk(SynthSpec(length=30, sigma=0.01, seed=4, asset_id="DGS30"))
        back = parse_fred_csv(write_fred_csv(s))
        assert back.asset_id == "DGS30"
        assert back.calendar.dates == s.calendar.dates
        assert np.allclose(back.values, s.values, rtol=1e-11)


class TestResolveSplit:
    @staticmethod
    def events():
        return parse_event_table(
            "date,model,open,country,arena_score,agi_shift\n"
            "2023-01-02,a,x,US,1000,-5\n"
            "2023-02-02,b,,US,1100,3\n"
            "2023-03-02,c,x,CN,1200,0\n"
            "2023-04-02,d,,CN,1300,-2\n"
        )

    def test_rules(self):
        es = self.events()
        assert isinstance(resolve_split(es, "pooled"), EventSet)
        g = resolve_split(es, "openness")
        assert (g.label_a, g.label_b) == ("Open", "Closed")
        g = resolve_split(es, "median:arena_score")
        assert len(g.group_a) == 2
        g = resolve_split(es, "sign:agi_shift")
        assert [e.name for e in g.group_a] == ["a", "d"]
        g = resolve_split(es, "country:CN")
        assert [e.name for e in g.group_a] == ["c", "d"]
        g = resolve_split(es, "interaction:open:agi_shift")
        assert [e.name for e in g.group_a] == ["a"]
        assert [e.name for e in g.group_b] == ["c"]

    def test_bad_rules(self):
        es = self.events()
        for rule in ("bogus", "median:", "interaction:upward:agi_shift", "interaction:open:"):
            with pytest.raises(ConfigError):
                resolve_split(es, rule)


def build_study_dir(tmp_path, permutation=None, estimator="ols"):
    """Synthetic two-group study on disk: prices, events, YAML config."""
    series = generate_walk(SynthSpec(length=400, sigma=0.0001, seed=1, asset_id="SYNTH"))
    cal = series.calendar
    pos_a = [50, 110, 170, 230]
    pos_b = [63, 127, 189, 255]
    a = make_events(cal, pos_a, prefix="a")
    b = make_events(cal, pos_b, [Openness.CLOSED] * 4, prefix="b")
    groups = GroupAssignment(a, b, "Open", "Closed")
    # 10bp = 0.10 percent points
    series = inject_effects(series, groups, {"Open": {0: 0.10}, "Closed": {0: -0.10}})
    (tmp_path / "prices.csv").write_text(write_fred_csv(series), encoding="utf-8")
    all_events = EventSet(tuple(a) + tuple(b))
    (tmp_path / "events.csv").write_text(write_event_csv(all_events), encoding="utf-8")
    doc = {
        "assets": [{"path": "prices.csv", "kind": "fred", "label": "synth"}],
        "events": "events.csv",
        "output_dir": "out",
        "split": "openness",
        "window": 15,
        "hac_lags": 10,
        "estimator": estimator,
    }
    if permutation:
        doc["permutation"] = permutation
    cfg_file = tmp_path / "study.yaml"
    cfg_file.write_text(yaml.safe_dump(doc), encoding="utf-8")
    return cfg_file


class TestLoadConfig:
    def test_relative_paths_and_defaults(self, tmp_path):
        cfg_file = build_study_dir(tmp_path)
        cfg = load_config(cfg_file)
        assert Path(cfg.events_path) == tmp_path / "events.csv"
        assert cfg.assets[0].label == "synth"
        assert cfg.window == 15 and cfg.hac_lags == 10
        assert cfg.permutation is None

    def test_missing_file_rejected(self, tmp_path):
        cfg_file = tmp_path / "study.yaml"
        cfg_file.write_text(
            yaml.safe_dump({"assets": [{"path": "nope.csv"}], "events": "nope2.csv"})
        )
        with pytest.raises(ConfigError):
            load_config(cfg_file)

    def test_missing_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "study.yaml"
        cfg_file.write_text(yaml.safe_dump({"events": "x.csv"}))
        with pytest.raises(ConfigError):
            load_config(cfg_file)

    @staticmethod
    def rewrite(cfg_file, **changes):
        doc = yaml.safe_load(cfg_file.read_text(encoding="utf-8"))
        cfg_file.write_text(yaml.safe_dump({**doc, **changes}), encoding="utf-8")
        return cfg_file

    def test_an_empty_permutation_section_means_bands_at_the_defaults(self, tmp_path):
        cfg_file = self.rewrite(build_study_dir(tmp_path), permutation={})
        assert load_config(cfg_file).permutation == PermutationConfig()

    def test_a_null_value_means_the_default(self, tmp_path):
        nulls = dict.fromkeys(("output_dir", "split", "window", "hac_lags", "estimator", "years"))
        cfg_file = self.rewrite(
            build_study_dir(tmp_path),
            assets=[{"path": "prices.csv", "kind": None, "label": None}],
            permutation={"replications": None, "seed": None, "statistic": None},
            **nulls,
        )
        assert load_config(cfg_file) == StudyConfig(
            assets=(AssetConfig(path=str(tmp_path / "prices.csv"), label="prices"),),
            events_path=str(tmp_path / "events.csv"),
            output_dir=str(tmp_path / "out"),
            permutation=PermutationConfig(),
        )

    def test_a_numeric_label_is_read_as_its_text(self, tmp_path):
        cfg_file = self.rewrite(
            build_study_dir(tmp_path), assets=[{"path": "prices.csv", "label": 10}]
        )
        assert load_config(cfg_file).assets[0].label == "10"

    def test_bad_estimator_rejected(self):
        with pytest.raises(ConfigError):
            StudyConfig(assets=(), events_path="e", output_dir="o", estimator="ridge")


class TestRunStudy:
    def test_outputs_and_determinism(self, tmp_path):
        cfg = load_config(build_study_dir(tmp_path))
        written = run_study(cfg)
        names = sorted(p.name for p in written)
        assert names == [
            "synth_closed.csv",
            "synth_diff.csv",
            "synth_open.csv",
            "synth_table.txt",
        ]
        first = {p.name: p.read_bytes() for p in written}
        again = run_study(cfg)
        assert {p.name: p.read_bytes() for p in again} == first
        table = (tmp_path / "out" / "synth_table.txt").read_text()
        assert table.splitlines()[0].split() == ["Day", "Open", "Closed", "Open", "-", "Closed"]
        assert table.splitlines()[-1].startswith("Constant")

    def test_recovers_injected_difference(self, tmp_path):
        cfg = load_config(build_study_dir(tmp_path))
        run_study(cfg)
        diff = read_path_csv(tmp_path / "out" / "synth_diff.csv")
        # +10bp vs -10bp injected at day 0: difference near 20bp after day 0
        at_15 = diff.estimates[list(diff.rel_days).index(15)]
        assert abs(at_15 - 20.0) < 1.0

    def test_median_estimator_outputs(self, tmp_path):
        cfg = load_config(build_study_dir(tmp_path, estimator="median"))
        written = run_study(cfg)
        diff = read_path_csv(tmp_path / "out" / "synth_diff.csv")
        assert diff.ses is None
        table = (tmp_path / "out" / "synth_table.txt").read_text()
        assert not table.splitlines()[-1].startswith("Constant")

    def test_permutation_outputs(self, tmp_path):
        cfg = load_config(
            build_study_dir(
                tmp_path, permutation={"replications": 12, "seed": 0, "statistic": "median"}
            )
        )
        written = run_study(cfg)
        names = {p.name for p in written}
        assert {
            "synth_open_placebo.csv",
            "synth_closed_placebo.csv",
            "synth_diff_placebo.csv",
        } <= names
        text = (tmp_path / "out" / "synth_diff_placebo.csv").read_text()
        assert text.splitlines()[0] == (
            "relative_day,observed,placebo_mean,band90_lo,band90_hi,band95_lo,band95_hi"
        )

    def test_no_events_after_filter(self, tmp_path):
        from dataclasses import replace

        cfg = load_config(build_study_dir(tmp_path))
        cfg = replace(cfg, years=(1990, 1991))
        with pytest.raises(ConfigError):
            run_study(cfg)


class TestPositionOnce:
    """Each asset's groups are aligned and positioned once per calendar that
    the study or its placebo bands read, and its returns are taken at most
    once, however many placebo panels read them."""

    @pytest.mark.parametrize(
        "estimator, statistic, returns_per_asset, positionings_per_asset",
        [
            ("ols", "ols", 1, 2),
            ("lad", "ols", 1, 2),
            ("median", "median", 0, 2),
            ("median", "ols", 1, 4),
            ("ols", "median", 1, 4),
        ],
    )
    def test_calls_per_asset(
        self, tmp_path, monkeypatch, estimator, statistic, returns_per_asset,
        positionings_per_asset,
    ):
        calls = self.count_calls(tmp_path, monkeypatch, estimator, statistic, run_study)
        assert calls["to_returns"] == 2 * returns_per_asset
        assert calls["aligned_positions"] == 2 * positionings_per_asset

    def test_placebo_bands_alone_position_only_the_statistic_calendar(
        self, tmp_path, monkeypatch
    ):
        calls = self.count_calls(tmp_path, monkeypatch, "ols", "median", report.run_permutation)
        assert calls["to_returns"] == 0
        assert calls["aligned_positions"] == 2 * 2

    @staticmethod
    def count_calls(tmp_path, monkeypatch, estimator, statistic, run) -> Counter:
        """The ``to_returns`` and ``aligned_positions`` calls of ``run`` on a
        study of two identical assets."""
        perm = {"replications": 2, "seed": 0, "statistic": statistic}
        cfg = load_config(build_study_dir(tmp_path, permutation=perm, estimator=estimator))
        twin = replace(cfg.assets[0], label="twin")
        cfg = replace(cfg, assets=(cfg.assets[0], twin))
        calls = Counter()

        def counting(name, fn):
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return counted

        for module in (permutation, report):
            for name in ("to_returns", "aligned_positions"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        run(cfg)
        return calls
