import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml
from click.testing import CliRunner

from eventyield.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"


def make_config(tmp_path, data_dir, name="study.yaml", **extra):
    doc = {
        "assets": [{"path": str(data_dir / "synth_prices.csv"), "kind": "fred", "label": "synth"}],
        "events": str(data_dir / "synth_events.csv"),
        "output_dir": "out",
        "split": "openness",
        "window": 15,
        "hac_lags": 10,
        **extra,
    }
    cfg = tmp_path / name
    cfg.write_text(yaml.safe_dump(doc), encoding="utf-8")
    return cfg


def test_synth_run_validate_table(tmp_path):
    runner = CliRunner()
    data_dir = tmp_path / "data"

    r = runner.invoke(
        main,
        [
            "synth",
            "--output", str(data_dir),
            "--length", "400",
            "--sigma-bp", "1.0",
            "--events-per-group", "4",
            "--effect-bp", "10.0",
            "--seed", "2",
        ],
    )
    assert r.exit_code == 0, r.output
    assert (data_dir / "synth_prices.csv").exists()
    assert (data_dir / "synth_events.csv").exists()

    cfg = make_config(tmp_path, data_dir)

    r = runner.invoke(main, ["validate", "--config", str(cfg)])
    assert r.exit_code == 0, r.output
    assert "OK: 8 events" in r.output

    r = runner.invoke(main, ["run", "--config", str(cfg)])
    assert r.exit_code == 0, r.output
    out_dir = tmp_path / "out"
    assert (out_dir / "synth_table.txt").exists()
    diff_csv = out_dir / "synth_diff.csv"
    assert diff_csv.exists()

    r = runner.invoke(main, ["table", str(diff_csv)])
    assert r.exit_code == 0, r.output
    assert r.output.splitlines()[0].split()[0] == "Day"


def test_run_estimator_override(tmp_path):
    runner = CliRunner()
    data_dir = tmp_path / "data"
    runner.invoke(
        main,
        ["synth", "--output", str(data_dir), "--length", "400", "--sigma-bp", "1.0",
         "--events-per-group", "4", "--seed", "3"],
    )
    cfg = make_config(tmp_path, data_dir)
    r = runner.invoke(main, ["run", "--config", str(cfg), "--estimator", "median"])
    assert r.exit_code == 0, r.output
    text = (tmp_path / "out" / "synth_diff.csv").read_text()
    # median paths carry no SE column content
    assert text.splitlines()[1].split(",")[2] == ""


def test_run_bad_config_reports_error(tmp_path):
    cfg = tmp_path / "study.yaml"
    cfg.write_text(yaml.safe_dump({"assets": [], "events": "missing.csv"}))
    r = runner_result = CliRunner().invoke(main, ["run", "--config", str(cfg)])
    assert r.exit_code != 0
    assert "file not found" in r.output


def test_years_parse_error(tmp_path):
    data_dir = tmp_path / "data"
    runner = CliRunner()
    runner.invoke(
        main,
        ["synth", "--output", str(data_dir), "--length", "300", "--events-per-group", "3"],
    )
    cfg = make_config(tmp_path, data_dir)
    r = runner.invoke(main, ["run", "--config", str(cfg), "--years", "2023-2024"])
    assert r.exit_code != 0


@pytest.fixture
def synth_data(tmp_path):
    data_dir = tmp_path / "data"
    r = CliRunner().invoke(
        main,
        ["synth", "--output", str(data_dir), "--length", "400", "--events-per-group", "4"],
    )
    assert r.exit_code == 0, r.output
    return data_dir


def assert_clean_failure(r, message):
    """Non-zero exit with a one-line error naming the problem, no traceback."""
    assert r.exit_code != 0
    assert isinstance(r.exception, SystemExit)
    assert r.output.startswith("Error: ") and r.output.count("\n") == 1, r.output
    assert message in r.output


@pytest.mark.parametrize("command", ["validate", "run"])
def test_unknown_permutation_statistic_rejected_at_load(tmp_path, synth_data, command):
    perm = {"replications": 4, "seed": 0, "statistic": "foo"}
    cfg = make_config(tmp_path, synth_data, permutation=perm)
    r = CliRunner().invoke(main, [command, "--config", str(cfg)])
    assert_clean_failure(r, "permutation.statistic")
    assert not (tmp_path / "out").exists()


def test_run_zero_replications_rejected(tmp_path, synth_data):
    cfg = make_config(tmp_path, synth_data)
    r = CliRunner().invoke(main, ["run", "--config", str(cfg), "--replications", "0"])
    assert_clean_failure(r, "permutation.replications")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["validate", "run", "permute"])
def test_years_leaving_no_events(tmp_path, synth_data, command):
    cfg = make_config(tmp_path, synth_data, years=[1990, 1991])
    r = CliRunner().invoke(main, [command, "--config", str(cfg)])
    assert_clean_failure(r, "no events")
    assert not (tmp_path / "out").exists()


def test_permute_writes_the_placebo_files_of_run(tmp_path, synth_data):
    perm = {"replications": 5, "seed": 3, "statistic": "ols"}
    run_cfg = make_config(tmp_path, synth_data, "run.yaml", output_dir="run", permutation=perm)
    permute_cfg = make_config(tmp_path, synth_data, "permute.yaml", output_dir="permute")
    runner = CliRunner()
    r = runner.invoke(main, ["run", "--config", str(run_cfg)])
    assert r.exit_code == 0, r.output
    r = runner.invoke(
        main,
        ["permute", "--config", str(permute_cfg), "--replications", "5", "--seed", "3",
         "--statistic", "ols"],
    )
    assert r.exit_code == 0, r.output
    names = sorted(p.name for p in (tmp_path / "permute").iterdir())
    assert names == [f"synth_{g}_placebo.csv" for g in ("closed", "diff", "open")]
    for name in names:
        assert (tmp_path / "permute" / name).read_bytes() == (tmp_path / "run" / name).read_bytes()


def test_permute_uses_the_config_permutation_section(tmp_path, synth_data):
    perm = {"replications": 4, "seed": 7, "statistic": "lad"}
    run_cfg = make_config(tmp_path, synth_data, "run.yaml", output_dir="run", permutation=perm)
    permute_cfg = make_config(
        tmp_path, synth_data, "permute.yaml", output_dir="permute", permutation=perm
    )
    runner = CliRunner()
    r = runner.invoke(main, ["run", "--config", str(run_cfg)])
    assert r.exit_code == 0, r.output
    r = runner.invoke(main, ["permute", "--config", str(permute_cfg)])
    assert r.exit_code == 0, r.output
    names = sorted(p.name for p in (tmp_path / "permute").iterdir())
    assert names == [f"synth_{g}_placebo.csv" for g in ("closed", "diff", "open")]
    for name in names:
        assert (tmp_path / "permute" / name).read_bytes() == (tmp_path / "run" / name).read_bytes()


def test_run_seed_without_permutation_section_rejected(tmp_path, synth_data):
    cfg = make_config(tmp_path, synth_data)
    r = CliRunner().invoke(main, ["run", "--config", str(cfg), "--seed", "3"])
    assert_clean_failure(r, "no permutation section")
    assert not (tmp_path / "out").exists()


def test_run_negative_seed_rejected(tmp_path, synth_data):
    cfg = make_config(tmp_path, synth_data, permutation={"replications": 2})
    r = CliRunner().invoke(main, ["run", "--config", str(cfg), "--seed", "-1"])
    assert_clean_failure(r, "permutation.seed")
    assert not (tmp_path / "out").exists()


def test_run_seed_reseeds_the_permutation_section(tmp_path, synth_data):
    perm = {"replications": 3, "seed": 0, "statistic": "ols"}
    reseeded = make_config(tmp_path, synth_data, "a.yaml", output_dir="a", permutation=perm)
    seeded = make_config(
        tmp_path, synth_data, "b.yaml", output_dir="b", permutation={**perm, "seed": 5}
    )
    runner = CliRunner()
    r = runner.invoke(main, ["run", "--config", str(reseeded), "--seed", "5"])
    assert r.exit_code == 0, r.output
    r = runner.invoke(main, ["run", "--config", str(seeded)])
    assert r.exit_code == 0, r.output
    for f in sorted((tmp_path / "b").iterdir()):
        assert (tmp_path / "a" / f.name).read_bytes() == f.read_bytes()


@pytest.mark.parametrize("command", ["validate", "run"])
def test_split_leaving_a_group_empty(tmp_path, synth_data, command):
    lines = (synth_data / "synth_events.csv").read_text().splitlines()
    all_open = [lines[0]]
    for line in lines[1:]:
        cells = line.split(",")
        cells[2] = "x"
        all_open.append(",".join(cells))
    (synth_data / "synth_events.csv").write_text("\n".join(all_open) + "\n")
    cfg = make_config(tmp_path, synth_data)
    r = CliRunner().invoke(main, [command, "--config", str(cfg)])
    assert_clean_failure(r, "split 'openness' leaves group 'Closed' with no events")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "extra, key",
    [
        ({"window": "abc"}, "window"),
        ({"window": 1.5}, "window"),
        ({"hac_lags": "x"}, "hac_lags"),
        ({"years": 2023}, "years"),
        ({"permutation": {"replications": "many"}}, "permutation.replications"),
        ({"permutation": 5}, "permutation"),
        ({"assets": {"path": "synth_prices.csv"}}, "assets"),
        ({"assets": ["synth_prices.csv"]}, "assets"),
        ({"split": 5}, "split"),
        ({"events": ["a"]}, "events"),
        ({"output_dir": 5}, "output_dir"),
        ({"assets": [{"path": 5}]}, "assets[0].path"),
        ({"assets": [{"path": "p.csv", "kind": ["fred"]}]}, "assets[0].kind"),
        ({"permutation": False}, "permutation"),
        ({"permutation": 0}, "permutation"),
        ({"years": 0}, "years"),
        ({"years": []}, "years"),
    ],
    ids=["window", "window-float", "hac_lags", "years", "permutation.replications",
         "permutation", "assets", "asset", "split", "events", "output_dir", "asset.path",
         "asset.kind", "permutation-false", "permutation-0", "years-0", "years-empty"],
)
def test_config_value_of_wrong_type(tmp_path, synth_data, extra, key):
    cfg = make_config(tmp_path, synth_data, **extra)
    for command in ("validate", "run"):
        r = CliRunner().invoke(main, [command, "--config", str(cfg)])
        assert_clean_failure(r, f"Error: {key}: expected")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "extra, message",
    [
        ({"hac_lags": -1}, "hac_lags must be >= 0"),
        ({"permutation": {"seed": -1}}, "permutation.seed must be >= 0"),
        ({"years": [2025, 2022]}, "years: first year 2025 is after last year 2022"),
        ({"permutation": {"seed": 2**64}}, "permutation.seed must be < 2**64"),
        ({"permutation": {"replications": 10**20}},
         "permutation.replications must be <= 1000000"),
    ],
    ids=["hac_lags", "permutation.seed", "years", "permutation.seed-2**64",
         "permutation.replications-10**20"],
)
def test_config_value_out_of_range(tmp_path, synth_data, extra, message):
    cfg = make_config(tmp_path, synth_data, **extra)
    for command in ("validate", "run"):
        r = CliRunner().invoke(main, [command, "--config", str(cfg)])
        assert_clean_failure(r, message)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "options, message",
    [
        (["--replications", str(10**20)], "permutation.replications must be <= 1000000"),
        (["--seed", str(2**64)], "permutation.seed must be < 2**64"),
    ],
    ids=["replications", "seed"],
)
def test_run_rejects_an_option_out_of_range(tmp_path, synth_data, options, message):
    cfg = make_config(tmp_path, synth_data, permutation={"replications": 2})
    r = CliRunner().invoke(main, ["run", "--config", str(cfg), *options])
    assert_clean_failure(r, message)
    assert not (tmp_path / "out").exists()


def test_run_takes_the_largest_seed(tmp_path, synth_data):
    cfg = make_config(tmp_path, synth_data, permutation={"replications": 2})
    r = CliRunner().invoke(main, ["run", "--config", str(cfg), "--seed", str(2**64 - 1)])
    assert r.exit_code == 0, r.output


@pytest.mark.parametrize("command", ["run", "permute"])
def test_reversed_years_option_is_named(tmp_path, synth_data, command):
    cfg = make_config(tmp_path, synth_data)
    r = CliRunner().invoke(main, [command, "--config", str(cfg), "--years", "2025..2022"])
    assert_clean_failure(r, "Error: years: first year 2025 is after last year 2022")
    assert not (tmp_path / "out").exists()


def test_table_rejects_a_placebo_csv(tmp_path, synth_data):
    cfg = make_config(tmp_path, synth_data, permutation={"replications": 2})
    runner = CliRunner()
    r = runner.invoke(main, ["run", "--config", str(cfg)])
    assert r.exit_code == 0, r.output
    placebo = tmp_path / "out" / "synth_open_placebo.csv"
    r = runner.invoke(main, ["table", str(placebo)])
    assert_clean_failure(r, f"{placebo}: not a path CSV")


def test_validate_rejects_a_non_finite_price(tmp_path, synth_data):
    prices = synth_data / "synth_prices.csv"
    lines = prices.read_text().splitlines()
    lines[5] = lines[5].split(",")[0] + ",nan"
    prices.write_text("\n".join(lines) + "\n")
    cfg = make_config(tmp_path, synth_data)
    r = CliRunner().invoke(main, ["validate", "--config", str(cfg)])
    assert_clean_failure(r, "row 6: non-finite value 'nan'")


# The synth events sit at price positions 56, 96, ..., 336 of 400, so a
# window of 56 reaches the first price date but not the first return date.
@pytest.mark.parametrize(
    "extra",
    [{"estimator": "ols"}, {"estimator": "lad"},
     {"estimator": "median", "permutation": {"replications": 2, "statistic": "ols"}}],
    ids=["ols", "lad", "median-with-ols-bands"],
)
@pytest.mark.parametrize("command", ["validate", "run"])
def test_window_leaving_the_calendar(tmp_path, synth_data, command, extra):
    cfg = make_config(tmp_path, synth_data, window=56, **extra)
    r = CliRunner().invoke(main, [command, "--config", str(cfg)])
    assert_clean_failure(r, "event synthetic-0 on ")
    assert "+-56 day window leaves the calendar" in r.output
    assert not (tmp_path / "out").exists()


def test_median_window_uses_the_price_calendar(tmp_path, synth_data):
    cfg = make_config(tmp_path, synth_data, window=56, estimator="median")
    runner = CliRunner()
    r = runner.invoke(main, ["validate", "--config", str(cfg)])
    assert r.exit_code == 0, r.output
    r = runner.invoke(main, ["run", "--config", str(cfg)])
    assert r.exit_code == 0, r.output
    cfg = make_config(tmp_path, synth_data, window=57, estimator="median")
    r = runner.invoke(main, ["validate", "--config", str(cfg)])
    assert_clean_failure(r, "+-57 day window leaves the calendar")


def test_permute_checks_only_the_calendar_its_statistic_reads(tmp_path, synth_data):
    # the first event moves to price position 15: its +-15 day window fits the
    # price calendar that the median reads, not the return calendar of the
    # OLS study
    day_15 = (synth_data / "synth_prices.csv").read_text().splitlines()[16].split(",")[0]
    events = synth_data / "synth_events.csv"
    lines = events.read_text().splitlines()
    lines[1] = day_15 + lines[1][len(day_15):]
    events.write_text("\n".join(lines) + "\n")
    perm = {"replications": 3, "statistic": "median"}
    with_section = make_config(tmp_path, synth_data, "a.yaml", output_dir="a", permutation=perm)
    without = make_config(tmp_path, synth_data, "b.yaml", output_dir="b")
    runner = CliRunner()
    for args in (
        ["--config", str(with_section)],
        ["--config", str(without), "--statistic", "median", "--replications", "3"],
    ):
        r = runner.invoke(main, ["permute", *args])
        assert r.exit_code == 0, r.output
    for out in ("a", "b"):
        names = sorted(p.name for p in (tmp_path / out).iterdir())
        assert names == [f"synth_{g}_placebo.csv" for g in ("closed", "diff", "open")]
    for command in ("validate", "run"):
        r = runner.invoke(main, [command, "--config", str(with_section)])
        assert_clean_failure(r, "event synthetic-0 on ")
        assert "+-15 day window leaves the calendar" in r.output


@pytest.fixture
def long_synth(tmp_path):
    """An 800-day synth series with 4+4 events: the OLS study spans 626 rows."""
    data_dir = tmp_path / "long"
    r = CliRunner().invoke(
        main,
        ["synth", "--output", str(data_dir), "--length", "800", "--events-per-group", "4"],
    )
    assert r.exit_code == 0, r.output
    return data_dir


@pytest.mark.parametrize("command", ["validate", "run"])
def test_hac_lags_beyond_the_study_rows(tmp_path, long_synth, command):
    cfg = make_config(tmp_path, long_synth, hac_lags=700)
    r = CliRunner().invoke(main, [command, "--config", str(cfg)])
    assert_clean_failure(r, "synth: hac_lags 700 >= row count 626")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, extra",
    [("permute", {"permutation": {"replications": 2}}), ("run", {"estimator": "lad"}),
     ("run", {"estimator": "median"})],
    ids=["permute", "lad", "median"],
)
def test_hac_lags_bind_only_an_ols_study(tmp_path, long_synth, command, extra):
    cfg = make_config(tmp_path, long_synth, hac_lags=700, **extra)
    r = CliRunner().invoke(main, [command, "--config", str(cfg)])
    assert r.exit_code == 0, r.output


def test_run_writes_the_same_bytes_on_one_and_two_blas_threads(tmp_path):
    """Every output is the same bytes on one BLAS thread as on two.  On synth
    seed 8 the HAC lag products summed on one thread differ in their low bits
    from those on two, enough to move a digit of the open group's path CSV."""
    data_dir = tmp_path / "data"
    r = CliRunner().invoke(main, ["synth", "--output", str(data_dir), "--seed", "8"])
    assert r.exit_code == 0, r.output
    written = {}
    for threads in ("1", "2"):
        out = tmp_path / f"out_{threads}"
        cfg = make_config(tmp_path, data_dir, f"{threads}.yaml", output_dir=str(out), hac_lags=30)
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", "from eventyield.cli import main; main()", "run", "--config",
             str(cfg)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        written[threads] = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
    assert sorted(written["1"]) == [
        "synth_closed.csv", "synth_diff.csv", "synth_open.csv", "synth_table.txt"
    ]
    for name, data in written["1"].items():
        assert data == written["2"][name], name


def test_table_rejects_a_file_that_is_not_utf8(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"relative_day,estimate_bp,se,ci90_lo,ci90_hi,ci95_lo,ci95_hi\n-1,\xff\n")
    r = CliRunner().invoke(main, ["table", str(bad)])
    assert_clean_failure(r, f"{bad}: not UTF-8 text (byte 0xff at offset 63)")


def test_an_error_offset_counts_the_byte_order_mark(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"\xef\xbb\xbfrelative_day,estimate_bp\n-1,\xff\n")
    r = CliRunner().invoke(main, ["table", str(bad)])
    assert_clean_failure(r, f"{bad}: not UTF-8 text (byte 0xff at offset 31)")


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("which", ["config", "asset", "events"])
def test_a_file_that_is_not_utf8_is_named(tmp_path, synth_data, command, which):
    cfg = make_config(tmp_path, synth_data)
    bad = {
        "config": cfg,
        "asset": synth_data / "synth_prices.csv",
        "events": synth_data / "synth_events.csv",
    }[which]
    bad.write_bytes(bad.read_bytes() + b"\xff\n")
    r = CliRunner().invoke(main, [command, "--config", str(cfg)])
    assert_clean_failure(r, f"{bad}: not UTF-8 text (byte 0xff")
    assert not (tmp_path / "out").exists()


def test_files_with_a_byte_order_mark_are_read(tmp_path, synth_data):
    perm = {"replications": 3, "statistic": "ols"}
    plain = make_config(tmp_path, synth_data, permutation=perm)
    events = synth_data / "bom_events.csv"
    events.write_bytes(b"\xef\xbb\xbf" + (synth_data / "synth_events.csv").read_bytes())
    bom = make_config(
        tmp_path, synth_data, "bom.yaml", output_dir="out_bom", events=str(events),
        permutation=perm,
    )
    bom.write_bytes(b"\xef\xbb\xbf" + bom.read_bytes())
    runner = CliRunner()
    r = runner.invoke(main, ["validate", "--config", str(bom)])
    assert r.exit_code == 0, r.output
    for cfg in (plain, bom):
        r = runner.invoke(main, ["run", "--config", str(cfg)])
        assert r.exit_code == 0, r.output
    written = sorted(p.name for p in (tmp_path / "out").iterdir())
    assert written == sorted(p.name for p in (tmp_path / "out_bom").iterdir())
    for name in written:
        assert (tmp_path / "out_bom" / name).read_bytes() == (tmp_path / "out" / name).read_bytes()


@pytest.mark.parametrize(
    "options, message",
    [(["--length", "1"], "length must be >= 2"),
     (["--sigma-bp", "-1"], "sigma must be >= 0"),
     (["--length", "20"], "do not fit in --length 20"),
     (["--events-per-group", "400"], "2 x --events-per-group 400 windows of +-15 days"),
     (["--window", "0"], "--window must be >= 1"),
     (["--events-per-group", "0"], "--events-per-group must be >= 1"),
     (["--events-per-group", "-1"], "--events-per-group must be >= 1"),
     (["--seed", "-1"], "seed must be >= 0"),
     (["--seed", str(2**128)], "seed must be < 2**128")],
    ids=["length-1", "negative-sigma", "length-20", "400-per-group", "window-0", "0-per-group",
         "negative-per-group", "negative-seed", "seed-2**128"],
)
def test_synth_rejects_options_in_one_line(tmp_path, options, message):
    out = tmp_path / "data"
    r = CliRunner().invoke(main, ["synth", "--output", str(out), *options])
    assert r.exit_code == 1
    assert_clean_failure(r, message)
    assert not out.exists()


@pytest.mark.parametrize(
    "text, message",
    [("a: [\n", "invalid YAML: line 2: expected the node content"),
     ("a:\n\tb: 1\n", "invalid YAML: line 2: found character '\\t'"),
     ("", "config must be a mapping")],
    ids=["unclosed-list", "tab", "empty"],
)
def test_a_config_that_is_not_a_yaml_mapping_is_named(tmp_path, text, message):
    cfg = tmp_path / "study.yaml"
    cfg.write_text(text)
    r = CliRunner().invoke(main, ["validate", "--config", str(cfg)])
    assert_clean_failure(r, f"{cfg}: {message}")


def test_an_asset_path_that_is_a_directory_is_named(tmp_path, synth_data):
    folder = synth_data / "folder"
    folder.mkdir()
    assets = [{"path": str(folder), "kind": "fred", "label": "x"}]
    cfg = make_config(tmp_path, synth_data, assets=assets)
    r = CliRunner().invoke(main, ["validate", "--config", str(cfg)])
    assert_clean_failure(r, f"{folder}: Is a directory")


def _two_unlabelled_assets(data_dir):
    """The synth prices copied into d1/ and d2/, with no labels, so that both
    take the label synth_prices from their file names."""
    assets = []
    for folder in ("d1", "d2"):
        (data_dir / folder).mkdir()
        copy = data_dir / folder / "synth_prices.csv"
        copy.write_bytes((data_dir / "synth_prices.csv").read_bytes())
        assets.append({"path": str(copy), "kind": "fred"})
    return assets


@pytest.mark.parametrize(
    "assets, message",
    [
        (_two_unlabelled_assets, "assets: label 'synth_prices' is used by more than one asset"),
        ([{"label": "a/b"}], "assets: label 'a/b' must be non-empty and hold no path separator"),
        ([{"label": ""}], "assets: label '' must be non-empty"),
    ],
    ids=["duplicate", "separator", "empty"],
)
@pytest.mark.parametrize("command", ["validate", "run"])
def test_asset_labels_that_would_clash_or_nest_are_rejected(
    tmp_path, synth_data, command, assets, message
):
    if callable(assets):
        assets = assets(synth_data)
    else:
        assets = [{"path": str(synth_data / "synth_prices.csv"), **a} for a in assets]
    cfg = make_config(tmp_path, synth_data, assets=assets)
    r = CliRunner().invoke(main, [command, "--config", str(cfg)])
    assert_clean_failure(r, message)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "extra, message",
    [
        ({"estimater": "lad"}, "Error: unknown config key 'estimater'"),
        ({"permutation": {"replication": 3}}, "Error: unknown permutation key 'replication'"),
        ({"assets": [{"path": "data/synth_prices.csv", "lable": "S"}]}, "unknown asset key 'lable'"),
        ({"assets": []}, "Error: assets: expected at least one asset"),
        ({"assets": [{"path": "data/synth_prices.csv"}, {"label": "S"}]},
         "Error: assets[1]: missing key 'path'"),
    ],
    ids=["study", "permutation", "asset", "no-assets", "no-path"],
)
@pytest.mark.parametrize("command", ["validate", "run"])
def test_unknown_keys_and_an_empty_asset_list_are_rejected(
    tmp_path, synth_data, command, extra, message
):
    cfg = make_config(tmp_path, synth_data, **extra)
    r = CliRunner().invoke(main, [command, "--config", str(cfg)])
    assert_clean_failure(r, message)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["validate", "run"])
def test_a_positioning_error_names_the_asset_and_the_event(tmp_path, synth_data, command):
    prices = synth_data / "synth_prices.csv"
    lines = prices.read_text().splitlines()
    # the first event sits at price position 56, before the short asset starts
    short = synth_data / "short.csv"
    short.write_text("\n".join(lines[:1] + lines[61:]) + "\n")
    assets = [{"path": str(prices), "label": "synth"}, {"path": str(short), "label": "SHORT"}]
    cfg = make_config(tmp_path, synth_data, assets=assets)
    r = CliRunner().invoke(main, [command, "--config", str(cfg)])
    assert_clean_failure(r, "Error: SHORT: event synthetic-0: ")
    assert "precedes the first calendar date" in r.output
    assert not (tmp_path / "out").exists()


def test_run_into_an_output_dir_that_is_a_file(tmp_path, synth_data):
    (tmp_path / "out").write_text("")
    cfg = make_config(tmp_path, synth_data)
    r = CliRunner().invoke(main, ["run", "--config", str(cfg)])
    assert_clean_failure(r, f"Error: {tmp_path / 'out'}: File exists")


def test_table_out_naming_a_directory(tmp_path, synth_data):
    runner = CliRunner()
    r = runner.invoke(main, ["run", "--config", str(make_config(tmp_path, synth_data))])
    assert r.exit_code == 0, r.output
    path_csv = str(tmp_path / "out" / "synth_diff.csv")
    r = runner.invoke(main, ["table", path_csv, "--out", str(tmp_path)])
    assert_clean_failure(r, f"Error: {tmp_path}: Is a directory")


def test_synth_output_naming_a_file(tmp_path):
    target = tmp_path / "taken"
    target.write_text("")
    r = CliRunner().invoke(main, ["synth", "--output", str(target), "--events-per-group", "2"])
    assert_clean_failure(r, f"Error: {target}: File exists")


def test_a_bad_row_names_its_asset_file(tmp_path, synth_data):
    prices = synth_data / "synth_prices.csv"
    lines = prices.read_text().splitlines()
    assets = []
    for i in range(5):
        asset = synth_data / f"asset_{i}.csv"
        if i == 3:
            lines[5] = lines[5].split(",")[0] + ",nan"
        asset.write_text("\n".join(lines) + "\n")
        assets.append({"path": str(asset), "kind": "fred", "label": f"a{i}"})
    cfg = make_config(tmp_path, synth_data, assets=assets)
    r = CliRunner().invoke(main, ["validate", "--config", str(cfg)])
    assert_clean_failure(r, f"{synth_data / 'asset_3.csv'}: row 6: non-finite value 'nan'")


# Probes each CLI step in one fresh interpreter and prints, after each, which
# of the scipy subpackages that only some statistics use have been imported.
_MODULE_PROBE = """
import json, sys
HEAVY = ("scipy.optimize", "scipy.sparse", "scipy.stats", "scipy.special")
loaded = lambda: [m for m in HEAVY if m in sys.modules]
from eventyield.cli import main
seen = {"import": loaded()}
for command in json.loads(sys.argv[1]):
    main(command, standalone_mode=False)
    seen[command[0]] = loaded()
print(json.dumps(seen))
"""


def _modules_loaded_after(commands):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _MODULE_PROBE, json.dumps(commands)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_median_and_ols_runs_load_no_optional_scipy(tmp_path, synth_data):
    median = make_config(
        tmp_path, synth_data, "median.yaml", output_dir="median", estimator="median",
        permutation={"replications": 2, "statistic": "median"},
    )
    ols = make_config(
        tmp_path, synth_data, "ols.yaml", output_dir="ols",
        permutation={"replications": 2, "statistic": "ols"},
    )
    seen = _modules_loaded_after(
        [["validate", "--config", str(median)], ["run", "--config", str(median)]]
    )
    assert seen == {"import": [], "validate": [], "run": []}
    paths = [str(tmp_path / "ols" / f"synth_{suffix}.csv") for suffix in ("open", "closed", "diff")]
    seen = _modules_loaded_after([["run", "--config", str(ols)], ["table", *paths]])
    # OLS p-values come from the Cephes port in estimators, not scipy.special
    assert seen == {"import": [], "run": [], "table": []}
