from datetime import date

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from eventyield import (
    Event,
    EventSet,
    IngestError,
    Openness,
    PriceSeries,
    TradingCalendar,
    Transform,
    parse_event_table,
    parse_forecast_series,
    parse_fred_csv,
    parse_ohlc_csv,
    read_table,
    write_event_csv,
    write_fred_csv,
    write_table,
)

FRED = """DATE,DGS30
2023-01-03,3.88
2023-01-04,3.81
2023-01-05,.
2023-01-06,3.85
"""

OHLC = """Date,Open,High,Low,Close,Adj Close,Volume
2023-01-03,130.28,130.90,124.17,125.07,124.22,112117500
2023-01-04,126.89,128.66,125.08,126.36,125.50,89113600
"""


class TestReadTable:
    def test_header_and_rows(self):
        t = read_table("a,b\n1,2\n3,4\n")
        assert t.header == ("a", "b")
        assert t.rows == (("1", "2"), ("3", "4"))

    def test_trailing_blank_line_ignored(self):
        t = read_table("a,b\n1,2\n\n")
        assert len(t.rows) == 1

    def test_arity_mismatch_reports_row(self):
        with pytest.raises(IngestError) as exc:
            read_table("a,b\n1,2\n1,2,3\n")
        assert exc.value.row == 3

    def test_empty_input(self):
        with pytest.raises(IngestError):
            read_table("")

    def test_write_table_quotes_only_when_needed(self):
        text = write_table(("a", "b"), [("1", ""), ("x,y", 'say "hi"'), ("two\nlines", "c")])
        assert text == 'a,b\n1,\n"x,y","say ""hi"""\n"two\nlines",c\n'
        assert read_table(text).rows == (("1", ""), ("x,y", 'say "hi"'), ("two\nlines", "c"))


class TestParseFred:
    def test_basic(self):
        s = parse_fred_csv(FRED)
        assert s.asset_id == "DGS30"
        assert s.transform is Transform.LEVEL
        # the '.' row on Jan 5 is dropped, not treated as a value
        assert s.calendar.dates == (date(2023, 1, 3), date(2023, 1, 4), date(2023, 1, 6))
        assert np.allclose(s.values, [3.88, 3.81, 3.85])

    def test_wrong_column_count(self):
        with pytest.raises(IngestError):
            parse_fred_csv("DATE,A,B\n2023-01-03,1,2\n")

    def test_non_numeric_value(self):
        with pytest.raises(IngestError) as exc:
            parse_fred_csv("DATE,DGS30\n2023-01-03,abc\n")
        assert exc.value.row == 2

    def test_out_of_order_dates(self):
        with pytest.raises(IngestError):
            parse_fred_csv("DATE,DGS30\n2023-01-04,3.8\n2023-01-03,3.9\n")

    def test_all_missing(self):
        with pytest.raises(IngestError):
            parse_fred_csv("DATE,DGS30\n2023-01-03,.\n")

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_value(self, cell):
        with pytest.raises(IngestError, match="non-finite") as exc:
            parse_fred_csv(f"DATE,DGS30\n2023-01-03,3.8\n2023-01-04,{cell}\n")
        assert exc.value.row == 3


class TestParseOhlc:
    def test_adj_close_selected(self):
        s = parse_ohlc_csv(OHLC, asset_id="TSLA")
        assert s.asset_id == "TSLA"
        assert s.transform is Transform.LOG
        assert np.allclose(s.values, [124.22, 125.50])

    def test_header_case_insensitive(self):
        text = OHLC.replace("Adj Close", "ADJ CLOSE").replace("Date,", "DATE,")
        assert np.allclose(parse_ohlc_csv(text).values, [124.22, 125.50])

    def test_missing_adj_close(self):
        with pytest.raises(IngestError):
            parse_ohlc_csv("Date,Close\n2023-01-03,125.07\n")

    def test_non_positive_price(self):
        bad = "Date,Adj Close\n2023-01-03,0.0\n"
        with pytest.raises(IngestError) as exc:
            parse_ohlc_csv(bad)
        assert exc.value.row == 2

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_non_finite_price(self, cell):
        text = OHLC.replace("125.50", cell)
        with pytest.raises(IngestError, match="non-finite") as exc:
            parse_ohlc_csv(text)
        assert exc.value.row == 3

    def test_missing_marker_is_not_a_price(self):
        with pytest.raises(IngestError, match="non-numeric") as exc:
            parse_ohlc_csv(OHLC.replace("125.50", "."))
        assert exc.value.row == 3

    def test_out_of_order_dates_name_the_row(self):
        text = OHLC.replace("2023-01-04", "2023-01-02")
        with pytest.raises(IngestError, match="out of order") as exc:
            parse_ohlc_csv(text)
        assert exc.value.row == 3


class TestParseEventTable:
    def test_release_list_fixture(self, releases_csv):
        es = parse_event_table(releases_csv)
        assert len(es) == 47
        assert es.events[0].name == "OpenAI GPT 3.5"
        assert es.events[0].date == date(2022, 11, 30)
        assert es.events[0].openness is Openness.CLOSED
        assert es.events[-1].date == date(2025, 8, 7)
        # two releases share 2023-03-14
        assert sum(1 for e in es if e.date == date(2023, 3, 14)) == 2
        assert sum(1 for e in es if e.openness is Openness.OPEN) == 23

    def test_marker_semantics(self):
        es = parse_event_table("date,model,open\n2023-01-02,a,x\n2023-01-03,b,\n")
        assert es.events[0].openness is Openness.OPEN
        assert es.events[1].openness is Openness.CLOSED

    def test_unknown_marker_rejected(self):
        with pytest.raises(IngestError) as exc:
            parse_event_table("date,model,open\n2023-01-02,a,yes\n")
        assert exc.value.row == 2

    def test_missing_mandatory_column(self):
        with pytest.raises(IngestError):
            parse_event_table("date,model\n2023-01-02,a\n")

    def test_optional_attributes(self):
        text = (
            "date,model,open,lab,country,arena_score,agi_shift\n"
            "2023-01-02,a,x,Meta,US,1205.5,-30\n"
            "2023-01-03,b,,OpenAI,US,,\n"
        )
        es = parse_event_table(text)
        a, b = es.events
        assert a.attr("arena_score") == 1205.5
        assert a.attr("agi_shift") == -30.0
        assert a.attr("lab") == "Meta"
        assert b.attr("arena_score") is None

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_non_finite_attribute(self, cell):
        text = f"date,model,open,arena_score\n2023-01-02,a,x,1200\n2023-01-03,b,,{cell}\n"
        with pytest.raises(IngestError, match="non-finite") as exc:
            parse_event_table(text)
        assert exc.value.row == 3

    def test_iso_and_us_dates_both_accepted(self):
        es = parse_event_table("date,model,open\n11/30/2022,a,\n2023-01-03,b,\n")
        assert es.events[0].date == date(2022, 11, 30)


class TestParseForecast:
    def test_date_values_become_epoch_days(self):
        text = "date,agi_median\n2023-01-03,2040-01-01\n2023-01-04,2039-06-01\n"
        s = parse_forecast_series(text)
        d0 = (date(2040, 1, 1) - date(1970, 1, 1)).days
        d1 = (date(2039, 6, 1) - date(1970, 1, 1)).days
        assert np.allclose(s.values, [d0, d1])
        # the forecast moving earlier shows up as a drop
        assert s.values[1] < s.values[0]

    def test_numeric_values_pass_through(self):
        s = parse_forecast_series("date,v\n2023-01-03,25000\n2023-01-04,24990.5\n")
        assert np.allclose(s.values, [25000.0, 24990.5])

    def test_constant_series_has_zero_changes(self):
        s = parse_forecast_series("date,v\n2023-01-03,2040-01-01\n2023-01-04,2040-01-01\n")
        assert s.values[1] - s.values[0] == 0.0

    def test_missing_marker_dropped(self):
        s = parse_forecast_series("date,v\n2023-01-03,.\n2023-01-04,100\n")
        assert len(s.values) == 1

    def test_non_finite_value(self):
        with pytest.raises(IngestError, match="non-finite") as exc:
            parse_forecast_series("date,v\n2023-01-03,100\n2023-01-04,nan\n")
        assert exc.value.row == 3


# Cells survive read_table's stripping only without surrounding whitespace,
# and files are read with universal newlines, which turn a bare CR into LF.
_text = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="\r"), min_size=1
).filter(lambda t: t == t.strip())
_finite = st.floats(allow_nan=False, allow_infinity=False)


def _g(x) -> str | None:
    return None if x is None else "%.12g" % x


@st.composite
def _event(draw) -> Event:
    texts = {k: draw(st.none() | _text) for k in ("lab", "country")}
    numbers = {k: draw(st.none() | _finite) for k in ("arena_score", "frontier_gap", "agi_shift")}
    return Event(
        date=draw(st.dates()),
        name=draw(_text),
        openness=draw(st.sampled_from(Openness)),
        attributes={k: v for k, v in {**texts, **numbers}.items() if v is not None},
    )


class TestWriterRoundTrips:
    @given(st.lists(_event(), max_size=8, unique_by=lambda e: (e.date, e.name)))
    def test_event_csv(self, events):
        es = EventSet(tuple(events))
        back = parse_event_table(write_event_csv(es))
        assert len(back) == len(es)
        for a, b in zip(es, back):
            assert (b.date, b.name, b.openness) == (a.date, a.name, a.openness)
            for attr in ("lab", "country"):
                assert b.attr(attr) == a.attr(attr)
            for attr in ("arena_score", "frontier_gap", "agi_shift"):
                assert _g(b.attr(attr)) == _g(a.attr(attr))

    @given(_text, st.lists(st.tuples(st.dates(), _finite), min_size=1, max_size=20,
                           unique_by=lambda dv: dv[0]))
    def test_fred_csv(self, series_id, observations):
        observations.sort()
        s = PriceSeries(
            asset_id=series_id,
            calendar=TradingCalendar(tuple(d for d, _ in observations)),
            values=np.array([v for _, v in observations]),
        )
        back = parse_fred_csv(write_fred_csv(s))
        assert back.asset_id == series_id
        assert back.calendar.dates == s.calendar.dates
        assert [_g(v) for v in back.values] == [_g(v) for v in s.values]
