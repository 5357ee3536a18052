import math
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eventyield import (
    CalendarError,
    PriceSeries,
    SeriesError,
    TradingCalendar,
    Transform,
    align_event_date,
    to_returns,
    weekday_calendar,
)
from conftest import level_series, log_series


class TestTradingCalendar:
    def test_rejects_empty(self):
        with pytest.raises(CalendarError):
            TradingCalendar(())

    def test_rejects_duplicates_and_disorder(self):
        d = date(2023, 1, 2)
        with pytest.raises(CalendarError):
            TradingCalendar((d, d))
        with pytest.raises(CalendarError):
            TradingCalendar((d + timedelta(days=1), d))

    def test_position_lookup(self, weekday_cal):
        assert weekday_cal.position(weekday_cal.dates[7]) == 7
        with pytest.raises(CalendarError):
            weekday_cal.position(date(1999, 1, 1))


class TestToReturns:
    def test_level_differences(self):
        s = level_series([2.00, 2.05, 2.03])
        r = to_returns(s)
        assert np.allclose(r.returns, [0.05, -0.02])
        assert r.calendar.dates == s.calendar.dates[1:]

    def test_log_identity_case(self):
        r = to_returns(log_series([100, 100]))
        assert r.returns[0] == 0.0

    def test_log_hand_computed(self):
        r = to_returns(log_series([100, 110, 99]))
        assert np.allclose(r.returns, [math.log(1.10), math.log(0.90)], atol=1e-15)

    def test_short_series_rejected(self):
        with pytest.raises(SeriesError):
            to_returns(level_series([2.0]))

    def test_log_requires_positive_values(self):
        with pytest.raises(SeriesError):
            log_series([100, -1, 99])

    @given(
        st.lists(st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=2, max_size=40)
    )
    def test_cumsum_roundtrip(self, values):
        s = level_series(values)
        r = to_returns(s)
        rebuilt = s.values[0] + np.cumsum(r.returns)
        assert np.max(np.abs(rebuilt - s.values[1:])) <= 1e-12


class TestAlignEventDate:
    def test_calendar_date_is_fixed_point(self, weekday_cal):
        d = weekday_cal.dates[10]
        assert align_event_date(weekday_cal, d) == d

    def test_saturday_release_maps_to_friday(self):
        # 2025-04-05 is a Saturday (a real weekend release date)
        cal = weekday_calendar(date(2025, 3, 3), 40)
        assert date(2025, 4, 5).weekday() == 5
        assert align_event_date(cal, date(2025, 4, 5)) == date(2025, 4, 4)

    def test_holiday_gap_maps_to_thursday(self):
        # Friday missing from the data: Sunday aligns back to Thursday
        dates = (date(2023, 1, 2), date(2023, 1, 3), date(2023, 1, 4), date(2023, 1, 5))
        cal = TradingCalendar(dates)
        assert align_event_date(cal, date(2023, 1, 8)) == date(2023, 1, 5)

    def test_before_start_rejected(self, weekday_cal):
        with pytest.raises(CalendarError):
            align_event_date(weekday_cal, date(2022, 12, 30))

    @given(st.integers(min_value=0, max_value=120))
    def test_idempotent(self, offset):
        cal = weekday_calendar(date(2023, 1, 2), 80)
        d = date(2023, 1, 2) + timedelta(days=offset)
        a = align_event_date(cal, d)
        assert align_event_date(cal, a) == a


def test_price_series_length_mismatch(weekday_cal):
    with pytest.raises(SeriesError):
        PriceSeries("x", weekday_cal, np.ones(3), Transform.LEVEL)


def test_series_values_immutable():
    s = level_series([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        s.values[0] = 9.0
