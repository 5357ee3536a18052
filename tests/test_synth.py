from datetime import date

import numpy as np
import pytest

from eventyield import (
    GroupAssignment,
    Openness,
    SeriesError,
    SynthSpec,
    generate_walk,
    inject_effects,
    weekday_calendar,
)
from conftest import make_events


class TestWeekdayCalendar:
    def test_skips_weekends(self):
        cal = weekday_calendar(date(2023, 1, 2), 7)
        assert all(d.weekday() < 5 for d in cal.dates)
        # Mon 2023-01-02 .. Fri 2023-01-06 then Mon/Tue of the next week
        assert cal.dates[4] == date(2023, 1, 6)
        assert cal.dates[5] == date(2023, 1, 9)

    def test_saturday_start_rolls_forward(self):
        cal = weekday_calendar(date(2023, 1, 7), 3)
        assert cal.dates[0] == date(2023, 1, 9)


class TestGenerateWalk:
    def test_deterministic_per_seed(self):
        a = generate_walk(SynthSpec(length=100, sigma=0.01, seed=5))
        b = generate_walk(SynthSpec(length=100, sigma=0.01, seed=5))
        c = generate_walk(SynthSpec(length=100, sigma=0.01, seed=6))
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_zero_sigma_is_pure_drift(self):
        s = generate_walk(SynthSpec(length=10, sigma=0.0, drift=0.5, start_value=1.0))
        assert np.allclose(s.values, 1.0 + 0.5 * np.arange(10))

    def test_start_value_and_length(self):
        s = generate_walk(SynthSpec(length=50, sigma=0.02, start_value=3.5))
        assert s.values[0] == 3.5
        assert len(s.values) == 50

    def test_invalid_specs(self):
        with pytest.raises(SeriesError):
            SynthSpec(length=50, sigma=-1.0)
        with pytest.raises(SeriesError):
            SynthSpec(length=1, sigma=0.1)

    def test_seed_is_a_128_bit_key(self):
        generate_walk(SynthSpec(length=10, sigma=0.01, seed=2**128 - 1))
        for seed in (-1, 2**128):
            with pytest.raises(SeriesError, match="seed must be"):
                SynthSpec(length=10, sigma=0.01, seed=seed)


class TestInjectEffects:
    def test_level_step_applied_to_event_day_return(self):
        s = generate_walk(SynthSpec(length=60, sigma=0.0, start_value=2.0))
        events = make_events(s.calendar, [20])
        out = inject_effects(s, events, {"All": {0: 0.10}})
        # return on the event day jumps by 0.10; all later levels shift
        assert out.values[19] == pytest.approx(2.0)
        assert np.allclose(out.values[20:], 2.10)

    def test_two_group_profile(self):
        s = generate_walk(SynthSpec(length=120, sigma=0.0))
        a = make_events(s.calendar, [30], prefix="a")
        b = make_events(s.calendar, [80], [Openness.CLOSED], prefix="b")
        g = GroupAssignment(a, b, "Open", "Closed")
        out = inject_effects(s, g, {"Open": {0: 0.10}, "Closed": {0: -0.10}})
        assert out.values[30] - out.values[29] == pytest.approx(0.10)
        assert out.values[80] - out.values[79] == pytest.approx(-0.10)

    def test_overlapping_injections_add(self):
        s = generate_walk(SynthSpec(length=60, sigma=0.0, start_value=1.0))
        events = make_events(s.calendar, [20, 21])
        out = inject_effects(s, events, {"All": {0: 0.05, 1: 0.02}})
        # day 21 carries s=1 of the first event and s=0 of the second
        assert out.values[21] - out.values[20] == pytest.approx(0.07)

    def test_injection_outside_series_rejected(self):
        s = generate_walk(SynthSpec(length=30, sigma=0.0))
        events = make_events(s.calendar, [29])
        with pytest.raises(SeriesError):
            inject_effects(s, events, {"All": {1: 0.1}})

    def test_original_series_untouched(self):
        s = generate_walk(SynthSpec(length=60, sigma=0.0, start_value=2.0))
        events = make_events(s.calendar, [20])
        inject_effects(s, events, {"All": {0: 0.10}})
        assert np.allclose(s.values, 2.0)
