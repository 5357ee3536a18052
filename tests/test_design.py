from datetime import date, timedelta

import numpy as np
import pytest

from eventyield import (
    DesignError,
    EstimationError,
    Openness,
    StudySpec,
    build_design,
    fit_lad,
    fit_ols,
    to_returns,
)
from eventyield.design import RANK_TOL
from conftest import level_series, make_events


def design_for(n_obs, positions_a, positions_b=None, window=15):
    """Two-group (or pooled) design over a flat level series of n_obs prices."""
    s = level_series([4.0] * n_obs)
    r = to_returns(s)
    if positions_b is None:
        groups = make_events(r.calendar, positions_a)
    else:
        from eventyield import GroupAssignment

        a = make_events(r.calendar, positions_a, prefix="a")
        b = make_events(
            r.calendar, positions_b, [Openness.CLOSED] * len(positions_b), prefix="b"
        )
        groups = GroupAssignment(a, b, "A", "B")
    spec = StudySpec(window=window, groups=groups)
    return build_design(r, spec)


class TestLayout:
    def test_two_group_shape_and_columns(self):
        # W=2: each group block has 5 dummy columns, plus the constant
        dm = design_for(60, [10, 20], [14], window=2)
        assert dm.block_width == 5
        assert dm.n_cols == 2 * 5 + 1
        assert dm.constant_index == 10
        assert dm.column_index("A", -2) == 0
        assert dm.column_index("A", 0) == 2
        assert dm.column_index("B", 2) == 9
        assert np.all(dm.matrix[:, dm.constant_index] == 1.0)

    def test_rows_span_first_minus_w_to_last_plus_w(self):
        dm = design_for(60, [10, 30], window=3)
        # return calendar position 10 -3 .. 30 +3 inclusive
        assert dm.n_rows == (30 + 3) - (10 - 3) + 1

    def test_dummy_marks_relative_day(self):
        dm = design_for(60, [10], [20], window=2)
        row = 10 - (10 - 2)  # event day row
        assert dm.matrix[row, dm.column_index("A", 0)] == 1.0
        assert dm.matrix[row, dm.column_index("A", 1)] == 0.0

    def test_column_index_bounds(self):
        dm = design_for(60, [10], [20], window=2)
        with pytest.raises(DesignError):
            dm.column_index("A", 3)
        with pytest.raises(DesignError):
            dm.column_index("C", 0)


class TestOverlap:
    def test_overlapping_windows_add(self):
        # pooled events 2 apart with W=2: day between them carries
        # s=+... from the first and s=-... from the second
        dm = design_for(60, [10, 12, 40], window=2)
        row_11 = 11 - (10 - 2)
        assert dm.matrix[row_11, dm.column_index("All", 1)] == 1.0
        assert dm.matrix[row_11, dm.column_index("All", -1)] == 1.0

    def test_same_day_pooled_events_count_two(self):
        s = level_series([4.0] * 60)
        r = to_returns(s)
        from eventyield import Event, EventSet

        d = r.calendar.dates[20]
        evs = EventSet(
            (
                Event(date=d, name="m1", openness=Openness.OPEN),
                Event(date=d, name="m2", openness=Openness.CLOSED),
                # a third, distant event leaves rows between windows so the
                # constant stays identified
                Event(date=r.calendar.dates[40], name="m3", openness=Openness.OPEN),
            )
        )
        dm = build_design(r, StudySpec(window=2, groups=evs))
        row = 20 - (20 - 2)
        assert dm.matrix[row, dm.column_index("All", 0)] == 2.0


class TestValidation:
    def test_window_leaving_calendar_rejected(self):
        with pytest.raises(DesignError):
            design_for(40, [3], window=15)

    def test_unaligned_event_rejected(self):
        s = level_series([4.0] * 60)
        r = to_returns(s)
        from eventyield import Event, EventSet

        off_cal = date(2023, 1, 7)  # a Saturday
        evs = EventSet((Event(date=off_cal, name="m", openness=Openness.OPEN),))
        with pytest.raises(DesignError, match="align"):
            build_design(r, StudySpec(window=2, groups=evs))

    def test_aligned_positions_align_first(self):
        from eventyield import Event, EventSet
        from eventyield.design import aligned_positions

        cal = to_returns(level_series([4.0] * 60)).calendar
        friday = cal.dates[18]
        assert friday.weekday() == 4
        evs = EventSet((
            Event(date=friday + timedelta(days=1), name="sat", openness=Openness.OPEN),
            Event(date=friday, name="fri", openness=Openness.CLOSED),
            Event(date=cal.dates[30], name="m", openness=Openness.OPEN),
        ))
        positions = aligned_positions(evs, cal, 2)
        assert positions.tolist() == [18, 18, 30]
        with pytest.raises(DesignError, match="window leaves the calendar"):
            aligned_positions(evs, cal, 30)

    def test_empty_event_set_rejected(self):
        s = level_series([4.0] * 60)
        r = to_returns(s)
        from eventyield import EventSet

        with pytest.raises(DesignError):
            build_design(r, StudySpec(window=2, groups=EventSet(())))

    def test_empty_group_is_named(self):
        with pytest.raises(DesignError, match="group 'B' has no events"):
            design_for(60, [10, 20], [], window=2)

    @staticmethod
    def assert_fits_reject(dm):
        # build_design builds a collinear design; every fit rejects it
        for fit in (fit_ols, fit_lad):
            with pytest.raises(EstimationError, match="collinear"):
                fit(dm)

    def test_single_pooled_event_is_collinear(self):
        # with one event and no rows outside the window, the constant is a
        # linear combination of the dummies
        self.assert_fits_reject(design_for(40, [18], window=15))

    def test_constant_offset_groups_are_collinear(self):
        # every B event exactly 5 days after an A event duplicates columns
        self.assert_fits_reject(design_for(200, [30, 60, 90], [35, 65, 95], window=15))

    def test_bad_spec_parameters(self):
        s = level_series([4.0] * 60)
        r = to_returns(s)
        groups = make_events(r.calendar, [20])
        with pytest.raises(DesignError):
            StudySpec(window=0, groups=groups)
        with pytest.raises(DesignError):
            StudySpec(window=2, groups=groups, hac_lags=-1)


def test_full_rank_varied_offsets():
    dm = design_for(300, [40, 80, 120, 160], [43, 87, 131, 175], window=15)
    assert np.linalg.matrix_rank(dm.matrix, rtol=RANK_TOL) == dm.n_cols


def test_response_and_matrix_read_only():
    dm = design_for(60, [10], [20], window=2)
    with pytest.raises(ValueError):
        dm.matrix[0, 0] = 5.0
    with pytest.raises(ValueError):
        dm.response[0] = 5.0


def loop_filled_dummies(dm, positions_by_group, start):
    """The dummy columns filled one event and one relative day at a time,
    the reference for build_design's vectorised fill."""
    w = dm.window
    x = np.zeros((dm.n_rows, dm.n_cols))
    for g, pos in enumerate(positions_by_group):
        for p in pos:
            for s in range(-w, w + 1):
                x[p + s - start, dm.column_index(g, s)] += 1.0
    x[:, -1] = 1.0
    return x


def test_vectorised_fill_matches_loop():
    # overlapping windows within and across groups, a date shared across
    # groups, and two same-day events in one group
    pos_a, pos_b = [20, 23, 40, 40, 41, 70], [23, 30, 55, 90]
    dm = design_for(140, pos_a, pos_b, window=6)
    expected = loop_filled_dummies(dm, [pos_a, pos_b], start=20 - 6)
    assert np.array_equal(dm.matrix, expected)
