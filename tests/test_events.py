from datetime import date

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from eventyield import (
    Event,
    EventError,
    EventSet,
    GroupAssignment,
    Openness,
    align_events,
    parse_event_table,
    split_by_country,
    split_by_median,
    split_by_openness,
    split_by_sign,
    weekday_calendar,
)
from eventyield.events import labelled_groups


def ev(d, name, openness=Openness.CLOSED, **attrs):
    return Event(date=d, name=name, openness=openness, attributes=attrs)


class TestEventSet:
    def test_sorts_by_date(self):
        a = ev(date(2024, 3, 1), "b")
        b = ev(date(2023, 3, 1), "a")
        es = EventSet((a, b))
        assert es.dates() == [date(2023, 3, 1), date(2024, 3, 1)]

    def test_same_date_different_models_allowed(self):
        d = date(2023, 3, 14)
        es = EventSet((ev(d, "m1"), ev(d, "m2")))
        assert len(es) == 2

    def test_duplicate_date_name_rejected(self):
        d = date(2023, 3, 14)
        with pytest.raises(EventError):
            EventSet((ev(d, "m"), ev(d, "m")))

    def test_filter_years(self, releases_csv):
        es = parse_event_table(releases_csv)
        assert len(es) == 47
        # year counts in the release list: 2022:1, 2023:12, 2024:21, 2025:13
        assert len(es.filter_years(2023, 2024)) == 33
        assert len(es.filter_years(2022, 2022)) == 1
        assert len(es.filter_years(2025, 2025)) == 13
        assert len(es.filter_years(2022, 2025)) == 47


class TestSplits:
    def test_openness_counts_on_release_list(self, releases_csv):
        es = parse_event_table(releases_csv)
        g = split_by_openness(es)
        assert (len(g.group_a), len(g.group_b)) == (23, 24)
        assert (g.label_a, g.label_b) == ("Open", "Closed")
        assert all(e.openness is Openness.OPEN for e in g.group_a)

    def test_overlap_rejected(self):
        e = ev(date(2023, 1, 2), "m")
        with pytest.raises(EventError):
            GroupAssignment(EventSet((e,)), EventSet((e,)), "A", "B")

    def test_median_split_ties_go_low(self):
        evs = EventSet(
            tuple(
                ev(date(2023, 1, 2 + i), f"m{i}", arena_score=s)
                for i, s in enumerate([1.0, 2.0, 2.0, 3.0, 9.0])
            )
        )
        g = split_by_median(evs, "arena_score")
        # median is 2.0; ties at the median fall in group B
        assert sorted(e.attr("arena_score") for e in g.group_a) == [3.0, 9.0]
        assert sorted(e.attr("arena_score") for e in g.group_b) == [1.0, 2.0, 2.0]

    def test_median_split_excludes_unvalued(self):
        evs = EventSet(
            (
                ev(date(2023, 1, 2), "a", arena_score=1.0),
                ev(date(2023, 1, 3), "b"),
                ev(date(2023, 1, 4), "c", arena_score=3.0),
            )
        )
        g = split_by_median(evs, "arena_score")
        assert len(g.group_a) + len(g.group_b) == 2

    def test_median_split_needs_two(self):
        with pytest.raises(EventError):
            split_by_median(EventSet((ev(date(2023, 1, 2), "a", arena_score=1.0),)), "arena_score")

    def test_sign_split_zero_goes_later(self):
        evs = EventSet(
            (
                ev(date(2023, 1, 2), "a", agi_shift=-30.0),
                ev(date(2023, 1, 3), "b", agi_shift=0.0),
                ev(date(2023, 1, 4), "c", agi_shift=12.0),
            )
        )
        g = split_by_sign(evs, "agi_shift")
        assert [e.name for e in g.group_a] == ["a"]
        assert [e.name for e in g.group_b] == ["b", "c"]

    def test_country_split(self):
        evs = EventSet(
            (
                ev(date(2023, 1, 2), "a", country="US"),
                ev(date(2023, 1, 3), "b", country="CN"),
                ev(date(2023, 1, 4), "c"),
            )
        )
        g = split_by_country(evs, "CN")
        assert [e.name for e in g.group_a] == ["b"]
        assert [e.name for e in g.group_b] == ["a"]

    @given(st.floats(min_value=1e-3, max_value=1e3), st.floats(-5, 5))
    def test_median_split_monotone_invariance(self, scale, shift):
        scores = [1.0, 2.0, 3.5, 4.0, 7.0, 8.0]
        base = EventSet(
            tuple(ev(date(2023, 1, 2 + i), f"m{i}", arena_score=s) for i, s in enumerate(scores))
        )
        mapped = EventSet(
            tuple(
                ev(date(2023, 1, 2 + i), f"m{i}", arena_score=scale * s + shift)
                for i, s in enumerate(scores)
            )
        )
        g0 = split_by_median(base, "arena_score")
        g1 = split_by_median(mapped, "arena_score")
        assert [e.name for e in g0.group_a] == [e.name for e in g1.group_a]


class TestAlignEvents:
    def test_weekend_dates_move_back(self):
        cal = weekday_calendar(date(2025, 3, 3), 40)
        evs = EventSet((ev(date(2025, 4, 5), "llama4", Openness.OPEN),))
        aligned = align_events(evs, cal)
        assert aligned.events[0].date == date(2025, 4, 4)
        assert aligned.events[0].name == "llama4"

    def test_idempotent(self, weekday_cal):
        evs = EventSet((ev(date(2023, 1, 7), "m"),))
        once = align_events(evs, weekday_cal)
        assert align_events(once, weekday_cal).dates() == once.dates()


class TestLabelledGroups:
    def test_split_gives_both_groups_in_order(self):
        es = EventSet((ev(date(2023, 1, 2), "o", Openness.OPEN), ev(date(2023, 1, 3), "c")))
        groups = split_by_openness(es)
        assert labelled_groups(groups) == [
            ("Open", groups.group_a),
            ("Closed", groups.group_b),
        ]

    def test_pooled_set_is_one_group_all(self):
        es = EventSet((ev(date(2023, 1, 2), "a"),))
        assert labelled_groups(es) == [("All", es)]
