"""Event sets, group splits, and alignment to a trading calendar."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from datetime import date
from enum import Enum
from statistics import median
from typing import Mapping

from .errors import CalendarError, EventError
from .series import align_event_date


class Openness(Enum):
    OPEN = "open"
    CLOSED = "closed"


@dataclass(frozen=True)
class Event:
    """A dated release with a group label and optional attributes
    (arena_score, frontier_gap, country, agi_shift, lab, ...)."""

    date: date
    name: str
    openness: Openness
    attributes: Mapping[str, float | str] = field(default_factory=dict)

    def attr(self, key: str):
        return self.attributes.get(key)


@dataclass(frozen=True)
class EventSet:
    """Events sorted by date.  Duplicate dates across different models are
    allowed; duplicate (date, name) pairs are not."""

    events: tuple[Event, ...]

    def __post_init__(self):
        evs = tuple(sorted(self.events, key=lambda e: e.date))
        seen = set()
        for e in evs:
            key = (e.date, e.name)
            if key in seen:
                raise EventError(f"duplicate event {e.name} on {e.date}")
            seen.add(key)
        object.__setattr__(self, "events", evs)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def dates(self) -> list[date]:
        return [e.date for e in self.events]

    def filter_years(self, first: int, last: int) -> "EventSet":
        return EventSet(tuple(e for e in self.events if first <= e.date.year <= last))


@dataclass(frozen=True)
class GroupAssignment:
    """Two disjoint event groups with display labels."""

    group_a: EventSet
    group_b: EventSet
    label_a: str
    label_b: str

    def __post_init__(self):
        keys_a = {(e.date, e.name) for e in self.group_a}
        keys_b = {(e.date, e.name) for e in self.group_b}
        if keys_a & keys_b:
            raise EventError("an event appears in both groups")


def labelled_groups(groups: GroupAssignment | EventSet) -> list[tuple[str, EventSet]]:
    """(label, events) per group: the two groups of a split in order, or a
    pooled set as the one group "All"."""
    if isinstance(groups, GroupAssignment):
        return [(groups.label_a, groups.group_a), (groups.label_b, groups.group_b)]
    return [("All", groups)]


def split_by_openness(events: EventSet) -> GroupAssignment:
    """Group A = open-weight releases, group B = closed releases."""
    a = EventSet(tuple(e for e in events if e.openness is Openness.OPEN))
    b = EventSet(tuple(e for e in events if e.openness is Openness.CLOSED))
    return GroupAssignment(a, b, "Open", "Closed")


def _valued(events: EventSet, attribute: str) -> list[tuple[Event, float]]:
    out = []
    for e in events:
        v = e.attr(attribute)
        if v is None:
            continue
        try:
            out.append((e, float(v)))
        except (TypeError, ValueError):
            raise EventError(f"attribute {attribute!r} is not numeric on {e.name}")
    return out


def split_by_median(events: EventSet, attribute: str) -> GroupAssignment:
    """Split on whether the attribute lies strictly above the median of the
    valued events; ties go to the lower group.  Events lacking the attribute
    are excluded."""
    valued = _valued(events, attribute)
    if len(valued) < 2:
        raise EventError(f"need at least 2 events with attribute {attribute!r}")
    m = median(v for _, v in valued)
    a = EventSet(tuple(e for e, v in valued if v > m))
    b = EventSet(tuple(e for e, v in valued if v <= m))
    return GroupAssignment(a, b, f"{attribute} above median", f"{attribute} at/below median")


def split_by_sign(events: EventSet, attribute: str) -> GroupAssignment:
    """Split on the sign of a numeric attribute: negative values (forecast
    moved sooner) vs non-negative (later; zero shifts assigned here)."""
    valued = _valued(events, attribute)
    if not valued:
        raise EventError(f"attribute {attribute!r} missing everywhere")
    a = EventSet(tuple(e for e, v in valued if v < 0))
    b = EventSet(tuple(e for e, v in valued if v >= 0))
    return GroupAssignment(a, b, f"{attribute} sooner", f"{attribute} later")


def split_by_country(events: EventSet, pivot: str) -> GroupAssignment:
    """String-equality split on the country attribute against a pivot value;
    events lacking the attribute are excluded."""
    with_country = [e for e in events if e.attr("country") is not None]
    if not with_country:
        raise EventError("attribute 'country' missing everywhere")
    a = EventSet(tuple(e for e in with_country if e.attr("country") == pivot))
    b = EventSet(tuple(e for e in with_country if e.attr("country") != pivot))
    return GroupAssignment(a, b, pivot, f"non-{pivot}")


def align_events(events: EventSet, calendar) -> EventSet:
    """Replace each event date with its nearest business day on or before,
    per the given calendar; a date before the calendar is a CalendarError
    naming the event."""
    aligned = []
    for e in events:
        try:
            d = align_event_date(calendar, e.date)
        except CalendarError as exc:
            raise CalendarError(f"event {e.name}: {exc}") from None
        aligned.append(replace(e, date=d))
    return EventSet(tuple(aligned))
