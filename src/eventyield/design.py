"""Regression sample and design matrix with window-day fixed effects.

Overlapping windows are handled additively: a row's entry in column
(group, s) counts the events of that group whose relative day s falls on
the row's date, so shared days load on every window they belong to.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date
from typing import Sequence

import numpy as np

from .errors import DesignError
from .events import EventSet, GroupAssignment, align_events, labelled_groups
from .series import ReturnSeries, TradingCalendar

# Singular values below RANK_TOL x largest are treated as zero.
RANK_TOL = 1e-10


@dataclass(frozen=True)
class StudySpec:
    """Event-study settings: window half-width W, event groups (one pooled
    set or a two-group assignment), and HAC lag length."""

    window: int
    groups: GroupAssignment | EventSet
    hac_lags: int = 30

    def __post_init__(self):
        if self.window < 1:
            raise DesignError("window must be >= 1")
        if self.hac_lags < 0:
            raise DesignError("hac_lags must be >= 0")


@dataclass(frozen=True)
class DesignMatrix:
    """Rows are daily returns from W positions before the first event to W
    after the last; columns are per-group relative-day counts in blocks
    [g0: -W..+W][g1: -W..+W] followed by a constant column of ones."""

    row_dates: tuple[date, ...]
    response: np.ndarray
    matrix: np.ndarray
    window: int
    group_labels: tuple[str, ...]

    def __post_init__(self):
        for name in ("response", "matrix"):
            a = np.asarray(getattr(self, name), dtype=float)
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @property
    def n_rows(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_cols(self) -> int:
        return self.matrix.shape[1]

    @property
    def block_width(self) -> int:
        return 2 * self.window + 1

    def group_index(self, group: str) -> int:
        try:
            return self.group_labels.index(group)
        except ValueError:
            raise DesignError(f"unknown group {group!r}; have {self.group_labels}") from None

    def column_index(self, group: str | int, s: int) -> int:
        """Stable column position of the (group, relative day s) dummy."""
        if not -self.window <= s <= self.window:
            raise DesignError(f"relative day {s} outside [-{self.window}, {self.window}]")
        g = group if isinstance(group, int) else self.group_index(group)
        if not 0 <= g < len(self.group_labels):
            raise DesignError(f"group index {g} out of range")
        return g * self.block_width + (s + self.window)

    @property
    def constant_index(self) -> int:
        return len(self.group_labels) * self.block_width


def build_design(returns: ReturnSeries, spec: StudySpec) -> DesignMatrix:
    """Build the window-day fixed-effect design over ``returns``.

    Every event's full +-W window must lie inside the return calendar;
    rows between event windows are retained (they identify the constant).
    A perfectly collinear design is built as it is; the fit rejects it.
    """
    groups = labelled_groups(spec.groups)
    positions = [event_positions(events, returns.calendar, spec.window) for _, events in groups]
    return design_at(returns, spec.window, positions, tuple(label for label, _ in groups))


def design_at(returns: ReturnSeries, w: int, positions: Sequence, labels: tuple) -> DesignMatrix:
    """The design of ``build_design`` from event positions on the return
    calendar, one sequence per group named in ``labels``; every +-w window
    must lie inside the calendar."""
    for label, pos in zip(labels, positions):
        if len(pos) == 0:
            raise DesignError(f"group {label!r} has no events")
    all_pos = np.concatenate(positions)
    start = int(all_pos.min()) - w
    end = int(all_pos.max()) + w
    n_rows = end - start + 1
    width = 2 * w + 1
    n_cols = len(positions) * width + 1
    offsets = np.arange(-w, w + 1)
    x = np.zeros((n_rows, n_cols))
    for g, pos in enumerate(positions):
        rows = np.asarray(pos)[:, None] + offsets - start
        np.add.at(x, (rows, g * width + w + offsets), 1.0)
    x[:, -1] = 1.0

    return DesignMatrix(
        row_dates=returns.calendar.dates[start : end + 1],
        response=returns.returns[start : end + 1],
        matrix=x,
        window=w,
        group_labels=labels,
    )


def event_positions(events: EventSet, calendar: TradingCalendar, w: int) -> list[int]:
    """Calendar positions of ``events``, whose dates must be calendar dates
    (see ``align_events``) and whose +-w windows must lie inside the
    calendar."""
    positions = []
    for e in events:
        if e.date not in calendar:
            raise DesignError(f"event {e.name} date {e.date} not on the calendar; align first")
        p = calendar.position(e.date)
        if p - w < 0 or p + w >= len(calendar):
            raise DesignError(f"event {e.name} on {e.date}: +-{w} day window leaves the calendar")
        positions.append(p)
    return positions


def aligned_positions(events: EventSet, calendar: TradingCalendar, w: int) -> np.ndarray:
    """Calendar positions of ``events`` once each date is aligned onto the
    calendar; every +-w window must lie inside it."""
    return np.asarray(event_positions(align_events(events, calendar), calendar, w))
