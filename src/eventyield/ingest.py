"""Readers and writers for the published CSV shapes: FRED yield series,
OHLC equity files, event tables, and forecast series.

All CSV text in the package goes through ``read_table`` and ``write_table``.
All parsers reject malformed rows with a diagnosed row number rather than
repairing them.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from datetime import date, datetime
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import IngestError
from .events import Event, EventSet, Openness
from .series import PriceSeries, TradingCalendar, Transform

_EPOCH = date(1970, 1, 1)

_TEXT_ATTRS = ("lab", "country")
_NUMERIC_ATTRS = ("arena_score", "frontier_gap", "agi_shift")
EVENT_COLUMNS = ("date", "model", "open") + _TEXT_ATTRS + _NUMERIC_ATTRS


@dataclass(frozen=True)
class RawTable:
    """A parsed CSV: header plus string cells, every row with header arity."""

    header: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]


def read_table(text: str) -> RawTable:
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise IngestError("empty input") from None
    header = tuple(h.strip() for h in header)
    rows = []
    for i, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue  # trailing blank line
        if len(row) != len(header):
            raise IngestError(f"expected {len(header)} cells, got {len(row)}", row=i)
        rows.append(tuple(c.strip() for c in row))
    return RawTable(header=header, rows=tuple(rows))


def write_table(header: Sequence[str], rows: Iterable[Sequence[str]]) -> str:
    """CSV text that ``read_table`` parses back to ``header`` and ``rows``:
    LF line endings, and quotes only around cells holding a comma, a quote or
    a line break."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def format_number(x: float | None) -> str:
    """The fixed float format of every written number; None is an empty cell."""
    return "" if x is None else "%.12g" % x


def _parse_date(cell: str, row: int) -> date:
    """ISO-8601 or MM/DD/YYYY."""
    for fmt in ("%Y-%m-%d", "%m/%d/%Y"):
        try:
            return datetime.strptime(cell, fmt).date()
        except ValueError:
            continue
    raise IngestError(f"unparseable date {cell!r}", row=row)


def parse_number(cell: str, row: int) -> float:
    """A finite number; anything else is an IngestError naming the row."""
    try:
        v = float(cell)
    except ValueError:
        raise IngestError(f"non-numeric value {cell!r}", row=row) from None
    if not math.isfinite(v):
        raise IngestError(f"non-finite value {cell!r}", row=row)
    return v


def _parse_price(cell: str, row: int) -> float:
    v = parse_number(cell, row)
    if v <= 0:
        raise IngestError(f"non-positive price {v}", row=row)
    return v


def _parse_day_count(cell: str, row: int) -> float:
    """A number, or a date as real days since 1970-01-01."""
    try:
        return float((_parse_date(cell, row) - _EPOCH).days)
    except IngestError:
        return parse_number(cell, row)


def _parse_series(
    table: RawTable,
    date_col: int,
    value_col: int,
    parse_value: Callable[[str, int], float],
    asset_id: str,
    transform: Transform,
    missing: str | None = None,
) -> PriceSeries:
    """One (date, value) pair per row, dates strictly increasing; rows whose
    value cell equals ``missing`` are dropped."""
    dates: list[date] = []
    values: list[float] = []
    for i, row in enumerate(table.rows, start=2):
        if row[value_col] == missing:
            continue
        d = _parse_date(row[date_col], i)
        if dates and d <= dates[-1]:
            raise IngestError(f"dates out of order or duplicated at {d}", row=i)
        dates.append(d)
        values.append(parse_value(row[value_col], i))
    if not dates:
        raise IngestError("no observations")
    return PriceSeries(
        asset_id=asset_id,
        calendar=TradingCalendar(tuple(dates)),
        values=np.array(values),
        transform=transform,
    )


def _two_columns(table: RawTable) -> RawTable:
    if len(table.header) != 2:
        raise IngestError(f"expected 2 columns, got {len(table.header)}")
    return table


def parse_fred_csv(text: str) -> PriceSeries:
    """FRED shape: a date column then one value column; '.' marks a missing
    observation and the row is dropped.  Transform is Level (yields in
    percent)."""
    table = _two_columns(read_table(text))
    return _parse_series(table, 0, 1, parse_number, table.header[1], Transform.LEVEL, missing=".")


def write_fred_csv(series: PriceSeries) -> str:
    """The FRED CSV that ``parse_fred_csv`` reads back."""
    return write_table(
        ("DATE", series.asset_id),
        ((d.isoformat(), format_number(v)) for d, v in zip(series.calendar.dates, series.values)),
    )


def parse_ohlc_csv(text: str, asset_id: str = "equity") -> PriceSeries:
    """Yahoo-style OHLC shape; consumes the ``Adj Close`` column, log
    transform."""
    table = read_table(text)
    lower = [h.lower() for h in table.header]
    if "date" not in lower:
        raise IngestError("missing Date column")
    if "adj close" not in lower:
        raise IngestError("missing Adj Close column")
    return _parse_series(
        table, lower.index("date"), lower.index("adj close"), _parse_price, asset_id, Transform.LOG
    )


def parse_event_table(text: str) -> EventSet:
    """Event CSV: mandatory date, model, open columns; the open marker is
    'x' for open-weight and empty for closed, mirroring the published list.
    Optional attribute columns: lab, country, arena_score, frontier_gap,
    agi_shift (empty cells omitted)."""
    table = read_table(text)
    lower = [h.lower() for h in table.header]
    for col in ("date", "model", "open"):
        if col not in lower:
            raise IngestError(f"missing mandatory column {col!r}")
    idx = {name: lower.index(name) for name in lower}
    events = []
    for i, row in enumerate(table.rows, start=2):
        d = _parse_date(row[idx["date"]], i)
        name = row[idx["model"]]
        marker = row[idx["open"]].lower()
        if marker == "x":
            openness = Openness.OPEN
        elif marker == "":
            openness = Openness.CLOSED
        else:
            raise IngestError(f"unknown openness token {row[idx['open']]!r}", row=i)
        attributes: dict[str, float | str] = {}
        for attr in _TEXT_ATTRS:
            if attr in idx and row[idx[attr]]:
                attributes[attr] = row[idx[attr]]
        for attr in _NUMERIC_ATTRS:
            if attr in idx and row[idx[attr]]:
                attributes[attr] = parse_number(row[idx[attr]], i)
        events.append(Event(date=d, name=name, openness=openness, attributes=attributes))
    return EventSet(tuple(events))


def write_event_csv(events: EventSet) -> str:
    """The event CSV that ``parse_event_table`` reads back, every column of
    EVENT_COLUMNS present."""
    rows = (
        [e.date.isoformat(), e.name, "x" if e.openness is Openness.OPEN else ""]
        + [str(e.attr(attr) or "") for attr in _TEXT_ATTRS]
        + [format_number(e.attr(attr)) for attr in _NUMERIC_ATTRS]
        for e in events
    )
    return write_table(EVENT_COLUMNS, rows)


def parse_forecast_series(text: str) -> PriceSeries:
    """Forecast table: date column plus median-forecast column.  Forecast
    values may be dates (converted to real days since 1970-01-01) or
    already-numeric day counts; '.' rows are dropped as in the FRED shape."""
    table = _two_columns(read_table(text))
    return _parse_series(
        table, 0, 1, _parse_day_count, table.header[1], Transform.LEVEL, missing="."
    )
