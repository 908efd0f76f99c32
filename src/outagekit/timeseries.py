"""Hourly time-series containers and UTC hour-grid helpers.

All timestamps in the toolkit are timezone-aware UTC.  Series are stored as
a start hour plus a dense array with a fixed one-hour step, so positions map
to timestamps by integer arithmetic and there are never 23/25-hour days.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timedelta, timezone

import numpy as np

from .errors import InvalidInputError

HOUR = timedelta(hours=1)
MINUTE = timedelta(minutes=1)


def ensure_utc(ts: datetime) -> datetime:
    """Normalize a timestamp to tz-aware UTC; naive input is rejected."""
    if ts.tzinfo is None:
        raise InvalidInputError(f"naive timestamp {ts.isoformat()}; expected tz-aware")
    return ts.astimezone(timezone.utc)


def ensure_hour_aligned(ts: datetime) -> datetime:
    ts = ensure_utc(ts)
    if ts.minute or ts.second or ts.microsecond:
        raise InvalidInputError(f"timestamp {ts.isoformat()} is not hour-aligned")
    return ts


def format_utc(ts: datetime) -> str:
    """ISO-8601 with a Z suffix, e.g. 2016-11-06T00:00:00Z."""
    return ensure_utc(ts).strftime("%Y-%m-%dT%H:%M:%SZ")


def parse_utc(text: str) -> datetime:
    """Parse an ISO-8601 timestamp (Z or explicit offset; date-only allowed)."""
    try:
        raw = text.strip()  # AttributeError: not a string
        ts = datetime.fromisoformat(raw[:-1] + "+00:00" if raw.endswith("Z") else raw)
    except (AttributeError, ValueError) as exc:
        raise InvalidInputError(f"cannot parse timestamp {text!r}") from exc
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    return ts.astimezone(timezone.utc)


@dataclass(frozen=True)
class HourRange:
    """A contiguous range of UTC hours: [start, start + n_hours)."""

    start: datetime
    n_hours: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "start", ensure_hour_aligned(self.start))
        if isinstance(self.n_hours, bool) or not isinstance(self.n_hours, int) or self.n_hours < 1:
            raise InvalidInputError(f"n_hours must be an integer >= 1, got {self.n_hours!r}")

    @property
    def end(self) -> datetime:
        return self.start + self.n_hours * HOUR

    @property
    def n_minutes(self) -> int:
        return self.n_hours * 60

    def indices_in(self, rng: HourRange) -> np.ndarray:
        """Positions of this range's hours inside ``rng``; raises unless ``rng`` covers them."""
        first = (self.start - rng.start) // HOUR
        if first < 0 or first + self.n_hours > rng.n_hours:
            raise InvalidInputError(
                f"hours {format_utc(self.start)}+{self.n_hours}h not covered by series "
                f"range {format_utc(rng.start)}+{rng.n_hours}h"
            )
        return np.arange(first, first + self.n_hours)


@dataclass(frozen=True)
class HourlySeries:
    """Dense hourly values (MW) starting at a UTC hour.

    Used for simulated outage series and for externally supplied series such
    as demand.
    """

    start: datetime
    values_mw: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "start", ensure_hour_aligned(self.start))
        v = np.asarray(self.values_mw, dtype=np.float64)
        if v.ndim != 1 or v.size == 0:
            raise InvalidInputError("values_mw must be a non-empty 1-D array")
        object.__setattr__(self, "values_mw", v)

    @property
    def n_hours(self) -> int:
        return int(self.values_mw.size)

    @property
    def range(self) -> HourRange:
        return HourRange(start=self.start, n_hours=self.n_hours)
