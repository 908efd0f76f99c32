"""Comparison statistics: winter windows, windowed sample mean and IQR,
reconciliation error, lagged autocorrelation and weekly seasonality.

A window is a ``WinterWindow`` or an explicit period's ``HourRange``; its
``indices_in`` gives its positions in a series' range and raises unless the
series covers them.  The statistics take the window's samples of a series'
``values_mw`` (for a reconciled series, the midpoint of its envelopes) and,
for the reconciliation error only, of its lower envelope.  The pipeline
builds each row of ``stats.csv`` in one place, ``pipeline._windowed_row``,
which pools these statistics over the windows of several evaluations.

Empirical quantiles here use linear-interpolation (type-7) quantiles on the
hourly sample, which is the convention for continuous samples; discrete
outage PMFs in fleet.pmf_stats use the inverse-CDF convention instead.  The
two are deliberately documented side by side.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date, datetime, timedelta, timezone
from typing import Sequence

import numpy as np

from .errors import InvalidInputError, StatsError, where
from .timeseries import HourRange, HourlySeries

#: Table-style report lags: one hour, six hours, one day, one week.
REPORT_LAGS_HOURS = (1, 6, 24, 168)

HOURS_PER_WEEK = 168
WEEKS_IN_WINDOW = 20


@dataclass(frozen=True)
class WinterWindow:
    """The retained hours of one winter season, as whole 7-day blocks.

    ``weeks`` holds the increasing indices of the retained blocks, counted
    from ``start``.  A season's window keeps twenty blocks from the first
    Sunday of November minus the two blocks containing Dec 25 and Jan 1
    (the low-demand weeks around Christmas), leaving exactly 3024 hours.
    """

    label: str
    start: datetime
    weeks: tuple[int, ...]

    @property
    def n_hours(self) -> int:
        return len(self.weeks) * HOURS_PER_WEEK

    @property
    def span(self) -> HourRange:
        """Contiguous range covering the window including the excluded weeks."""
        return HourRange(self.start, (self.weeks[-1] + 1) * HOURS_PER_WEEK)

    def indices_in(self, rng: HourRange) -> np.ndarray:
        """Positions of the window's hours inside ``rng``; raises unless ``rng`` covers them."""
        with where(f"window {self.label}"):
            span = self.span.indices_in(rng)
        return span.reshape(-1, HOURS_PER_WEEK)[list(self.weeks)].ravel()


def first_sunday_of_november(year: int) -> date:
    d = date(year, 11, 1)
    return d + timedelta(days=(6 - d.weekday()) % 7)


def winter_window(winter_start_year: int) -> WinterWindow:
    """Winter window for the season starting in ``winter_start_year``."""
    if not 2000 <= winter_start_year <= 2099:
        raise InvalidInputError(f"unsupported winter start year {winter_start_year}")
    start_day = first_sunday_of_november(winter_start_year)
    start = datetime(start_day.year, start_day.month, start_day.day, tzinfo=timezone.utc)

    def block_of(d: date) -> int:
        return (d - start_day).days // 7

    excluded = {
        block_of(date(winter_start_year, 12, 25)),
        block_of(date(winter_start_year + 1, 1, 1)),
    }
    weeks = tuple(week for week in range(WEEKS_IN_WINDOW) if week not in excluded)
    label = f"{winter_start_year % 100:02d}/{(winter_start_year + 1) % 100:02d}"
    return WinterWindow(label=label, start=start, weeks=weeks)


def season_label_to_year(label: str) -> int:
    """Winter start year for a season label such as '16/17'."""
    try:
        first, second = label.split("/")
        if len(first) != 2 or len(second) != 2 or not (first + second).isdigit():
            raise ValueError
        year = 2000 + int(first)
        if int(second) != (year + 1) % 100:
            raise ValueError
    except ValueError:
        raise InvalidInputError(f"bad season label {label!r}; expected e.g. '16/17'") from None
    return year


def window_values(series: HourlySeries, window: WinterWindow | HourRange) -> np.ndarray:
    """Hourly values (MW) of a series inside a window; raises unless the series covers it."""
    return series.values_mw[window.indices_in(series.range)]


def sample_stats(values: np.ndarray) -> tuple[float, float]:
    """Mean and type-7 interquartile range of an hourly sample."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise InvalidInputError("empty sample")
    q25, q75 = np.quantile(values, [0.25, 0.75])
    return float(values.mean()), float(q75 - q25)


def reconciliation_error(values: np.ndarray, lower: np.ndarray) -> float:
    """Relative mean absolute reconciliation error of one window's sample.

    The l1 distance between the reconciled outage ``values`` and its lower
    envelope ``lower`` over the same hours, divided by the l1 norm of
    ``values``; a data-quality measure of how much conflicting reports
    could move the series.  Scale-invariant; zero exactly when no hour has
    conflicting reports.
    """
    denom = float(np.abs(values).sum())
    if denom == 0.0:
        raise StatsError("reconciliation error undefined: series has zero total outage")
    return float(np.abs(values - lower).sum() / denom)


def autocorrelation(values: np.ndarray, lags: Sequence[int]) -> dict[int, float]:
    """Sample autocorrelation of one window's hourly sample at the given lags.

    Uses the standard biased estimator with the sample's own mean removed;
    lag 0 is exactly 1.  Windows are not contiguous in time, so each is
    evaluated on its own; averaging over windows is left to the caller.
    """
    if values.size < 2:
        raise InvalidInputError("need at least 2 values for autocorrelation")
    xc = values - values.mean()
    denom = float(xc @ xc)
    if denom == 0.0:
        raise StatsError("zero variance, autocorrelation undefined")
    out: dict[int, float] = {}
    for lag in lags:
        if lag < 0 or lag >= values.size:
            raise InvalidInputError(f"lag {lag} outside [0, {values.size - 1}]")
        if lag == 0:
            out[0] = 1.0
        else:
            out[lag] = float(xc[:-lag] @ xc[lag:] / denom)
    return out


def weekly_profile(series: HourlySeries) -> np.ndarray:
    """Normalized mean weekly level over the year (52 values, mean 1).

    Hours are pooled by ISO week number across all covered years (week 53
    folds into week 52), averaged per week, then divided by the mean of the
    52 weekly values.  Every hour of a UTC day has that day's ISO week, so
    the week is looked up once per day.
    """
    values = series.values_mw
    if values.size < 8760:
        raise InvalidInputError(
            f"series spans {values.size} hours; a weekly profile needs at least one full year"
        )
    first_day, hour0 = series.start.date(), series.start.hour
    n_days = -(-(hour0 + values.size) // 24)
    day_weeks = np.fromiter(
        ((first_day + timedelta(days=d)).isocalendar()[1] for d in range(n_days)),
        dtype=np.int64,
        count=n_days,
    )
    weeks = np.minimum(np.repeat(day_weeks, 24)[hour0 : hour0 + values.size], 52)
    sums = np.bincount(weeks - 1, weights=values, minlength=52)
    counts = np.bincount(weeks - 1, minlength=52)
    means = sums / counts
    overall = means.mean()
    if overall == 0.0:
        raise StatsError("weekly profile undefined: series is identically zero")
    return means / overall
