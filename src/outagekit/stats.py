"""Comparison statistics: winter windows, windowed sample mean and IQR,
reconciliation error, lagged autocorrelation and weekly seasonality.

Each statistic takes one series and at most one window (``None`` meaning
the whole series).  Every series is an ``HourlySeries`` and the statistics
read its ``values_mw``; for a reconciled ``HourlyOutageSeries`` that is the
midpoint of its envelopes, and only the reconciliation error also reads the
lower envelope.  The pipeline builds each row of ``stats.csv`` in one place,
``pipeline._windowed_row``, which pools these statistics over the windows
of several evaluations.

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

from .errors import InvalidInputError, StatsError
from .ingest.reconcile import HourlyOutageSeries
from .timeseries import HOUR, HourRange, HourlySeries

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
        """Positions of the window's hours inside an hourly range."""
        try:
            first = rng.index_of(self.start)
            rng.index_of(self.span.end - HOUR)
        except InvalidInputError as exc:
            raise InvalidInputError(
                f"window {self.label} not covered by series range"
            ) from exc
        weeks = np.asarray(self.weeks, dtype=np.int64)
        return first + (weeks[:, None] * HOURS_PER_WEEK + np.arange(HOURS_PER_WEEK)).ravel()


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


def window_values(series: HourlySeries, window: WinterWindow | None) -> np.ndarray:
    """Hourly values (MW) of a series inside a window.

    ``window=None`` selects the whole series.
    """
    if window is None:
        return series.values_mw
    return series.values_mw[window.indices_in(series.range)]


def sample_stats(values: np.ndarray) -> tuple[float, float]:
    """Mean and type-7 interquartile range of an hourly sample."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise InvalidInputError("empty sample")
    q25, q75 = np.quantile(values, [0.25, 0.75])
    return float(values.mean()), float(q75 - q25)


def reconciliation_error(
    series: HourlyOutageSeries, window: WinterWindow | None = None
) -> float:
    """Relative mean absolute reconciliation error over the evaluation period.

    The l1 distance between the reconciled outage and its lower envelope,
    divided by the l1 norm of the reconciled outage; a data-quality measure
    of how much conflicting reports could move the series.  Scale-invariant;
    zero exactly when no hour has conflicting reports.
    """
    idx = slice(None) if window is None else window.indices_in(series.range)
    mean_vals = series.values_mw[idx]
    min_vals = series.o_min_mw[idx]
    denom = float(np.abs(mean_vals).sum())
    if denom == 0.0:
        raise StatsError("reconciliation error undefined: series has zero total outage")
    return float(np.abs(mean_vals - min_vals).sum() / denom)


def autocorrelation(
    series: HourlySeries,
    window: WinterWindow | None,
    lags: Sequence[int] = REPORT_LAGS_HOURS,
) -> dict[int, float]:
    """Sample autocorrelation of a series inside one window at the given lags.

    Uses the standard biased estimator with the window's own mean removed;
    lag 0 is exactly 1.  ``window=None`` takes the whole series.  Windows
    are not contiguous in time, so each is evaluated on its own; averaging
    over windows is left to the caller.
    """
    context = "full series" if window is None else f"window {window.label}"
    x = window_values(series, window)
    if x.size < 2:
        raise InvalidInputError(f"{context}: need at least 2 values for autocorrelation")
    xc = x - x.mean()
    denom = float(xc @ xc)
    if denom == 0.0:
        raise StatsError(f"{context}: zero variance, autocorrelation undefined")
    out: dict[int, float] = {}
    for lag in lags:
        if lag < 0 or lag >= x.size:
            raise InvalidInputError(f"{context}: lag {lag} outside [0, {x.size - 1}]")
        if lag == 0:
            out[0] = 1.0
        else:
            out[lag] = float(xc[:-lag] @ xc[lag:] / denom)
    return out


def weekly_profile(series: HourlySeries) -> np.ndarray:
    """Normalized mean weekly level over the year (52 values, mean 1).

    Hours are pooled by ISO week number across all covered years (week 53
    folds into week 52), averaged per week, then divided by the mean of the
    52 weekly values.
    """
    values = series.values_mw
    if values.size < 8760:
        raise InvalidInputError(
            f"series spans {values.size} hours; a weekly profile needs at least one full year"
        )
    rng = series.range
    weeks = np.fromiter(
        (min(ts.isocalendar()[1], 52) for ts in rng.hours()),
        dtype=np.int64,
        count=rng.n_hours,
    )
    sums = np.bincount(weeks - 1, weights=values, minlength=52)
    counts = np.bincount(weeks - 1, minlength=52)
    means = sums / counts
    overall = means.mean()
    if overall == 0.0:
        raise StatsError("weekly profile undefined: series is identically zero")
    return means / overall
