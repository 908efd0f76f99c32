"""Reconciliation of outage reports into hourly min/mean/max series.

Reports have minute resolution, so within one hour the outage level can
change and several reports can be simultaneously in force.  At every minute
the smallest and largest stated reduction over the active reports is taken
(a minute covered by no report contributes zero to both); time-averaging
those envelopes over the hour gives the hourly minimum and maximum outage,
and the hourly outage itself is their midpoint.  With a single
non-conflicting report this midpoint reduces to the plain time-average of
the stated reduction.

The Forced and Planned channels reconcile only reports of their own kind.
The Total channel pools all reports regardless of kind, so a forced and a
planned report covering the same interval are treated as statements about
the same event and reconcile via min/max instead of summing.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from ..errors import InvalidInputError
from ..timeseries import MINUTE, HourRange
from .reports import OutageReport, ReportKind


class Channel(Enum):
    FORCED = "Forced"
    PLANNED = "Planned"
    TOTAL = "Total"


@dataclass(frozen=True)
class HourlyOutageTriple:
    """Reconciled outage for one hour: minimum, midpoint, maximum (MW)."""

    o_min_mw: float
    o_mean_mw: float
    o_max_mw: float

    def __post_init__(self) -> None:
        if not self.o_min_mw <= self.o_mean_mw <= self.o_max_mw:
            raise InvalidInputError(
                f"triple out of order: {self.o_min_mw}, {self.o_mean_mw}, {self.o_max_mw}"
            )


@dataclass(frozen=True)
class HourlyOutageSeries:
    """Hourly reconciled outages for one subject (unit or zone) and channel."""

    subject: str
    channel: Channel
    start: datetime
    o_min_mw: np.ndarray
    o_mean_mw: np.ndarray
    o_max_mw: np.ndarray

    def __post_init__(self) -> None:
        arrays = []
        for name in ("o_min_mw", "o_mean_mw", "o_max_mw"):
            a = np.asarray(getattr(self, name), dtype=np.float64)
            object.__setattr__(self, name, a)
            arrays.append(a)
        if len({a.size for a in arrays}) != 1 or arrays[0].ndim != 1 or arrays[0].size == 0:
            raise InvalidInputError("series arrays must be equal-length, non-empty, 1-D")
        object.__setattr__(self, "start", HourRange(self.start, arrays[0].size).start)

    @property
    def range(self) -> HourRange:
        return HourRange(self.start, self.n_hours)

    @property
    def n_hours(self) -> int:
        return int(self.o_mean_mw.size)

    @property
    def values_mw(self) -> np.ndarray:
        """The reconciled hourly outage: the midpoint of the envelopes."""
        return self.o_mean_mw


def _minute_envelope(
    reports: Iterable[OutageReport], period: HourRange
) -> tuple[np.ndarray, np.ndarray]:
    """Per-minute lower/upper outage envelopes over the period.

    Reports straddling the period boundary are clipped, not dropped.
    """
    m = period.n_minutes
    lo = np.full(m, np.inf)
    hi = np.zeros(m)
    covered = np.zeros(m, dtype=bool)
    t0 = period.start
    for r in reports:
        s = int((r.start - t0) / MINUTE)
        e = int((r.end - t0) / MINUTE)
        s = max(s, 0)
        e = min(e, m)
        if e <= s:
            continue
        np.minimum(lo[s:e], r.unavailable_mw, out=lo[s:e])
        np.maximum(hi[s:e], r.unavailable_mw, out=hi[s:e])
        covered[s:e] = True
    lo[~covered] = 0.0
    return lo, hi


def _reconcile(
    reports: Sequence[OutageReport], period: HourRange
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    lo, hi = _minute_envelope(reports, period)
    o_min = lo.reshape(period.n_hours, 60).mean(axis=1)
    o_max = hi.reshape(period.n_hours, 60).mean(axis=1)
    o_mean = (o_min + o_max) / 2.0
    return o_min, o_mean, o_max


def hourly_outage(reports: Sequence[OutageReport], hour: datetime) -> HourlyOutageTriple:
    """Reconciled outage triple for a single hour."""
    o_min, o_mean, o_max = _reconcile(reports, HourRange(hour, 1))
    return HourlyOutageTriple(
        o_min_mw=float(o_min[0]), o_mean_mw=float(o_mean[0]), o_max_mw=float(o_max[0])
    )


def unit_series(
    reports: Sequence[OutageReport],
    period: HourRange,
    *,
    subject: str | None = None,
) -> dict[Channel, HourlyOutageSeries]:
    """Forced, Planned and Total hourly series for one unit.

    ``reports`` must all belong to the same unit and should already be
    deduplicated and filtered.
    """
    unit_ids = {r.unit_id for r in reports}
    if len(unit_ids) > 1:
        raise InvalidInputError(f"reports span several units: {sorted(unit_ids)}")
    if subject is None:
        subject = unit_ids.pop() if unit_ids else ""

    by_channel = {
        Channel.FORCED: [r for r in reports if r.kind is ReportKind.FORCED],
        Channel.PLANNED: [r for r in reports if r.kind is ReportKind.PLANNED],
        Channel.TOTAL: list(reports),
    }
    out: dict[Channel, HourlyOutageSeries] = {}
    for channel, rs in by_channel.items():
        o_min, o_mean, o_max = _reconcile(rs, period)
        out[channel] = HourlyOutageSeries(
            subject=subject,
            channel=channel,
            start=period.start,
            o_min_mw=o_min,
            o_mean_mw=o_mean,
            o_max_mw=o_max,
        )
    return out


def zone_aggregate(
    unit_series_list: Sequence[HourlyOutageSeries], *, zone: str
) -> HourlyOutageSeries:
    """Hour-wise sum of per-unit series of one channel into a zone series.

    All inputs must share the same period and channel.  Units are summed in
    sorted-subject order and the midpoint is recomputed from the summed
    envelopes, so aggregation is independent of input order and keeps
    ``o_mean == (o_min + o_max) / 2`` exact.
    """
    if not unit_series_list:
        raise InvalidInputError("no unit series to aggregate")
    first = unit_series_list[0]
    channels = {s.channel for s in unit_series_list}
    if len(channels) != 1:
        raise InvalidInputError(f"mixed channels in aggregation: {sorted(c.value for c in channels)}")
    for s in unit_series_list:
        if s.start != first.start or s.n_hours != first.n_hours:
            raise InvalidInputError(
                f"series for {s.subject} has a different period than {first.subject}"
            )
    o_min = np.zeros(first.n_hours)
    o_max = np.zeros(first.n_hours)
    for s in sorted(unit_series_list, key=lambda s: s.subject):
        o_min += s.o_min_mw
        o_max += s.o_max_mw
    return HourlyOutageSeries(
        subject=zone,
        channel=first.channel,
        start=first.start,
        o_min_mw=o_min,
        o_mean_mw=(o_min + o_max) / 2.0,
        o_max_mw=o_max,
    )
