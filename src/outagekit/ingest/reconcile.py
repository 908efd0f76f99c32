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

The minute grid is built only over the hours that some report covers at
least one minute of.  Every other hour has empty envelopes, so it is zero
without building a grid for it: a unit with one two-day outage in a winter
costs two days of minutes, not the winter.
"""

from __future__ import annotations

from bisect import bisect_right
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


def _clipped_minutes(
    reports: Iterable[OutageReport], period: HourRange
) -> list[tuple[int, int, float]]:
    """``(start, end, MW)`` minute offsets of each report into the period.

    Reports straddling the period boundary are clipped, not dropped; reports
    covering no whole minute of the period are left out.
    """
    t0, m = period.start, period.n_minutes
    spans = []
    for r in reports:
        s = max(int((r.start - t0) / MINUTE), 0)
        e = min(int((r.end - t0) / MINUTE), m)
        if s < e:
            spans.append((s, e, r.unavailable_mw))
    return spans


def _pack_touched_hours(
    spans: list[tuple[int, int, float]],
) -> tuple[list[tuple[int, int, float]], np.ndarray]:
    """Move the spans onto a grid of only the hours they touch.

    The touched hours form maximal runs of consecutive hours; the runs are
    laid end to end, and each span moves with its run by a whole number of
    hours.  Returns the moved spans, in their original order, and for each
    hour of the packed grid the period hour it stands for.  No span reaches
    into another run and minute-of-hour positions are kept, so every packed
    hour sees the same spans, in the same order, as on the full grid, and
    its 60-minute mean is bit-for-bit the same.
    """
    runs: list[list[int]] = []
    for h0, h1 in sorted((s // 60, -(-e // 60)) for s, e, _ in spans):
        if runs and h0 <= runs[-1][1]:
            runs[-1][1] = max(runs[-1][1], h1)
        else:
            runs.append([h0, h1])
    starts: list[int] = []
    shifts: list[int] = []
    hours: list[int] = []
    for h0, h1 in runs:
        starts.append(h0)
        shifts.append((h0 - len(hours)) * 60)
        hours.extend(range(h0, h1))
    moved = []
    for s, e, mw in spans:
        shift = shifts[bisect_right(starts, s // 60) - 1]
        moved.append((s - shift, e - shift, mw))
    return moved, np.array(hours)


def _minute_envelope(
    spans: Iterable[tuple[int, int, float]], n_minutes: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-minute lower/upper outage envelopes over minutes ``[0, n_minutes)``.

    A minute covered by no span is zero in both envelopes.
    """
    lo = np.full(n_minutes, np.inf)
    hi = np.zeros(n_minutes)
    covered = np.zeros(n_minutes, dtype=bool)
    for s, e, mw in spans:
        np.minimum(lo[s:e], mw, out=lo[s:e])
        np.maximum(hi[s:e], mw, out=hi[s:e])
        covered[s:e] = True
    lo[~covered] = 0.0
    return lo, hi


def _reconcile(
    reports: Sequence[OutageReport], period: HourRange
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Hourly minimum, midpoint and maximum outage over the period.

    Only the hours some report touches go through the minute grid; the
    envelopes of every other hour are zero.
    """
    o_min = np.zeros(period.n_hours)
    o_max = np.zeros(period.n_hours)
    spans = _clipped_minutes(reports, period)
    if spans:
        packed, hours = _pack_touched_hours(spans)
        lo, hi = _minute_envelope(packed, hours.size * 60)
        o_min[hours] = lo.reshape(hours.size, 60).mean(axis=1)
        o_max[hours] = hi.reshape(hours.size, 60).mean(axis=1)
    o_mean = (o_min + o_max) / 2.0
    return o_min, o_mean, o_max


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
