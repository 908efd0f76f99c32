"""Reconciliation of outage reports into hourly min/mean/max series.

Reports have minute resolution, so within one hour the outage level can
change and several reports can be simultaneously in force.  At every minute
the smallest and largest stated reduction over the active reports is taken
(a minute covered by no report contributes zero to both); time-averaging
those envelopes over the hour gives the hourly minimum and maximum outage
(``o_min_mw``, ``o_max_mw``), and the hourly outage itself (``values_mw``)
is their midpoint.  With a single non-conflicting report this midpoint
reduces to the plain time-average of the stated reduction.  A zone's series
sums its units' envelopes and takes the midpoint of the sums.  It adds the
units in the order given and holds one unit's series at a time; the caller
sorts the units (the pipeline by unit id), which fixes the float order and so
the bytes.

The Forced and Planned channels reconcile only reports of their own kind.
The Total channel pools all reports regardless of kind, so a forced and a
planned report covering the same interval are treated as statements about
the same event and reconcile via min/max instead of summing.

The minute grid is built only over the hours that some report covers at
least one minute of.  Every other hour has empty envelopes, so it is zero
without building a grid for it: a unit with one two-day outage in a winter
costs two days of minutes, not the winter.  One bool mask over the period's
hours marks the touched hours, and the grid lays them end to end.  Every
hour a span covers is touched, so its hours stay consecutive on the grid
and the whole span moves left by one whole number of hours.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, Sequence

import numpy as np

from ..errors import InvalidInputError
from ..timeseries import MINUTE, HourlySeries, HourRange
from .reports import OutageReport, ReportKind


class Channel(Enum):
    FORCED = "Forced"
    PLANNED = "Planned"
    TOTAL = "Total"


@dataclass(frozen=True)
class HourlyOutageSeries(HourlySeries):
    """Hourly reconciled outages: ``values_mw`` is the midpoint of the
    ``o_min_mw`` and ``o_max_mw`` envelopes."""

    o_min_mw: np.ndarray
    o_max_mw: np.ndarray

    def __post_init__(self) -> None:
        super().__post_init__()
        for name in ("o_min_mw", "o_max_mw"):
            a = np.asarray(getattr(self, name), dtype=np.float64)
            if a.shape != self.values_mw.shape:
                raise InvalidInputError(
                    f"{name} has shape {a.shape}, values_mw has {self.values_mw.shape}"
                )
            object.__setattr__(self, name, a)


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


def _reconcile(reports: Sequence[OutageReport], period: HourRange) -> HourlyOutageSeries:
    """Hourly minimum, midpoint and maximum outage over the period.

    Only the hours some report touches go through the minute grid; the
    envelopes of every other hour are zero.  A span whose first hour ``h``
    is grid slot ``k`` moves left by ``60 * (h - k)``.  Its later hours are
    touched too, so they follow ``h`` on the grid without a gap: every grid
    hour sees the same spans, in the same order and at the same minutes, as
    on the full grid, and its 60-minute mean is bit-for-bit the same.
    """
    o_min = np.zeros(period.n_hours)
    o_max = np.zeros(period.n_hours)
    spans = _clipped_minutes(reports, period)
    if spans:
        touched = np.zeros(period.n_hours, dtype=bool)
        for s, e, _ in spans:
            touched[s // 60 : -(-e // 60)] = True
        hours = np.flatnonzero(touched)
        first = np.array([s // 60 for s, _, _ in spans])
        shifts = (60 * (first - np.searchsorted(hours, first))).tolist()
        packed = [(s - d, e - d, mw) for (s, e, mw), d in zip(spans, shifts)]
        lo, hi = _minute_envelope(packed, hours.size * 60)
        o_min[hours] = lo.reshape(hours.size, 60).mean(axis=1)
        o_max[hours] = hi.reshape(hours.size, 60).mean(axis=1)
    return HourlyOutageSeries(period.start, (o_min + o_max) / 2.0, o_min, o_max)


def unit_series(
    reports: Sequence[OutageReport], period: HourRange
) -> dict[Channel, HourlyOutageSeries]:
    """Forced, Planned and Total hourly series for one unit.

    ``reports`` must all belong to the same unit and should already be
    deduplicated and filtered.
    """
    unit_ids = {r.unit_id for r in reports}
    if len(unit_ids) > 1:
        raise InvalidInputError(f"reports span several units: {sorted(unit_ids)}")
    by_channel = {
        Channel.FORCED: [r for r in reports if r.kind is ReportKind.FORCED],
        Channel.PLANNED: [r for r in reports if r.kind is ReportKind.PLANNED],
        Channel.TOTAL: list(reports),
    }
    return {channel: _reconcile(rs, period) for channel, rs in by_channel.items()}


def zone_aggregate(
    units: Iterable[Mapping[Channel, HourlyOutageSeries]], period: HourRange
) -> dict[Channel, HourlyOutageSeries]:
    """Hour-wise sum of per-unit ``unit_series(...)`` results into the zone's channels.

    Every unit series must cover ``period``.  Each unit's envelopes are added
    to the channel sums, which start from zeros, as the unit arrives, and
    the unit is then dropped: fed a generator, only one unit's series is
    held at a time.  The sums follow the order given, so the caller sorts
    the units (float addition is not associative).  The midpoint is
    recomputed from the sums, which keeps
    ``values_mw == (o_min_mw + o_max_mw) / 2`` exact.  No units gives
    all-zero series.
    """
    sums = {c: (np.zeros(period.n_hours), np.zeros(period.n_hours)) for c in Channel}
    for series in units:
        for channel, (o_min, o_max) in sums.items():
            s = series[channel]
            if s.range != period:
                raise InvalidInputError(
                    f"a unit series covers {s.n_hours} h from "
                    f"{s.start.isoformat()}, not the period {period.n_hours} h from "
                    f"{period.start.isoformat()}"
                )
            o_min += s.o_min_mw
            o_max += s.o_max_mw
        # free this unit before the iterable builds the next (an enumerate
        # or zip around ``units`` would hold it until then)
        del series, s
    return {
        c: HourlyOutageSeries(period.start, (o_min + o_max) / 2.0, o_min, o_max)
        for c, (o_min, o_max) in sums.items()
    }
