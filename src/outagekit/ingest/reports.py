"""Normalized outage reports plus the revision and plausibility filters."""

from __future__ import annotations

import logging
from dataclasses import dataclass
from datetime import datetime
from enum import Enum

from ..errors import InvalidInputError
from ..timeseries import ensure_utc
from ..types import Fuel, Renewable

logger = logging.getLogger(__name__)

#: Reports whose stated reduction exceeds this multiple of the unit's nominal
#: capacity are treated as implausible and dropped.  Reductions between the
#: nominal size and the threshold are kept: unit ratings are reported with
#: small inaccuracies.
OVERSIZE_FACTOR = 1.33


class ReportKind(Enum):
    FORCED = "Forced"
    PLANNED = "Planned"


class ReportStatus(Enum):
    ACTIVE = "Active"
    WITHDRAWN = "Withdrawn"


@dataclass(frozen=True)
class OutageReport:
    """One unavailability statement for one unit over one interval.

    ``unavailable_mw`` is the reduction below nominal capacity during
    [start, end).  Timestamps are UTC with minute resolution.  Revisions
    count from 1.
    """

    report_id: str
    revision: int
    unit_id: str
    fuel: Fuel | Renewable
    nominal_mw: float
    start: datetime
    end: datetime
    unavailable_mw: float
    kind: ReportKind
    status: ReportStatus

    def __post_init__(self) -> None:
        rev = self.revision
        if isinstance(rev, bool) or not isinstance(rev, int) or rev < 1:
            raise InvalidInputError(f"revision must be an integer >= 1, got {rev!r}")
        object.__setattr__(self, "start", ensure_utc(self.start))
        object.__setattr__(self, "end", ensure_utc(self.end))
        if self.end <= self.start:
            raise InvalidInputError(
                f"report {self.report_id}: end {self.end.isoformat()} not after start"
            )
        if self.unavailable_mw < 0.0:
            raise InvalidInputError(
                f"report {self.report_id}: negative unavailable_mw {self.unavailable_mw}"
            )

    @property
    def is_renewable(self) -> bool:
        return isinstance(self.fuel, Renewable)


def deduplicate(reports: list[OutageReport]) -> list[OutageReport]:
    """Collapse daily-download duplicates and superseded revisions.

    For each report_id only rows carrying the highest revision survive, and
    byte-identical rows (the same report re-downloaded on a later day)
    collapse to one.  Content is never merged across revisions.  Output order
    is canonical: (unit_id, start, end, kind, report_id).
    """
    max_rev: dict[str, int] = {}
    for r in reports:
        if r.revision > max_rev.get(r.report_id, -1):
            max_rev[r.report_id] = r.revision
    seen: set[OutageReport] = set()
    kept: list[OutageReport] = []
    for r in reports:
        if r.revision != max_rev[r.report_id] or r in seen:
            continue
        seen.add(r)
        kept.append(r)
    kept.sort(key=lambda r: (r.unit_id, r.start, r.end, r.kind.value, r.report_id))
    return kept


def filter_reports(reports: list[OutageReport]) -> list[OutageReport]:
    """Apply the withdrawn, renewable and oversize-report filters.

    Drops withdrawn reports, reports for renewable technologies, and reports
    whose reduction exceeds OVERSIZE_FACTOR times the nominal unit size.
    """
    kept: list[OutageReport] = []
    for r in reports:
        if r.status is ReportStatus.WITHDRAWN:
            continue
        if r.is_renewable:
            continue
        if r.unavailable_mw > OVERSIZE_FACTOR * r.nominal_mw:
            logger.debug(
                "dropping oversize report %s: %.1f MW on a %.1f MW unit",
                r.report_id,
                r.unavailable_mw,
                r.nominal_mw,
            )
            continue
        kept.append(r)
    return kept
