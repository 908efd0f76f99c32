"""Empirical outage-report ingestion: parsing, filtering, reconciliation."""

from .reports import (
    OutageReport,
    ReportKind,
    ReportStatus,
    OVERSIZE_FACTOR,
    deduplicate,
    filter_reports,
)
from .xmlparse import parse_document
from .reconcile import (
    Channel,
    HourlyOutageSeries,
    unit_series,
    zone_aggregate,
)

__all__ = [
    "OutageReport",
    "ReportKind",
    "ReportStatus",
    "OVERSIZE_FACTOR",
    "deduplicate",
    "filter_reports",
    "parse_document",
    "Channel",
    "HourlyOutageSeries",
    "unit_series",
    "zone_aggregate",
]
