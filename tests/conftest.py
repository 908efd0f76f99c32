from __future__ import annotations

import csv
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import Iterable

import pytest

from outagekit.ingest import OutageReport, ReportKind, ReportStatus
from outagekit.io import RegistryRow, write_lines
from outagekit.types import Fleet, Fuel, GeneratorUnit

T0 = datetime(2030, 1, 7, 0, 0, tzinfo=timezone.utc)


def make_unit(
    uid: str = "u1",
    capacity_mw: int = 100,
    availability: float = 0.9,
    mttr_hours: float = 50.0,
    fuel: Fuel = Fuel.CCGT,
) -> GeneratorUnit:
    return GeneratorUnit(
        id=uid,
        fuel=fuel,
        capacity_mw=capacity_mw,
        availability=availability,
        mttr_hours=mttr_hours,
    )


def make_report(
    report_id: str = "r1",
    revision: int = 1,
    unit_id: str = "u1",
    nominal_mw: float = 400.0,
    start_h: float = 0.0,
    end_h: float = 1.0,
    unavailable_mw: float = 100.0,
    kind: ReportKind = ReportKind.FORCED,
    status: ReportStatus = ReportStatus.ACTIVE,
    fuel=Fuel.CCGT,
) -> OutageReport:
    """Report builder with hour offsets relative to the shared T0 origin."""
    return OutageReport(
        report_id=report_id,
        revision=revision,
        unit_id=unit_id,
        fuel=fuel,
        nominal_mw=nominal_mw,
        start=T0 + timedelta(hours=start_h),
        end=T0 + timedelta(hours=end_h),
        unavailable_mw=unavailable_mw,
        kind=kind,
        status=status,
    )


def write_registry(rows: Iterable[RegistryRow], path: Path | str) -> None:
    """Write a unit registry CSV in the layout ``io.read_registry`` reads."""
    lines = ["zone,fuel,capacity_mw"]
    lines.extend(f"{r.zone},{r.fuel.value},{r.capacity_mw}" for r in rows)
    write_lines(lines, path)


def utc_hours(start: datetime, n_hours: int) -> list[datetime]:
    """The ``n_hours`` hours from ``start``, one ``datetime`` each, for per-hour oracles."""
    return [start + k * timedelta(hours=1) for k in range(n_hours)]


def write_year_series(path: Path, start: datetime, cell: str) -> None:
    """Write an 8760-hour zone series CSV with every channel cell set to ``cell``."""
    header = (
        "timestamp_utc,forced_min,forced,forced_max,"
        "planned_min,planned,planned_max,total_min,total,total_max"
    )
    cells = ",".join([cell] * 9)
    lines = [header]
    lines.extend(
        f"{(start + timedelta(hours=k)).strftime('%Y-%m-%dT%H:%M:%SZ')},{cells}"
        for k in range(8760)
    )
    write_lines(lines, path)


#: each way an input file can fail to be read, and the error its reading raises
READ_FAULTS = {
    "missing": FileNotFoundError,
    "directory": IsADirectoryError,
    "not_utf8": UnicodeDecodeError,
    "oversized_field": csv.Error,
}


def break_file(path: Path, valid: bytes, fault: str) -> None:
    """Replace ``path`` by the ``fault`` form (a ``READ_FAULTS`` key) of the file ``valid``."""
    path.unlink(missing_ok=True)
    if fault == "directory":
        path.mkdir()
    elif fault == "not_utf8":
        path.write_bytes(b"\xff\xfe" + valid)
    elif fault == "oversized_field":
        # one quoted cell over the csv module's default field limit of 128 KiB
        path.write_bytes(valid + b'"' + b"x" * 200_000 + b'"\n')


def capacity_by_fuel(fleet: Fleet) -> dict[Fuel, int]:
    """Installed capacity of each fuel in a fleet, in MW."""
    totals: dict[Fuel, int] = {}
    for u in fleet.units:
        totals[u.fuel] = totals.get(u.fuel, 0) + u.capacity_mw
    return totals


@pytest.fixture(scope="session")
def corpus(tmp_path_factory) -> dict:
    """Synthetic two-zone corpus built once per session.

    Returns the config path plus the parsed config, ready for pipeline runs.
    """
    import corpusgen

    from outagekit.pipeline import PipelineConfig

    root = tmp_path_factory.mktemp("corpus")
    config_path = corpusgen.build_corpus(root)
    return {
        "root": root,
        "config_path": config_path,
        "config": PipelineConfig.from_file(config_path),
    }
