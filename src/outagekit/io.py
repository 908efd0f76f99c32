"""File formats for every pipeline artifact.

All CSVs are UTF-8, comma-separated, ``\\n``-terminated, with ISO-8601 UTC
timestamps, and are written with fixed float formatting so that re-running a
stage on the same inputs reproduces the file byte for byte.
"""

from __future__ import annotations

import csv
import json
from datetime import datetime
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import InvalidInputError
from .fleet import CapacityOutagePMF
from .ingest.reconcile import Channel, HourlyOutageSeries
from .stats import REPORT_LAGS_HOURS, SummaryStats
from .timeseries import HOUR, HourlySeries, format_utc, parse_utc
from .types import Fleet, Fuel, FuelParams, GeneratorUnit

ZONE_SERIES_HEADER = (
    "timestamp_utc,forced_min,forced,forced_max,"
    "planned_min,planned,planned_max,total_min,total,total_max"
)

_CHANNEL_COLUMNS = {
    Channel.FORCED: ("forced_min", "forced", "forced_max"),
    Channel.PLANNED: ("planned_min", "planned", "planned_max"),
    Channel.TOTAL: ("total_min", "total", "total_max"),
}


class RegistryRow(NamedTuple):
    """One installed unit from the production/generation unit registry."""

    zone: str
    fuel: Fuel
    capacity_mw: int


def _fuel_from_name(name: str, *, where: str) -> Fuel:
    for fuel in Fuel:
        if fuel.value == name:
            return fuel
    raise InvalidInputError(f"{where}: unknown fuel {name!r}")


def write_registry(rows: Iterable[RegistryRow], path: Path | str) -> None:
    lines = ["zone,fuel,capacity_mw"]
    lines.extend(f"{r.zone},{r.fuel.value},{r.capacity_mw}" for r in rows)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_registry(path: Path | str) -> list[RegistryRow]:
    """Read a unit registry CSV with columns zone,fuel,capacity_mw."""
    rows: list[RegistryRow] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        _require_columns(reader, ("zone", "fuel", "capacity_mw"), where=str(path))
        for lineno, rec in enumerate(reader, start=2):
            rows.append(
                RegistryRow(
                    zone=rec["zone"],
                    fuel=_fuel_from_name(rec["fuel"], where=f"{path}:{lineno}"),
                    capacity_mw=_positive_int(rec["capacity_mw"], where=f"{path}:{lineno}"),
                )
            )
    if not rows:
        raise InvalidInputError(f"{path}: registry has no rows")
    return rows


def write_fleet(fleet: Fleet, path: Path | str) -> None:
    """Write a synthesized fleet; unit ids are positional and regenerated on read."""
    lines = ["zone,fuel,capacity_mw,availability,mttr_hours"]
    lines.extend(
        f"{fleet.zone},{u.fuel.value},{u.capacity_mw},{u.availability!r},{u.mttr_hours!r}"
        for u in fleet.units
    )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_fleet(path: Path | str) -> Fleet:
    units: list[GeneratorUnit] = []
    zone = ""
    counters: dict[Fuel, int] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        _require_columns(
            reader,
            ("zone", "fuel", "capacity_mw", "availability", "mttr_hours"),
            where=str(path),
        )
        for lineno, rec in enumerate(reader, start=2):
            where = f"{path}:{lineno}"
            zone = rec["zone"]
            fuel = _fuel_from_name(rec["fuel"], where=where)
            index = counters.get(fuel, 0)
            counters[fuel] = index + 1
            unit_id = f"{zone}-{fuel.value}-{index:03d}" if zone else f"{fuel.value}-{index:03d}"
            units.append(
                GeneratorUnit(
                    id=unit_id,
                    fuel=fuel,
                    capacity_mw=_positive_int(rec["capacity_mw"], where=where),
                    availability=float(rec["availability"]),
                    mttr_hours=float(rec["mttr_hours"]),
                )
            )
    if not units:
        raise InvalidInputError(f"{path}: fleet has no units")
    return Fleet(zone=zone, units=tuple(units))


def write_pmf(pmf: CapacityOutagePMF, path: Path | str) -> None:
    """Write the full-support PMF as outage_mw,probability rows.

    Probabilities use shortest round-trip formatting, so reading the file
    back reproduces the array bit for bit.
    """
    lines = ["outage_mw,probability"]
    lines.extend(
        f"{mw},{prob!r}" for mw, prob in enumerate(pmf.probabilities.tolist())
    )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_pmf(path: Path | str) -> CapacityOutagePMF:
    probs: list[float] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        _require_columns(reader, ("outage_mw", "probability"), where=str(path))
        for lineno, rec in enumerate(reader, start=2):
            if int(rec["outage_mw"]) != len(probs):
                raise InvalidInputError(
                    f"{path}:{lineno}: PMF grid must be contiguous from 0"
                )
            probs.append(float(rec["probability"]))
    return CapacityOutagePMF(probabilities=np.asarray(probs, dtype=np.float64))


def write_zone_series(
    by_channel: Mapping[Channel, HourlyOutageSeries], path: Path | str
) -> None:
    """Write the three reconciled channels of one zone side by side, 3 decimals."""
    missing = [c.value for c in Channel if c not in by_channel]
    if missing:
        raise InvalidInputError(f"missing channels {missing} in zone series")
    ranges = {s.range for s in by_channel.values()}
    if len(ranges) != 1:
        raise InvalidInputError("zone series channels cover different periods")
    rng = next(iter(ranges))
    cols: list[np.ndarray] = []
    for channel in Channel:
        s = by_channel[channel]
        cols.extend((s.o_min_mw, s.o_mean_mw, s.o_max_mw))
    lines = [ZONE_SERIES_HEADER]
    for i, hour in enumerate(rng.hours()):
        values = ",".join(f"{col[i]:.3f}" for col in cols)
        lines.append(f"{format_utc(hour)},{values}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_zone_series(path: Path | str, *, zone: str = "") -> dict[Channel, HourlyOutageSeries]:
    stamps: list[str] = []
    data: dict[str, list[float]] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        _require_columns(reader, ZONE_SERIES_HEADER.split(","), where=str(path))
        for rec in reader:
            stamps.append(rec["timestamp_utc"])
            for name in ZONE_SERIES_HEADER.split(",")[1:]:
                data.setdefault(name, []).append(float(rec[name]))
    start = _hourly_start(stamps, path=path)
    out: dict[Channel, HourlyOutageSeries] = {}
    for channel, (lo, mid, hi) in _CHANNEL_COLUMNS.items():
        out[channel] = HourlyOutageSeries(
            subject=zone,
            channel=channel,
            start=start,
            o_min_mw=np.asarray(data[lo], dtype=np.float64),
            o_mean_mw=np.asarray(data[mid], dtype=np.float64),
            o_max_mw=np.asarray(data[hi], dtype=np.float64),
        )
    return out


def write_sim_series(
    series: HourlySeries, metadata: Mapping[str, object], path: Path | str
) -> None:
    """Write a simulated hourly outage series plus a JSON metadata sidecar.

    The sidecar (``<path>.meta.json``) records the seed, RNG name and model
    parameters needed to regenerate the series.
    """
    lines = ["timestamp_utc,outage_mw"]
    values = series.values_mw.tolist()
    lines.extend(
        f"{format_utc(hour)},{values[i]!r}" for i, hour in enumerate(series.range.hours())
    )
    target = Path(path)
    target.write_text("\n".join(lines) + "\n", encoding="utf-8")
    sidecar_for(target).write_text(
        json.dumps(dict(metadata), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def sidecar_for(path: Path | str) -> Path:
    return Path(str(path) + ".meta.json")


def read_sim_series(path: Path | str) -> tuple[HourlySeries, dict[str, object]]:
    stamps: list[str] = []
    values: list[float] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        _require_columns(reader, ("timestamp_utc", "outage_mw"), where=str(path))
        for rec in reader:
            stamps.append(rec["timestamp_utc"])
            values.append(float(rec["outage_mw"]))
    series = HourlySeries(
        start=_hourly_start(stamps, path=path), values_mw=np.asarray(values, dtype=np.float64)
    )
    sidecar = sidecar_for(path)
    metadata: dict[str, object] = {}
    if sidecar.exists():
        metadata = json.loads(sidecar.read_text(encoding="utf-8"))
    return series, metadata


class StatsRow(NamedTuple):
    """One statistics CSV row: a (zone, channel, source) combination."""

    zone: str
    channel: str
    source: str  # "empirical", "model" or "simulated"
    stats: SummaryStats


def stats_header() -> str:
    acf_cols = ",".join(f"acf_{lag}h" for lag in REPORT_LAGS_HOURS)
    return f"zone,channel,source,mean_mw,iqr_mw,recon_error,{acf_cols}"


def write_stats_csv(rows: Sequence[StatsRow], path: Path | str) -> None:
    lines = [stats_header()]
    for row in rows:
        s = row.stats
        acf = ",".join(_format_stat(s.acf.get(lag)) for lag in REPORT_LAGS_HOURS)
        lines.append(
            f"{row.zone},{row.channel},{row.source},"
            f"{_format_stat(s.mean_mw)},{_format_stat(s.iqr_mw)},"
            f"{_format_stat(s.recon_error)},{acf}"
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _format_stat(value: float | None) -> str:
    # Empty cell for statistics that do not apply to a source (e.g. the
    # reconciliation error of a model PMF).
    if value is None or (isinstance(value, float) and np.isnan(value)):
        return ""
    return repr(round(float(value), 6))


def load_fuel_params(path: Path | str) -> tuple[dict[Fuel, FuelParams], str]:
    """Load a per-fuel parameter table from JSON.

    Expected shape::

        {"version": "...", "fuels": {"CCGT": {"availability": 0.9,
                                              "mttr_hours": 50}, ...}}

    Returns the table and its version string.  Fuels missing from the file
    are absent from the table (callers decide whether that is an error).
    """
    raw = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(raw, dict) or "fuels" not in raw:
        raise InvalidInputError(f"{path}: expected an object with a 'fuels' key")
    table: dict[Fuel, FuelParams] = {}
    for name, rec in raw["fuels"].items():
        fuel = _fuel_from_name(name, where=str(path))
        try:
            table[fuel] = FuelParams(
                availability=float(rec["availability"]),
                mttr_hours=float(rec["mttr_hours"]),
            )
        except (KeyError, TypeError) as exc:
            raise InvalidInputError(
                f"{path}: fuel {name} needs availability and mttr_hours"
            ) from exc
    if not table:
        raise InvalidInputError(f"{path}: no fuels defined")
    return table, str(raw.get("version", "unversioned"))


def read_demand(path: Path | str) -> HourlySeries:
    """Read an hourly demand CSV with columns timestamp_utc,demand_mw."""
    stamps: list[str] = []
    values: list[float] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        _require_columns(reader, ("timestamp_utc", "demand_mw"), where=str(path))
        for rec in reader:
            stamps.append(rec["timestamp_utc"])
            values.append(float(rec["demand_mw"]))
    return HourlySeries(
        start=_hourly_start(stamps, path=path), values_mw=np.asarray(values, dtype=np.float64)
    )


def _hourly_start(stamps: Sequence[str], *, path: Path | str) -> datetime:
    """First timestamp of an hourly CSV, after checking every later row.

    Row k (on line k + 2, after the header) must be exactly one hour after
    row k - 1, so gaps, repeats and out-of-order rows are rejected.
    """
    if not stamps:
        raise InvalidInputError(f"{path}: series has no rows")
    start = prev = parse_utc(stamps[0])
    for lineno, text in enumerate(stamps[1:], start=3):
        ts = parse_utc(text)
        if ts - prev != HOUR:
            raise InvalidInputError(
                f"{path}:{lineno}: timestamp {text} is not one hour after the previous row"
            )
        prev = ts
    return start


def _require_columns(reader: csv.DictReader, expected: Sequence[str], *, where: str) -> None:
    have = reader.fieldnames or []
    missing = [c for c in expected if c not in have]
    if missing:
        raise InvalidInputError(f"{where}: missing columns {missing}")


def _positive_int(text: str, *, where: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise InvalidInputError(f"{where}: not an integer: {text!r}") from exc
    if value < 1:
        raise InvalidInputError(f"{where}: capacity must be positive, got {value}")
    return value
