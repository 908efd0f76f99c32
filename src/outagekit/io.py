"""File formats for every pipeline artifact.

All CSVs are UTF-8, comma-separated, ``\\n``-terminated, with ISO-8601 UTC
timestamps, and are written with fixed float formatting so that re-running a
stage on the same inputs reproduces the file byte for byte.

This module is the only one that knows the formats:

- Every CSV is read by ``_read_columns``, which finds columns by header name
  and converts each cell as it streams the rows, keeping only the converted
  values.  A missing column, a row with the wrong number of cells or a cell
  its converter rejects raises ``InvalidInputError`` naming ``path:line``.
- Every artifact is written by ``write_lines`` (CSV lines) or ``write_json``
  (the simulation sidecar and the manifest).  Both write a temporary file
  next to the target and rename it over the target, so a failed or
  interrupted write leaves the old file, or none, and no temporary file.
"""

from __future__ import annotations

import csv
import itertools
import json
import os
import uuid
from datetime import datetime
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, NamedTuple, Sequence

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


class RegistryRow(NamedTuple):
    """One installed unit from the production/generation unit registry."""

    zone: str
    fuel: Fuel
    capacity_mw: int


def write_registry(rows: Iterable[RegistryRow], path: Path | str) -> None:
    lines = ["zone,fuel,capacity_mw"]
    lines.extend(f"{r.zone},{r.fuel.value},{r.capacity_mw}" for r in rows)
    write_lines(lines, path)


def read_registry(path: Path | str) -> list[RegistryRow]:
    """Read a unit registry CSV with columns zone,fuel,capacity_mw."""
    columns = _read_columns(path, {"zone": str, "fuel": Fuel, "capacity_mw": _positive_int})
    rows = list(map(RegistryRow, *columns))
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
    write_lines(lines, path)


def read_fleet(path: Path | str) -> Fleet:
    columns = _read_columns(
        path,
        {
            "zone": str,
            "fuel": Fuel,
            "capacity_mw": _positive_int,
            "availability": float,
            "mttr_hours": float,
        },
    )
    if not columns[0]:
        raise InvalidInputError(f"{path}: fleet has no units")
    units: list[GeneratorUnit] = []
    counters: dict[Fuel, int] = {}
    for zone, fuel, capacity_mw, availability, mttr_hours in zip(*columns):
        index = counters.get(fuel, 0)
        counters[fuel] = index + 1
        unit_id = f"{zone}-{fuel.value}-{index:03d}" if zone else f"{fuel.value}-{index:03d}"
        units.append(GeneratorUnit(unit_id, fuel, capacity_mw, availability, mttr_hours))
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
    write_lines(lines, path)


def read_pmf(path: Path | str) -> CapacityOutagePMF:
    grid = itertools.count()

    def next_grid_point(text: str) -> None:
        # Checked, not kept: the row position is the outage.
        if int(text) != next(grid):
            raise ValueError("PMF grid must be contiguous from 0")

    _, probs = _read_columns(path, {"outage_mw": next_grid_point, "probability": float})
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
    write_lines(lines, path)


def read_zone_series(path: Path | str, *, zone: str = "") -> dict[Channel, HourlyOutageSeries]:
    # min, mean and max of each channel, in the order write_zone_series uses
    start, columns = _read_hourly(path, *ZONE_SERIES_HEADER.split(",")[1:])
    return {
        channel: HourlyOutageSeries(zone, channel, start, *columns[3 * k : 3 * k + 3])
        for k, channel in enumerate(Channel)
    }


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
    write_lines(lines, path)
    write_json(dict(metadata), sidecar_for(path))


def sidecar_for(path: Path | str) -> Path:
    return Path(str(path) + ".meta.json")


def read_sim_series(path: Path | str) -> tuple[HourlySeries, dict[str, object]]:
    start, (values,) = _read_hourly(path, "outage_mw")
    sidecar = sidecar_for(path)
    metadata: dict[str, object] = {}
    if sidecar.exists():
        metadata = json.loads(sidecar.read_text(encoding="utf-8"))
    return HourlySeries(start=start, values_mw=values), metadata


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
    write_lines(lines, path)


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
        try:
            fuel = Fuel(name)
        except ValueError as exc:
            raise InvalidInputError(f"{path}: {exc}") from exc
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
    start, (values,) = _read_hourly(path, "demand_mw")
    return HourlySeries(start=start, values_mw=values)


def write_lines(lines: Iterable[str], path: Path | str) -> None:
    """Write each line plus ``\\n`` to ``path``, atomically.

    The lines go to a temporary file in the target's directory, which is
    renamed over the target only once every line is written.  If writing
    fails, for example because ``lines`` raises, the temporary file is
    removed and the target keeps its old contents.
    """
    target = Path(path)
    tmp = target.with_name(f".{target.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "x", encoding="utf-8", newline="") as fh:
            fh.writelines(f"{line}\n" for line in lines)
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(obj: object, path: Path | str) -> None:
    """Write ``obj`` as indented, key-sorted JSON with a trailing newline, atomically."""
    write_lines([json.dumps(obj, indent=2, sort_keys=True)], path)


def _read_columns(
    path: Path | str, converters: Mapping[str, Callable[[str], Any]]
) -> list[list[Any]]:
    """Read the named columns of a CSV, one list per column in ``converters`` order.

    Columns are found by header name, so their order in the file does not
    matter and other columns are ignored.  The rows are streamed: each cell
    is converted as it is read, in file order, and only the converted values
    are kept.  Blank lines are skipped.  A missing column, a row whose cell
    count differs from the header's, or a cell whose converter raises
    ``ValueError`` raises ``InvalidInputError`` naming ``path:line``.
    """
    columns: list[list[Any]] = [[] for _ in converters]
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        missing = [name for name in converters if name not in header]
        if missing:
            raise InvalidInputError(f"{path}: missing columns {missing}")
        cells = [
            (header.index(name), convert, column.append)
            for (name, convert), column in zip(converters.items(), columns)
        ]
        width = len(header)
        for row in reader:
            if not row:
                continue
            if len(row) != width:
                raise InvalidInputError(
                    f"{path}:{reader.line_num}: expected {width} cells, got {len(row)}"
                )
            for i, convert, append in cells:
                try:
                    append(convert(row[i]))
                except ValueError as exc:
                    raise InvalidInputError(
                        f"{path}:{reader.line_num}: {header[i]}: {exc}"
                    ) from exc
    return columns


def _read_hourly(path: Path | str, *columns: str) -> tuple[datetime, list[list[float]]]:
    """Start hour and float columns of a CSV with one row per consecutive UTC hour."""
    stamps, *values = _read_columns(
        path, {"timestamp_utc": _hourly_stamps(), **dict.fromkeys(columns, float)}
    )
    if not stamps:
        raise InvalidInputError(f"{path}: series has no rows")
    return stamps[0], values


def _hourly_stamps() -> Callable[[str], datetime]:
    """A timestamp converter that requires each row to be one hour after the last.

    Gaps, repeats and out-of-order rows are therefore rejected.
    """
    previous: datetime | None = None

    def convert(text: str) -> datetime:
        nonlocal previous
        ts = parse_utc(text)
        if previous is not None and ts - previous != HOUR:
            raise ValueError(f"timestamp {text} is not one hour after the previous row")
        previous = ts
        return ts

    return convert


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError(f"capacity must be positive, got {value}")
    return value
