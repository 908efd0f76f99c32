"""File formats for every pipeline artifact.

All CSVs are UTF-8, comma-separated, ``\\n``-terminated, with ISO-8601 UTC
timestamps, and are written with fixed float formatting so that re-running a
stage on the same inputs reproduces the file byte for byte.

This module is the only one that knows the formats:

- An hourly CSV in the exact layout ``_write_rows`` writes (the writer's
  header, its stamps, one ``np.loadtxt`` parse of the numbers) is read in
  bulk by ``_bulk_read``.  The bulk parse refuses anything it is not sure
  of, and every refused file goes to ``_read_columns``.
- ``_read_columns`` reads every other CSV (among them the PMF export, which
  the pipeline never reads back), and is the fallback and the oracle of the
  bulk parse: it finds columns by header name and converts each cell as it
  streams the rows.  A missing or repeated column raises
  ``InvalidInputError`` naming the file, and a row with the wrong number of
  cells or a cell its converter rejects one naming ``path:line``.
- ``_write_rows`` is the one row formatter of every array-backed CSV (the
  series, the PMF and the plot files): one ``%`` format per row, and one
  ``np.datetime_as_string`` call for all the hourly stamps.
- Every artifact is written by ``write_lines`` (CSV lines) or ``write_json``
  (the simulation sidecar and the manifest), and every fetch-cache page by
  ``write_bytes``, all through ``_replacing``: it makes the target's directory
  and renames a temporary file over the target, so a failed or interrupted
  write leaves the old file, or none, and no temporary file.  A failed write
  is ``InvalidInputError`` naming the target, never the temporary file.
"""

from __future__ import annotations

import csv
import itertools
import json
import os
import uuid
import warnings
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from datetime import datetime
from pathlib import Path
from typing import IO, Any, Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import InvalidInputError, where
from .fleet import CapacityOutagePMF, unit_id
from .ingest.reconcile import Channel, HourlyOutageSeries
from .stats import REPORT_LAGS_HOURS
from .timeseries import HOUR, HourlySeries, ensure_hour_aligned, format_utc, parse_utc
from .types import Fleet, Fuel, FuelParams, GeneratorUnit

ZONE_SERIES_HEADER = (
    "timestamp_utc,forced_min,forced,forced_max,"
    "planned_min,planned,planned_max,total_min,total,total_max"
)
PMF_HEADER = "outage_mw,probability"

class RegistryRow(NamedTuple):
    """One installed unit from the production/generation unit registry."""

    zone: str
    fuel: Fuel
    capacity_mw: int


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


def read_fleet(path: Path | str, *, zone: str) -> Fleet:
    """Read the fleet CSV of ``zone``; every row must name that zone."""
    columns = _read_columns(
        path,
        {
            "zone": _same_zone(zone),
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
    for fuel, capacity_mw, availability, mttr_hours in zip(*columns[1:]):
        index = counters.get(fuel, 0)
        counters[fuel] = index + 1
        uid = unit_id(zone, fuel, index)
        with where(f"{path}: unit {uid}"):
            units.append(GeneratorUnit(uid, fuel, capacity_mw, availability, mttr_hours))
    return Fleet(zone=zone, units=tuple(units))


def write_pmf(pmf: CapacityOutagePMF, path: Path | str) -> None:
    """Write the full-support PMF as outage_mw,probability rows.

    Probabilities use shortest round-trip formatting, so reading the file
    back reproduces the array bit for bit.
    """
    probs = pmf.probabilities
    _write_rows(PMF_HEADER, "%d,%r", [np.arange(probs.size), probs], path)


def read_pmf(path: Path | str) -> CapacityOutagePMF:
    """Read a PMF CSV; its outage_mw column must be the grid 0, 1, 2, ..."""
    grid = itertools.count()

    def next_grid_point(text: str) -> None:
        # Checked, not kept: the row position is the outage.
        if int(text) != next(grid):
            raise ValueError("PMF grid must be contiguous from 0")

    _, probs = _read_columns(path, {"outage_mw": next_grid_point, "probability": float})
    with where(path):
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
    cols: list[np.ndarray] = []
    for channel in Channel:
        s = by_channel[channel]
        cols.extend((s.o_min_mw, s.values_mw, s.o_max_mw))
    start = ranges.pop().start
    _write_rows(ZONE_SERIES_HEADER, ",".join(["%.3f"] * len(cols)), cols, path, start=start)


def read_zone_series(path: Path | str) -> dict[Channel, HourlyOutageSeries]:
    """Read the three channels of a zone series CSV.

    Every hour must hold min <= mean <= max in each channel, as
    reconciliation produces it; ``_read_hourly`` has already refused a NaN.
    """
    # min, mean and max of each channel, in the order write_zone_series uses
    start, columns = _read_hourly(path, *ZONE_SERIES_HEADER.split(",")[1:])
    by_channel = {}
    for channel, (lo, mid, hi) in zip(Channel, zip(*[iter(columns)] * 3)):
        ok = (lo <= mid) & (mid <= hi)
        _check_hours(path, start, ok, f"{channel.value}: min <= mean <= max fails")
        by_channel[channel] = HourlyOutageSeries(start, mid, lo, hi)
    return by_channel


def write_sim_series(
    series: HourlySeries, metadata: Mapping[str, object], path: Path | str
) -> None:
    """Write a simulated hourly outage series plus a JSON metadata sidecar.

    The sidecar (``<path>.meta.json``) records the seed, RNG name and model
    parameters needed to regenerate the series.
    """
    _write_rows("timestamp_utc,outage_mw", "%r", [series.values_mw], path, start=series.start)
    write_json(dict(metadata), sidecar_for(path))


def sidecar_for(path: Path | str) -> Path:
    return Path(str(path) + ".meta.json")


def read_sim_series(path: Path | str) -> tuple[HourlySeries, dict[str, object]]:
    start, (values,) = _read_hourly(path, "outage_mw")
    sidecar = sidecar_for(path)
    metadata: dict[str, object] = {}
    if sidecar.exists():
        metadata = read_json(sidecar)
        if not isinstance(metadata, dict):
            raise InvalidInputError(f"{sidecar}: expected a JSON object")
    return HourlySeries(start=start, values_mw=values), metadata


def write_histogram(
    bins_gw: np.ndarray, freq_total: np.ndarray, freq_forced: np.ndarray,
    model_prob: np.ndarray, path: Path | str,
) -> None:
    """Write each outage bin's lower edge in GW, its empirical frequencies and model mass."""
    columns = [bins_gw, freq_total, freq_forced, model_prob]
    _write_rows("bin_gw,freq_total,freq_forced,model_prob", "%.3f,%r,%r,%r", columns, path)


def write_seasonal(outage: np.ndarray, demand: np.ndarray | None, path: Path | str) -> None:
    """Write the weekly outage profile, and the demand profile if given, by week from 1."""
    profiles = [outage] if demand is None else [outage, demand]
    header = "week,outage" if demand is None else "week,outage,demand"
    weeks = np.arange(1, outage.size + 1)
    _write_rows(header, "%d" + ",%r" * len(profiles), [weeks, *profiles], path)


def write_timeseries_plot(
    empirical_mw: np.ndarray, sims: Sequence[np.ndarray], start: datetime, path: Path | str
) -> None:
    """Write the empirical hourly series (3 decimals) next to whole-MW simulated draws."""
    header = "timestamp_utc,empirical_mw" + "".join(f",sim{k}_mw" for k in range(1, len(sims) + 1))
    _write_rows(header, "%.3f" + ",%.0f" * len(sims), [empirical_mw, *sims], path, start=start)


@dataclass(frozen=True)
class StatsRow:
    """One statistics CSV row: the statistics of a (zone, channel, source) series.

    ``recon_error`` is None, and ``acf`` lacks a lag, where it is undefined or
    does not apply: a model PMF has no reconciliation envelope and no time axis.
    """

    zone: str
    channel: str
    source: str  # "empirical", "model" or "simulated"
    mean_mw: float
    iqr_mw: float
    recon_error: float | None = None
    acf: dict[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.iqr_mw < 0.0:
            raise InvalidInputError(f"IQR must be >= 0, got {self.iqr_mw}")
        if self.recon_error is not None and self.recon_error < 0.0:
            raise InvalidInputError(f"reconciliation error must be >= 0, got {self.recon_error}")


def stats_header() -> str:
    acf_cols = ",".join(f"acf_{lag}h" for lag in REPORT_LAGS_HOURS)
    return f"zone,channel,source,mean_mw,iqr_mw,recon_error,{acf_cols}"


def write_stats_csv(rows: Sequence[StatsRow], path: Path | str) -> None:
    lines = [stats_header()]
    for row in rows:
        numbers = (row.mean_mw, row.iqr_mw, row.recon_error, *map(row.acf.get, REPORT_LAGS_HOURS))
        lines.append(",".join((row.zone, row.channel, row.source, *map(_format_stat, numbers))))
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

    Returns the table and its version string (``"unversioned"`` when the
    key is absent).  Fuels missing from the file are absent from the table
    (callers decide whether that is an error).
    ``FuelParams`` checks each pair, so numeric strings are rejected, not
    coerced.  Any malformed file raises ``InvalidInputError`` naming it.
    """
    raw = read_json(path)
    if not isinstance(raw, dict) or not isinstance(raw.get("fuels"), dict):
        raise InvalidInputError(f"{path}: expected an object with a 'fuels' object")
    table: dict[Fuel, FuelParams] = {}
    for name, rec in raw["fuels"].items():
        try:
            fuel = Fuel(name)
        except ValueError as exc:
            raise InvalidInputError(f"{path}: {exc}") from exc
        if not isinstance(rec, dict) or not {"availability", "mttr_hours"} <= rec.keys():
            raise InvalidInputError(f"{path}: fuel {name} needs availability and mttr_hours")
        with where(f"{path}: fuel {name}"):
            table[fuel] = FuelParams(rec["availability"], rec["mttr_hours"])
    if not table:
        raise InvalidInputError(f"{path}: no fuels defined")
    version = raw.get("version", "unversioned")
    if not isinstance(version, str):
        raise InvalidInputError(f"{path}: version must be a string, got {version!r}")
    return table, version


def read_json(path: Path | str) -> Any:
    """Parse a JSON file; undecodable or malformed text, or a repeated key, names the path."""
    with _reading(path) as fh:
        try:
            return json.load(fh, object_pairs_hook=_unique_keys)
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError or a repeated key
            raise InvalidInputError(f"{path}: not valid JSON: {exc}") from exc


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """A JSON object's pairs as a dict; a key given twice raises ``ValueError`` naming it."""
    obj: dict[str, Any] = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"repeated key {key!r}")
        obj[key] = value
    return obj


def read_demand(path: Path | str) -> HourlySeries:
    """Read an hourly demand CSV with columns timestamp_utc,demand_mw."""
    start, (values,) = _read_hourly(path, "demand_mw")
    return HourlySeries(start=start, values_mw=values)


@contextmanager
def _reading(path: Path | str, **open_args: Any) -> Iterator[IO[str]]:
    """Open ``path`` as UTF-8 after one optional BOM; a failed read is ``InvalidInputError``."""
    try:
        with open(path, encoding="utf-8-sig", **open_args) as fh:
            yield fh
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise InvalidInputError(f"{path}: {getattr(exc, 'strerror', None) or exc}") from exc


@contextmanager
def _replacing(path: Path | str, **open_args: Any) -> Iterator[IO[Any]]:
    """Open a temporary file next to ``path``, renamed over it when the block ends.

    ``open_args`` go to ``open`` and must open a new file (mode ``x``).  If
    the block raises, the temporary file is removed, the target keeps its old
    contents or stays absent, and an ``OSError`` becomes ``InvalidInputError``.
    """
    target = Path(path)
    # A fixed-length name, so any name the target may have fits its directory.
    tmp = target.with_name(f".{uuid.uuid4().hex}.tmp")
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        with open(tmp, **open_args) as fh:
            yield fh
        os.replace(tmp, target)
    except BaseException as exc:
        with suppress(OSError):  # no temporary file, or no directory to hold one
            tmp.unlink(missing_ok=True)
        if not isinstance(exc, OSError):
            raise
        at = "" if exc.filename in (None, str(tmp)) else f"{exc.filename}: "
        raise InvalidInputError(f"cannot write {target}: {at}{exc.strerror or exc}") from exc


def write_bytes(data: bytes, path: Path | str) -> None:
    """Write ``data`` to ``path``, atomically."""
    with _replacing(path, mode="xb") as fh:
        fh.write(data)


def write_lines(lines: Iterable[str], path: Path | str) -> None:
    """Write each line plus ``\\n`` to ``path`` as UTF-8, atomically.

    If ``lines`` raises, the target keeps its old contents.
    """
    with _replacing(path, mode="x", encoding="utf-8", newline="") as fh:
        fh.writelines(f"{line}\n" for line in lines)


def _write_rows(
    header: str, fmt: str, columns: Sequence[np.ndarray], path: Path | str, *,
    start: datetime | None = None,
) -> None:
    """Stream ``header`` and ``fmt % row`` for each row of the columns' ``tolist()``
    cells; with ``start``, each row begins with its hour's UTC stamp."""
    cells = [col.tolist() for col in columns]
    if start is not None:
        cells.insert(0, _hour_stamps(start, len(cells[0])))
        fmt = "%s," + fmt
    write_lines(itertools.chain([header], (fmt % row for row in zip(*cells))), path)


def _hour_stamps(start: datetime, n_hours: int) -> list[str]:
    """The stamps of ``n_hours`` UTC hours from ``start``, as the hourly CSVs hold them.

    This is format_utc's layout in one NumPy call, but with four-digit years
    before 1000.
    """
    first = np.datetime64(start.replace(tzinfo=None), "h")
    stamps = np.datetime_as_string(first + np.arange(n_hours), unit="s").tolist()
    return [f"{stamp}Z" for stamp in stamps]


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
    are kept.  Blank lines are skipped.  A missing or repeated column raises
    ``InvalidInputError`` naming the file; a bad row width or a cell whose
    converter raises ``ValueError``, one naming ``path:line``.
    """
    columns: list[list[Any]] = [[] for _ in converters]
    with _reading(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        missing = [name for name in converters if name not in header]
        if missing:
            raise InvalidInputError(f"{path}: missing columns {missing}")
        repeated = [name for name in converters if header.count(name) > 1]
        if repeated:
            raise InvalidInputError(f"{path}: repeated columns {repeated}")
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


def _bulk_read(path: Path | str, *columns: str) -> tuple[datetime, list[np.ndarray]] | None:
    """``_loadtxt_hourly`` of an hourly CSV of ``columns``, or None.

    None means the file must go to ``_read_columns``: its header differs,
    or the parse refused it by raising ``ValueError``.  The parse runs with
    warnings turned into refusals, so that a file without rows, or a
    conversion that an older NumPy only deprecates, is refused too.

    The parse must refuse every file ``_read_columns`` rejects or reads
    differently, and never coerce: ``np.loadtxt`` gets no comment character
    and no ``usecols`` (which would stop it checking each row's width), and
    no cell goes through a fixed-width string dtype, which truncates.
    """
    with _reading(path) as fh:
        try:
            if fh.readline() != ",".join(["timestamp_utc", *columns]) + "\n":
                return None
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                return _loadtxt_hourly(fh, len(columns))
        except (ValueError, Warning):
            return None


def _read_hourly(path: Path | str, *columns: str) -> tuple[datetime, list[np.ndarray]]:
    """Start hour and finite float columns of a CSV with one row per consecutive UTC hour."""
    read = _bulk_read(path, *columns)
    if read is None:
        stamps, *values = _read_columns(
            path, {"timestamp_utc": _hourly_stamps(), **dict.fromkeys(columns, float)}
        )
        if not stamps:
            raise InvalidInputError(f"{path}: series has no rows")
        read = stamps[0], [np.asarray(v, dtype=np.float64) for v in values]
    with where(path):
        ensure_hour_aligned(read[0])
    for name, column in zip(columns, read[1]):
        _check_hours(path, read[0], np.isfinite(column), f"{name}: not a finite number")
    return read


def _check_hours(path: Path | str, start: datetime, ok: np.ndarray, failure: str) -> None:
    """Raise ``InvalidInputError`` naming ``failure`` and the first hour that is not ``ok``."""
    bad = np.flatnonzero(~ok)
    if bad.size:
        raise InvalidInputError(f"{path}: {failure} at {format_utc(start + int(bad[0]) * HOUR)}")


def _loadtxt_hourly(fh: IO[str], n_columns: int) -> tuple[datetime, list[np.ndarray]]:
    """Start hour and float columns of rows that begin with the writer's stamps."""
    stamps: list[str] = []

    def numbers() -> Iterator[str]:
        for line in fh:
            stamp, _, rest = line.partition(",")
            stamps.append(stamp)
            yield rest

    rows = np.loadtxt(numbers(), delimiter=",", comments=None, ndmin=2)
    # loadtxt skips a line whose numbers are blank, so count the rows too
    if rows.shape != (len(stamps), n_columns):
        raise ValueError("rows differ from the header")
    start = parse_utc(stamps[0])
    parse_utc(stamps[-1])  # the writer's layout runs past year 9999, parse_utc does not
    if stamps != _hour_stamps(start, len(stamps)):
        raise ValueError("stamps differ from the writer's")
    return start, list(np.ascontiguousarray(rows.T))


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


def _same_zone(zone: str) -> Callable[[str], str]:
    """A zone converter that requires every row to name ``zone``."""

    def convert(text: str) -> str:
        if text != zone:
            raise ValueError(f"zone {text!r} differs from the expected zone {zone!r}")
        return text

    return convert


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError(f"capacity must be positive, got {value}")
    return value
