"""End-to-end orchestration: fetch, ingest, fleet, model, simulate, stats.

Each stage reads its inputs and writes its outputs as the documented file
formats under one output directory, so stages can be re-run independently
and everything downstream of the cache is reproducible byte for byte: fixed
float formatting, derived seeds, sorted iteration orders, and a manifest
with content hashes instead of timestamps.

``ingest``, ``model``, ``simulate``, ``stats`` and the timeseries plot data
split their work into independent jobs, one per zone or per (zone,
evaluation), that ``_map_jobs`` runs in forked worker processes when the run
may use more than one CPU; the files and log lines are the same either way.
``fetch`` (rate-limited), ``fleet`` and the histogram and seasonal plot data
stay in this process: their work per zone is about what starting a pool costs.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import re
import warnings
from contextlib import suppress
from dataclasses import dataclass, field, fields
from datetime import date, timedelta
from pathlib import Path
from typing import Callable, NamedTuple, Sequence, TypeVar

import numpy as np

from . import io as okio
from .errors import InvalidInputError, OutageKitError, StatsError, UsageError, where
from .fetch import DOC_TYPES, FetchClient
from .fleet import fleet_outage_pmf, pmf_stats, pool_unit_sizes, synthesize_fleet
from .ingest import (
    Channel,
    HourlyOutageSeries,
    deduplicate,
    filter_reports,
    parse_document,
    unit_series,
    zone_aggregate,
)
from .markov import RNG_NAME, derive_seed, simulate_fleet, simulation_metadata
from .stats import (
    REPORT_LAGS_HOURS,
    WinterWindow,
    autocorrelation,
    reconciliation_error,
    sample_stats,
    season_label_to_year,
    weekly_profile,
    window_values,
    winter_window,
)
from .timeseries import HourRange, HourlySeries, format_utc, parse_utc
from .types import FUEL_PARAMS, FUEL_PARAMS_VERSION, Fleet, Fuel

logger = logging.getLogger(__name__)

TOKEN_ENV_VAR = "ENTSOE_API_TOKEN"

# Disjoint seed branches so fleet synthesis, simulation and plot draws never
# share RNG streams; each goes on with the zone code and evaluation label.
_STREAM_FLEET = 101
_STREAM_SIM = 102
_STREAM_PLOT = 103


def _is_int(value: object) -> bool:
    """True for an integer; bools and floats do not count."""
    return isinstance(value, int) and not isinstance(value, bool)


def _strings(value: object) -> bool:
    return isinstance(value, tuple) and all(isinstance(v, str) for v in value)


def _is(*kinds: type) -> Callable[[object], bool]:
    return lambda value: isinstance(value, kinds)


def _int_at_least(low: int) -> tuple[Callable[[object], bool], str]:
    return (lambda value: _is_int(value) and value >= low), f"an integer >= {low}"


_DIR_FIELDS = ("cache_dir", "output_dir")
_FILE_FIELDS = ("registry_path", "model_params_path", "demand_path")
_NOT_HASHED = (*_DIR_FIELDS, *_FILE_FIELDS, "api_token", "rate_limit_s", "retries")
_PERIOD_JSON = "{'start': <iso utc>, 'hours': <int>}"

# One (test, expected) rule per PipelineConfig field.
_FIELD_RULES: dict[str, tuple[Callable[[object], bool], str]] = {
    # a zone code names artifact files and cache directories
    "zones": (
        lambda v: _strings(v) and all(re.fullmatch(r"[A-Za-z0-9_-]+", z) for z in v),
        "a tuple of zone codes of ASCII letters, digits, _ and - (a list in JSON)",
    ),
    "seasons": (_strings, "a tuple of strings (a list in JSON)"),
    "period": (_is(HourRange, type(None)), f"an HourRange ({_PERIOD_JSON} in JSON) or null"),
    **dict.fromkeys(_DIR_FIELDS, (_is(Path), "a path")),
    **dict.fromkeys(_FILE_FIELDS, (_is(Path, type(None)), "a path or null")),
    "api_token": (_is(str), "a string"),
    "seed": _int_at_least(0),
    **dict.fromkeys(("retries", "histogram_bin_mw", "timeseries_draws"), _int_at_least(1)),
    "rate_limit_s": (
        lambda v: (_is_int(v) or isinstance(v, float)) and math.isfinite(v) and v >= 0,
        "a finite number >= 0",
    ),
    "zone_eic": (
        lambda v: isinstance(v, dict) and all(isinstance(s, str) and s for s in (*v, *v.values())),
        "a map of zone codes to EIC strings, none of them empty",
    ),
}


@dataclass(frozen=True)
class PipelineConfig:
    """Everything a pipeline run depends on, except the cache contents.

    Evaluation periods are normally winter seasons (labels like "16/17");
    ``period`` overrides them with one explicit hourly range, which is how
    small bundled corpora are processed.  ``api_token`` is excluded from the
    config hash and the manifest so the secret never reaches an artifact.

    ``__post_init__`` is the one validator: it checks every field by type
    and range, and the fields against each other, whether the config comes
    from ``from_file``, ``dataclasses.replace`` or a direct call, and raises
    ``InvalidInputError`` naming the field.
    """

    zones: tuple[str, ...]
    seasons: tuple[str, ...] = ()
    period: HourRange | None = None
    cache_dir: Path = Path("cache")
    output_dir: Path = Path("out")
    registry_path: Path | None = None
    model_params_path: Path | None = None
    demand_path: Path | None = None
    api_token: str = ""
    seed: int = 0
    rate_limit_s: float = 0.5
    retries: int = 3
    zone_eic: dict[str, str] = field(default_factory=dict)
    histogram_bin_mw: int = 500
    timeseries_draws: int = 3

    def __post_init__(self) -> None:
        for f in fields(self):
            test, expected = _FIELD_RULES[f.name]
            value = getattr(self, f.name)
            if not test(value):
                # the token is a secret, so its message leaves the value out
                got = "" if f.name == "api_token" else f", got {value!r}"
                raise InvalidInputError(f"{f.name} must be {expected}{got}")
        if not self.zones:
            raise InvalidInputError("config needs at least one zone")
        for name in ("zones", "seasons"):
            if len(set(getattr(self, name))) != len(getattr(self, name)):
                raise InvalidInputError(f"duplicate {name} in config")
        for label in self.seasons:
            with where("seasons"):
                season_label_to_year(label)
        if not self.seasons and self.period is None:
            raise InvalidInputError("config needs seasons or an explicit period")

    @classmethod
    def from_file(cls, path: Path | str) -> "PipelineConfig":
        """Load a JSON config; relative paths resolve against the file.

        Reading only turns JSON into field values: lists become tuples, path
        strings (and the ``cache``/``out`` defaults) resolve against the
        file's directory, ``period`` becomes an ``HourRange`` and an empty
        ``api_token`` falls back to ``ENTSOE_API_TOKEN``.  The file is read
        by ``okio.read_json``, which refuses a key repeated in any object.
        The checks are ``__post_init__``'s; their errors are prefixed with
        the path.
        """
        path = Path(path)
        with where("cannot read config"):
            raw = okio.read_json(path)
        with where(path):
            if not isinstance(raw, dict):
                raise InvalidInputError("config must be a JSON object")
            unknown = sorted(set(raw) - {f.name for f in fields(cls)})
            if unknown:
                raise InvalidInputError(f"unknown config keys {unknown}")
            # an absent zones key reads as no zones, which the validator rejects
            values = {"zones": ()}
            values.update((k, tuple(v) if isinstance(v, list) else v) for k, v in raw.items())
            # Resolve against the config file so the run is independent of the
            # working directory and the config hash is stable however the config
            # path was spelled.
            base = path.resolve().parent
            for key in (*_DIR_FIELDS, *_FILE_FIELDS):
                value = values.get(key, getattr(cls, key))
                if isinstance(value, (str, Path)):
                    values[key] = base / value
            if values.get("api_token", "") == "":
                values["api_token"] = os.environ.get(TOKEN_ENV_VAR, "")
            period = values.get("period")
            if isinstance(period, dict):
                with where(f"period must be {_PERIOD_JSON}"):
                    unknown = sorted(set(period) - {"start", "hours"})
                    if unknown:
                        raise InvalidInputError(f"unknown period keys {unknown}")
                    start = parse_utc(period.get("start"))
                    values["period"] = HourRange(start, period.get("hours"))
            return cls(**values)

    def public_dict(self) -> dict:
        """The run parameters, every field but ``_NOT_HASHED``, as JSON-ready data.

        Paths, fetch settings and the token are left out, so the same config
        run from another directory hashes the same.
        """
        params = {f.name: getattr(self, f.name) for f in fields(self) if f.name not in _NOT_HASHED}
        if self.period is not None:
            params["period"] = dict(start=format_utc(self.period.start), hours=self.period.n_hours)
        return params

    def sha256(self) -> str:
        canonical = json.dumps(self.public_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class Evaluation(NamedTuple):
    """One evaluation period: a label, its hourly range, and its stat window.

    ``window`` is the season's winter window, whose span is ``range``, or
    for an explicit period override the period itself, which is ``range``.
    """

    label: str
    slug: str
    range: HourRange
    window: WinterWindow | HourRange


def evaluations(config: PipelineConfig) -> list[Evaluation]:
    if config.period is not None:
        return [Evaluation("period", "period", config.period, config.period)]
    evs = []
    for label in config.seasons:
        window = winter_window(season_label_to_year(label))
        evs.append(Evaluation(label, label.replace("/", "-"), window.span, window))
    return evs


def _zone_evaluations(config: PipelineConfig) -> list[tuple[str, Evaluation]]:
    """Every (zone, evaluation) pair, in config order: the jobs of the per-period stages."""
    return [(zone, ev) for zone in config.zones for ev in evaluations(config)]


def days_in(rng: HourRange) -> list[date]:
    first = rng.start.date()
    last = (rng.end - timedelta(hours=1)).date()
    return [
        date.fromordinal(o) for o in range(first.toordinal(), last.toordinal() + 1)
    ]


# -- artifact layout ----------------------------------------------------


def series_path(config: PipelineConfig, zone: str, slug: str) -> Path:
    return config.output_dir / f"series_{zone}_{slug}.csv"


def fleet_path(config: PipelineConfig, zone: str) -> Path:
    return config.output_dir / f"fleet_{zone}.csv"


def pmf_path(config: PipelineConfig, zone: str) -> Path:
    return config.output_dir / f"pmf_{zone}.csv"


def sim_path(config: PipelineConfig, zone: str, slug: str) -> Path:
    return config.output_dir / f"sim_{zone}_{slug}.csv"


def stats_path(config: PipelineConfig) -> Path:
    return config.output_dir / "stats.csv"


def manifest_path(config: PipelineConfig) -> Path:
    return config.output_dir / "manifest.json"


def _stage_artifacts(config: PipelineConfig) -> list[Path]:
    paths: list[Path] = []
    for zone in config.zones:
        paths.append(fleet_path(config, zone))
        paths.append(pmf_path(config, zone))
        for ev in evaluations(config):
            paths.append(series_path(config, zone, ev.slug))
            sim = sim_path(config, zone, ev.slug)
            paths.extend((sim, okio.sidecar_for(sim)))
    paths.append(stats_path(config))
    return paths


# -- stages -------------------------------------------------------------


def _client(config: PipelineConfig) -> FetchClient:
    return FetchClient(
        config.api_token,
        config.cache_dir,
        rate_limit_s=config.rate_limit_s,
        retries=config.retries,
    )


def stage_fetch(config: PipelineConfig) -> int:
    """Ensure every zone-day of every evaluation period is in the cache.

    A day already cached is not read: ingest, which reads every page,
    checks each one against its recorded hash.
    """
    client = _client(config)
    fetched = 0
    for zone in config.zones:
        eic = config.zone_eic.get(zone)
        for ev in evaluations(config):
            for day in days_in(ev.range):
                for doc_type in DOC_TYPES:
                    if not client.is_cached(zone, day, doc_type):
                        client.fetch_day(zone, day, doc_type, eic=eic)
                    fetched += 1
    return fetched


def _parse_zone_period(
    client: FetchClient, config: PipelineConfig, zone: str, ev: Evaluation
) -> list:
    """Reports of every distinct document cached for a zone over a period.

    Only ``stage_fetch`` downloads: a zone-day missing from the cache is an
    ``InvalidInputError``.  A document re-served on a later day is parsed
    only the first time.
    """
    reports = []
    seen: set[bytes | tuple] = set()
    for day in days_in(ev.range):
        for doc_type in DOC_TYPES:
            pages = client.cached_pages(zone, day, doc_type)
            if pages is None:
                raise InvalidInputError(
                    f"{zone} {day} {doc_type} is not in the cache {config.cache_dir}; "
                    "run fetch first"
                )
            for page, payload in enumerate(pages):
                with where(client.page_path(zone, day, doc_type, page)):
                    reports.extend(parse_document(payload, seen=seen))
    return reports


def stage_ingest(config: PipelineConfig) -> list[Path]:
    """Parse cached documents into reconciled per-zone hourly series CSVs.

    Each (zone, evaluation) is one job: parse, deduplicate and filter, then
    reconcile unit by unit in unit-id order.  ``_map_jobs`` runs the jobs in
    worker processes when the run may use more than one CPU, with the same
    series and log lines as in this process.  Every series is written after
    every job has succeeded, so a failing ingest writes no series file.
    """
    client = _client(config)
    jobs = _zone_evaluations(config)

    def ingest(k: int) -> tuple[dict[Channel, HourlyOutageSeries], int, int]:
        zone, ev = jobs[k]
        reports = filter_reports(deduplicate(_parse_zone_period(client, config, zone, ev)))
        by_unit: dict[str, list] = {}
        for r in reports:
            by_unit.setdefault(r.unit_id, []).append(r)
        zone_series = zone_aggregate(
            (unit_series(by_unit[u], ev.range) for u in sorted(by_unit)), ev.range
        )
        return zone_series, len(reports), len(by_unit)

    written: list[Path] = []
    for (zone, ev), (zone_series, n_reports, n_units) in zip(jobs, _map_jobs(ingest, len(jobs))):
        target = series_path(config, zone, ev.slug)
        okio.write_zone_series(zone_series, target)
        written.append(target)
        logger.info("ingested %s %s: %d reports, %d units", zone, ev.label, n_reports, n_units)
    return written


# -- worker processes ---------------------------------------------------

_T = TypeVar("_T")


class _RecordList(logging.Handler):
    """Keeps the log records of a worker's job for the parent to emit."""

    def __init__(self) -> None:
        super().__init__()
        self.records: list[logging.LogRecord] = []

    def emit(self, record: logging.LogRecord) -> None:
        # formatted here, so the record pickles whatever its arguments are
        record.msg, record.args = record.getMessage(), None
        self.records.append(record)


#: In a pool worker, set by ``_start_worker``: the job and the handler keeping its records.
_worker: tuple[Callable[[int], object], _RecordList] | None = None


def _start_worker(job: Callable[[int], object], cpus) -> None:
    """Pool initializer: take a CPU of its own, keep the job, and collect
    the records it logs instead of emitting them."""
    global _worker
    # Left to the scheduler, forked workers can share the parent's CPU for
    # the whole of a short job; a CPU the run may not use is no error.
    with suppress(OSError):
        os.sched_setaffinity(0, {cpus.get()})
    root = logging.getLogger()
    for handler in list(root.handlers):
        root.removeHandler(handler)
    _worker = (job, _RecordList())
    root.addHandler(_worker[1])


def _run_job(k: int) -> tuple[list[logging.LogRecord], Exception | None, object]:
    """Job ``k`` in a worker: its log records, then its error or its result."""
    job, collector = _worker
    records = collector.records = []
    try:
        return records, None, job(k)
    except Exception as exc:
        return records, exc, None


def _map_jobs(fn: Callable[[int], _T], n: int) -> list[_T]:
    """``[fn(0), ..., fn(n - 1)]``, on every CPU the run may use.

    There is one forked worker per CPU that ``os.sched_getaffinity`` allows,
    up to ``n``.  With one worker, or without ``os.sched_getaffinity`` or
    the fork start method, this is a plain map in this process.  Otherwise
    each job's log records are emitted here in job order, and the first
    failing job in job order raises its error, as the plain map would,
    though jobs after it may have run.  No worker is left when this returns
    or raises.
    """
    workers = min(n, len(os.sched_getaffinity(0))) if hasattr(os, "sched_getaffinity") else 1
    if workers > 1:
        import multiprocessing  # here, so that a one-CPU run never loads it

        if "fork" in multiprocessing.get_all_start_methods():
            return _pool_map(fn, n, workers)
    return [fn(k) for k in range(n)]


def _pool_map(fn: Callable[[int], _T], n: int, workers: int) -> list[_T]:
    """``_map_jobs`` on a pool of ``workers`` forked processes."""
    import multiprocessing

    context = multiprocessing.get_context("fork")
    cpus = context.SimpleQueue()
    for cpu in sorted(os.sched_getaffinity(0))[:workers]:
        cpus.put(cpu)
    before = set(multiprocessing.active_children())
    with warnings.catch_warnings():
        # Python 3.12+ warns at any fork in a process with threads, as a BLAS
        # thread pool's; the pool forks its workers before it starts its own
        # threads, and the pipeline starts none.
        warnings.filterwarnings("ignore", r"This process .*is multi-threaded", DeprecationWarning)
        pool = context.Pool(workers, _start_worker, (fn, cpus))
    started = [p for p in multiprocessing.active_children() if p not in before]
    try:
        outcomes = pool.imap(_run_job, range(n))
        results = [_next_result(outcomes, started) for _ in range(n)]
    except BaseException:
        pool.terminate()
        raise
    else:
        pool.close()
    finally:
        pool.join()
        cpus.close()
    return results


def _next_result(outcomes, started: list):
    """The next job's result, after its log records are emitted here.

    Raises the job's error, or an error if a worker has died: the pool
    would wait for ever for the job that worker took.
    """
    import multiprocessing

    while True:
        try:
            records, error, result = outcomes.next(timeout=1.0)
            break
        except multiprocessing.TimeoutError:
            for process in started:
                if process.exitcode is not None:
                    raise OutageKitError(
                        f"a worker process ended with exit code {process.exitcode}"
                    ) from None
    for record in records:
        logging.getLogger(record.name).handle(record)
    if error is not None:
        raise error
    return result


def _load_params(config: PipelineConfig) -> tuple[dict[Fuel, object], str]:
    if config.model_params_path is None:
        return dict(FUEL_PARAMS), FUEL_PARAMS_VERSION
    return okio.load_fuel_params(config.model_params_path)


def stage_fleet(config: PipelineConfig) -> list[Path]:
    """Synthesize one representative fleet per zone from the unit registry.

    Size pools are pooled across all registry zones (a zone with few units
    still draws from a representative size distribution); capacity targets
    are per zone.
    """
    if config.registry_path is None:
        raise InvalidInputError("fleet stage needs registry_path in the config")
    registry = okio.read_registry(config.registry_path)
    pools = pool_unit_sizes((r.fuel, r.capacity_mw) for r in registry)
    params, _ = _load_params(config)
    # every zone's fleet is built before any is written, so a failing run
    # leaves no new fleet file
    fleets: list[Fleet] = []
    for zone in config.zones:
        targets: dict[Fuel, int] = {}
        for row in registry:
            if row.zone == zone:
                targets[row.fuel] = targets.get(row.fuel, 0) + row.capacity_mw
        if not targets:
            raise InvalidInputError(
                f"{config.registry_path}: registry has no units for zone {zone}"
            )
        seed = derive_seed(config.seed, _STREAM_FLEET, zone)
        fleets.append(synthesize_fleet(targets, pools, params, seed, zone=zone))
    written: list[Path] = []
    for fleet in fleets:
        target = fleet_path(config, fleet.zone)
        okio.write_fleet(fleet, target)
        written.append(target)
        logger.info(
            "fleet %s: %d units, %d MW", fleet.zone, len(fleet.units), fleet.total_capacity_mw
        )
    return written


def _zone_fleet(config: PipelineConfig, zone: str) -> Fleet:
    """The zone's fleet, the one model artifact a stage or plot kind reads."""
    return okio.read_fleet(fleet_path(config, zone), zone=zone)


def stage_model(config: PipelineConfig) -> list[Path]:
    """Convolve each zone fleet into its capacity-outage PMF CSV, an export no stage reads.

    Each zone is one ``_map_jobs`` job, which convolves and writes its own
    file: writing the PMF is most of the cost.
    """

    def model(k: int) -> Path:
        zone = config.zones[k]
        target = pmf_path(config, zone)
        okio.write_pmf(fleet_outage_pmf(_zone_fleet(config, zone)), target)
        return target

    return _map_jobs(model, len(config.zones))


def stage_simulate(config: PipelineConfig) -> list[Path]:
    """Run the two-state chain over each evaluation period for each zone.

    Each (zone, evaluation) is one ``_map_jobs`` job, which simulates and
    writes its own series and sidecar.
    """
    jobs = _zone_evaluations(config)

    def simulate(k: int) -> Path:
        zone, ev = jobs[k]
        fleet = _zone_fleet(config, zone)
        seed = derive_seed(config.seed, _STREAM_SIM, zone, ev.label)
        sim = simulate_fleet(fleet, ev.range.n_hours, seed, start=ev.range.start)
        meta = simulation_metadata(fleet, ev.range.n_hours, seed, ev.range.start)
        meta["evaluation"] = ev.label
        target = sim_path(config, zone, ev.slug)
        okio.write_sim_series(sim, meta, target)
        return target

    return _map_jobs(simulate, len(jobs))


def _empirical_series(
    config: PipelineConfig, zone: str
) -> list[dict[Channel, HourlyOutageSeries]]:
    """The zone's series by channel for each evaluation, in ``evaluations`` order."""
    return [okio.read_zone_series(series_path(config, zone, ev.slug)) for ev in evaluations(config)]


def _windowed_row(
    zone: str,
    channel: str,
    source: str,
    per_ev: Sequence[tuple[HourlySeries, WinterWindow | HourRange]],
) -> okio.StatsRow:
    """One ``stats.csv`` row from a series and its window per evaluation.

    Mean and IQR pool the windows' hours.  The ACF of each window is its own,
    never across a seam, and the windows are averaged with equal weight.
    Reconciled series also get the worst reconciliation error.  Windows where
    a statistic is undefined and lags not shorter than the window are left
    out, and logged.
    """
    positions = [window.indices_in(series.range) for series, window in per_ev]
    samples = [series.values_mw[idx] for (series, _), idx in zip(per_ev, positions)]
    hours = min(x.size for x in samples)
    lags = [lag for lag in REPORT_LAGS_HOURS if lag < hours]
    reconciled = all(isinstance(series, HourlyOutageSeries) for series, _ in per_ev)
    acfs: list[dict[int, float]] = []
    errors: list[float] = []
    for (series, _), idx, x in zip(per_ev, positions, samples):
        with suppress(StatsError):  # zero variance; a one-hour window has no lag
            if lags:
                acfs.append(autocorrelation(x, lags))
        with suppress(StatsError):  # zero outage mass
            if reconciled:
                errors.append(reconciliation_error(x, series.o_min_mw[idx]))
    skips = f"of {len(per_ev)} windows, {len(per_ev) - len(acfs)} zero-variance skipped in the ACF"
    if reconciled:
        skips += f", {len(per_ev) - len(errors)} zero-mass skipped in the reconciliation error"
    if acfs and len(lags) < len(REPORT_LAGS_HOURS):
        dropped = ", ".join(str(lag) for lag in REPORT_LAGS_HOURS if lag >= hours)
        skips += f"; lags {dropped} h left out, not shorter than the {hours}-hour window"
    logger.info("stats %s %s %s: %s", zone, channel, source, skips)
    mean, iqr = sample_stats(np.concatenate(samples))
    acf = {lag: float(np.mean([a[lag] for a in acfs])) for lag in lags if acfs}
    return okio.StatsRow(zone, channel, source, mean, iqr, max(errors, default=None), acf)


def stage_stats(config: PipelineConfig) -> list[Path]:
    """Comparison statistics CSV: empirical channels vs model vs simulation.

    Model and simulated rows carry the Total channel, which is what the
    availability parameters describe.  The model row convolves the fleet file.
    Each zone's rows are one ``_map_jobs`` job; the CSV is written here, in
    config order, after every job has succeeded.
    """
    evs = evaluations(config)
    windows = [ev.window for ev in evs]

    def zone_rows(k: int) -> list[okio.StatsRow]:
        zone = config.zones[k]
        rows: list[okio.StatsRow] = []
        with where(f"zone {zone}"):
            empirical = _empirical_series(config, zone)
            for channel in Channel:
                per_ev = [(series[channel], w) for series, w in zip(empirical, windows)]
                rows.append(_windowed_row(zone, channel.value, "empirical", per_ev))
            mean, iqr = pmf_stats(fleet_outage_pmf(_zone_fleet(config, zone)))
            rows.append(okio.StatsRow(zone, "Total", "model", mean, iqr))
            sims = [okio.read_sim_series(sim_path(config, zone, ev.slug))[0] for ev in evs]
            rows.append(_windowed_row(zone, "Total", "simulated", list(zip(sims, windows))))
        return rows

    target = stats_path(config)
    okio.write_stats_csv(
        [row for rows in _map_jobs(zone_rows, len(config.zones)) for row in rows], target
    )
    return [target]


def _sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_manifest(config: PipelineConfig, fuel_params_version: str) -> Path:
    """Record config hash, seed, versions, and a content hash per artifact.

    Deliberately contains no wall-clock timestamps: two runs on the same
    inputs must produce byte-identical manifests.
    """
    artifacts = {
        str(p.relative_to(config.output_dir)): _sha256_file(p)
        for p in sorted(_stage_artifacts(config))
        if p.exists()
    }
    manifest = {
        "tool": "outagekit",
        "config_sha256": config.sha256(),
        "seed": config.seed,
        "zones": list(config.zones),
        "evaluations": [ev.label for ev in evaluations(config)],
        "fuel_params_version": fuel_params_version,
        "rng": RNG_NAME,
        "artifacts": artifacts,
    }
    target = manifest_path(config)
    okio.write_json(manifest, target)
    return target


class Stage(NamedTuple):
    """One pipeline stage: its CLI subcommand, the help line and its function."""

    name: str
    help: str
    run: Callable[[PipelineConfig], object]


#: The pipeline's stages in run order; the CLI has one subcommand per row.
STAGES: tuple[Stage, ...] = (
    Stage("fetch", "Download the unavailability documents missing from the cache.", stage_fetch),
    Stage("ingest", "Parse cached documents into reconciled hourly series CSVs.", stage_ingest),
    Stage("fleet", "Synthesize per-zone fleets from the unit registry.", stage_fleet),
    Stage("model", "Convolve fleets into capacity-outage distributions.", stage_model),
    Stage("simulate", "Simulate hourly fleet outages with the two-state chain.", stage_simulate),
    Stage("stats", "Compute the empirical-vs-model comparison statistics CSV.", stage_stats),
)


def run_pipeline(config: PipelineConfig) -> Path:
    """Run every stage in order and write the manifest; returns its path."""
    for stage in STAGES:
        logger.info("stage %s", stage.name)
        with where(f"{stage.name} stage"):
            stage.run(config)
    _, version = _load_params(config)
    return write_manifest(config, version)


# -- plot-ready data ----------------------------------------------------


def emit_plot_data(config: PipelineConfig, kind: str) -> list[Path]:
    """Export plot-ready CSVs from existing artifacts.

    Kinds: ``histogram`` (hourly outage frequencies vs the fleet's PMF, binned
    in GW), ``seasonal`` (52-week outage and optional demand profiles) and
    ``timeseries`` (empirical series next to independent simulated draws).
    """
    emit = _PLOT_EMITTERS.get(kind)
    if emit is None:
        raise UsageError(f"unknown plot-data kind {kind!r}; expected one of {PLOT_KINDS}")
    manifest = _existing_manifest(config)
    emitted = emit(config)
    if manifest is not None:
        for p in emitted:
            manifest["artifacts"][str(p.relative_to(config.output_dir))] = _sha256_file(p)
        manifest["artifacts"] = dict(sorted(manifest["artifacts"].items()))
        okio.write_json(manifest, manifest_path(config))
    return emitted


def _emit_histograms(config: PipelineConfig) -> list[Path]:
    written = []
    width = config.histogram_bin_mw
    windows = [ev.window for ev in evaluations(config)]
    for zone in config.zones:
        with where(f"zone {zone}"):
            per_ev = [
                [window_values(by_channel[ch], w) for ch in (Channel.TOTAL, Channel.FORCED)]
                for by_channel, w in zip(_empirical_series(config, zone), windows)
            ]
        totals, forced = (np.concatenate(parts) for parts in zip(*per_ev))
        pmf = fleet_outage_pmf(_zone_fleet(config, zone))
        top = max(float(totals.max()), float(forced.max()), float(pmf.max_outage_mw))
        n_bins = max(1, int(np.floor(top / width)) + 1)
        edges = np.arange(n_bins + 1) * float(width)
        freq_total = np.histogram(totals, bins=edges)[0] / totals.size
        freq_forced = np.histogram(forced, bins=edges)[0] / forced.size
        # bin the PMF by padding the support up to a whole number of bins
        padded = np.zeros(n_bins * width, dtype=np.float64)
        padded[: pmf.probabilities.size] = pmf.probabilities
        model_prob = padded.reshape(n_bins, width).sum(axis=1)
        target = config.output_dir / f"plot_histogram_{zone}.csv"
        okio.write_histogram((edges / 1000.0)[:-1], freq_total, freq_forced, model_prob, target)
        written.append(target)
    return written


def _emit_seasonal(config: PipelineConfig) -> list[Path]:
    # winter windows span 20 weeks: only a period, the one evaluation then, spans a year
    if config.period is None or config.period.n_hours < 8760:
        raise UsageError(
            "seasonal plot data needs an evaluation period of at least one full "
            "year; configure 'period' accordingly"
        )
    demand = None
    if config.demand_path:
        hourly = okio.read_demand(config.demand_path)
        with where(config.demand_path):
            values = window_values(hourly, config.period)
        demand = weekly_profile(HourlySeries(config.period.start, values))
    written = []
    for zone in config.zones:
        with where(f"zone {zone}"):
            (series,) = [s[Channel.TOTAL] for s in _empirical_series(config, zone)]
            total = HourlySeries(config.period.start, window_values(series, config.period))
        target = config.output_dir / f"plot_seasonal_{zone}.csv"
        okio.write_seasonal(weekly_profile(total), demand, target)
        written.append(target)
    return written


def _emit_timeseries(config: PipelineConfig) -> list[Path]:
    """Each (zone, evaluation) is one ``_map_jobs`` job, which draws and writes its own file."""
    jobs = _zone_evaluations(config)

    def timeseries(k: int) -> Path:
        zone, ev = jobs[k]
        fleet = _zone_fleet(config, zone)
        with where(f"zone {zone}"):
            series = okio.read_zone_series(series_path(config, zone, ev.slug))
            total = window_values(series[Channel.TOTAL], ev.range)
        sims = [
            simulate_fleet(
                fleet,
                ev.range.n_hours,
                derive_seed(config.seed, _STREAM_PLOT, zone, ev.label, draw),
                start=ev.range.start,
            ).values_mw
            for draw in range(config.timeseries_draws)
        ]
        target = config.output_dir / f"plot_timeseries_{zone}_{ev.slug}.csv"
        okio.write_timeseries_plot(total, sims, ev.range.start, target)
        return target

    return _map_jobs(timeseries, len(jobs))


def _existing_manifest(config: PipelineConfig) -> dict | None:
    """The manifest that emitted plot files extend, or None if there is none.

    A garbled manifest raises before anything is written, so a failed
    ``plot-data`` run leaves no plot file that the manifest does not list.
    """
    target = manifest_path(config)
    if not target.exists():
        return None
    manifest = okio.read_json(target)
    if not (isinstance(manifest, dict) and isinstance(manifest.get("artifacts"), dict)):
        raise InvalidInputError(f"{target}: expected a JSON object with an 'artifacts' object")
    return manifest


_PLOT_EMITTERS: dict[str, Callable[[PipelineConfig], list[Path]]] = {
    "histogram": _emit_histograms,
    "seasonal": _emit_seasonal,
    "timeseries": _emit_timeseries,
}

PLOT_KINDS = tuple(_PLOT_EMITTERS)
