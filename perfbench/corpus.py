"""Seeded synthetic corpus: platform documents, registry, config, demand.

The generator draws zones of dispatchable and renewable units, then outage
events for each zone and evaluation period.  Every event becomes one
platform-format unavailability document (two for a revised event) that is
served on each day its outage overlaps, as the platform serves it.  A day's
documents form pages of at most ``PAGE_SIZE_DOCS`` documents: a bare XML
document when a page holds one, a ZIP archive otherwise.

The fetch cache is only ever filled through ``FetchClient.fetch_day`` with
an in-process transport (``Transport``) that serves the pre-built pages and
answers empty days with the platform's "no matching data" acknowledgement.

The messy cases (revisions, withdrawn documents, renewable units, oversize
records, unknown business types) occur at the fixed ``MESSY_RATES`` on every
workload.  They are not tuned per workload.
"""

from __future__ import annotations

import io
import json
import math
import zipfile
from dataclasses import dataclass, field
from datetime import date, datetime, timedelta
from pathlib import Path

import numpy as np

from outagekit.fetch import DOC_TYPES, PAGE_SIZE_DOCS, FetchClient
from outagekit.stats import season_label_to_year, winter_window
from outagekit.timeseries import parse_utc
from outagekit.zones import DEFAULT_ZONE_EIC

#: Share of events carrying each messy case; the cases are disjoint.
MESSY_RATES = {
    "revision": 0.10,
    "withdrawn": 0.03,
    "renewable": 0.08,
    "oversize": 0.01,
    "unknown_business": 0.02,
}

#: Share of units that report as generation units (document type A80).
A80_UNIT_SHARE = 0.15

#: (registry fuel, psrType, share of units, size range in MW before scaling)
FUEL_MIX = (
    ("CCGT", "B04", 0.45, (150, 900)),
    ("Coal", "B05", 0.10, (300, 700)),
    ("Nuclear", "B14", 0.10, (500, 1250)),
    ("Hydro", "B12", 0.10, (50, 450)),
    ("Biomass", "B01", 0.07, (50, 650)),
    ("Oil", "B06", 0.08, (20, 200)),
    ("CHP", "B20", 0.10, (20, 150)),
)
RENEWABLE_PSR = ("B16", "B18", "B19")

TOKEN = "perfbench-token"
NAMESPACE = "urn:iec62325.351:tc57wg16:451-6:unavailabilitydocument:3:0"
NO_DATA_ACK = (
    b'<?xml version="1.0" encoding="UTF-8"?>'
    b"<Acknowledgement_MarketDocument>"
    b"<Reason><code>999</code><text>No matching data found for Data item "
    b"Unavailability of Production Units</text></Reason>"
    b"</Acknowledgement_MarketDocument>"
)
_ZIP_TIME = (2016, 1, 1, 0, 0, 0)
QUARTER = timedelta(minutes=15)
HOUR = timedelta(hours=1)
DAY = timedelta(days=1)


@dataclass(frozen=True)
class ZoneSpec:
    code: str
    n_units: int
    capacity_gw: float


@dataclass(frozen=True)
class CorpusSpec:
    """Shape of one workload's corpus; the seed picks everything else.

    ``events_per_zone`` counts events per zone and evaluation period, and
    ``event_mix`` splits them over the event classes of ``_event_times``.
    ``reporting_units`` limits reports to that many units per zone.
    """

    zones: tuple[ZoneSpec, ...]
    events_per_zone: int
    event_mix: tuple[tuple[str, float], ...]
    seasons: tuple[str, ...] = ()
    period_start: str | None = None
    period_hours: int = 0
    reporting_units: int | None = None
    demand: bool = False


@dataclass(frozen=True)
class Unit:
    unit_id: str
    fuel: str  # registry fuel name; empty for renewable units
    psr: str
    nominal_mw: int
    doc_type: str


@dataclass
class Event:
    unit: Unit
    business: str
    start: datetime
    end: datetime
    resolution_min: int
    points: list[tuple[int, int]]  # (position, available MW)
    withdrawn: bool = False
    revised_points: list[tuple[int, int]] | None = None


@dataclass(frozen=True)
class Evaluation:
    label: str
    slug: str
    start: datetime
    n_hours: int

    def days(self) -> list[date]:
        first = self.start.date()
        last = (self.start + (self.n_hours - 1) * HOUR).date()
        return [first + timedelta(days=k) for k in range((last - first).days + 1)]


@dataclass
class Corpus:
    """What the generator wrote, plus the bookkeeping the results report."""

    root: Path
    config_path: Path
    zones: tuple[str, ...]
    evaluations: tuple[Evaluation, ...]
    counts: dict[str, float] = field(default_factory=dict)


def evaluations_of(spec: CorpusSpec) -> tuple[Evaluation, ...]:
    if spec.period_start is not None:
        return (Evaluation("period", "period", parse_utc(spec.period_start), spec.period_hours),)
    out = []
    for label in spec.seasons:
        span = winter_window(season_label_to_year(label)).span
        out.append(Evaluation(label, label.replace("/", "-"), span.start, span.n_hours))
    return tuple(out)


def _largest_remainder(total: int, shares: list[float]) -> list[int]:
    raw = [total * s / sum(shares) for s in shares]
    counts = [int(math.floor(r)) for r in raw]
    order = sorted(range(len(raw)), key=lambda i: counts[i] - raw[i])
    for i in order[: total - sum(counts)]:
        counts[i] += 1
    return counts


def _zone_units(rng: np.random.Generator, zone: ZoneSpec) -> tuple[list[Unit], list[Unit]]:
    """Dispatchable units scaled to the zone's capacity, plus renewables."""
    drawn: list[tuple[str, str, float]] = []
    counts = _largest_remainder(zone.n_units, [share for _, _, share, _ in FUEL_MIX])
    for (fuel, psr, _, (lo, hi)), n in zip(FUEL_MIX, counts):
        drawn.extend((fuel, psr, float(rng.uniform(lo, hi))) for _ in range(n))
    scale = zone.capacity_gw * 1000.0 / sum(size for _, _, size in drawn)
    units = [
        Unit(
            unit_id=f"{zone.code}-U{i:04d}",
            fuel=fuel,
            psr=psr,
            nominal_mw=max(1, int(round(size * scale))),
            doc_type="A80" if rng.random() < A80_UNIT_SHARE else "A77",
        )
        for i, (fuel, psr, size) in enumerate(drawn)
    ]
    renewables = [
        Unit(
            unit_id=f"{zone.code}-R{i:03d}",
            fuel="",
            psr=RENEWABLE_PSR[i % len(RENEWABLE_PSR)],
            nominal_mw=int(rng.integers(50, 400)),
            doc_type="A77",
        )
        for i in range(max(2, zone.n_units // 10))
    ]
    return units, renewables


def _available(rng: np.random.Generator, nominal: int) -> int:
    """Available MW while on outage: full outage 60% of the time, else partial."""
    if rng.random() < 0.6:
        return 0
    return nominal - max(1, int(nominal * rng.uniform(0.2, 0.8)))


def _event_times(rng: np.random.Generator, cls: str, ev: Evaluation) -> tuple[datetime, datetime, int, int]:
    """(start, end, resolution minutes, number of resolution steps)."""
    n_days = ev.n_hours // 24
    if cls == "subday":
        d = int(rng.integers(n_days))
        steps = int(rng.integers(1, 81))  # 15 minutes to 20 hours
        start = ev.start + d * DAY + int(rng.integers(0, 96 - steps + 1)) * QUARTER
        return start, start + steps * QUARTER, 15, steps
    if cls == "forced_days":
        hours = int(rng.integers(24, 121))
        start = ev.start + int(rng.integers(ev.n_hours)) * HOUR
        return start, start + hours * HOUR, 60, hours
    if cls == "planned":
        days = int(rng.integers(3, 21))
        start = ev.start + int(rng.integers(n_days)) * DAY
        return start, start + days * DAY, 60, days * 24
    if cls == "nuclear":
        days = int(rng.integers(30, 101))
        start = ev.start + int(rng.integers(-30, n_days - 10)) * DAY
        return start, start + days * DAY, 60, days * 24
    raise ValueError(f"unknown event class {cls!r}")


def _points(rng: np.random.Generator, nominal: int, steps: int, multi: bool) -> list[tuple[int, int]]:
    positions = [1]
    if multi and steps > 1:
        extra = int(rng.integers(0, 3))
        positions += sorted(
            int(p) for p in rng.choice(np.arange(2, steps + 1), size=min(extra, steps - 1), replace=False)
        )
    return [(p, _available(rng, nominal)) for p in positions]


def _zone_events(
    rng: np.random.Generator,
    spec: CorpusSpec,
    ev: Evaluation,
    units: list[Unit],
    renewables: list[Unit],
) -> tuple[list[Event], dict[str, int]]:
    reporting = units if spec.reporting_units is None else units[: spec.reporting_units]
    nuclear = [u for u in reporting if u.fuel == "Nuclear"] or reporting
    classes: list[str] = []
    for (cls, _), n in zip(
        spec.event_mix, _largest_remainder(spec.events_per_zone, [s for _, s in spec.event_mix])
    ):
        classes.extend(cls for _ in range(n))

    events: list[Event] = []
    for cls in classes:
        pool = nuclear if cls == "nuclear" else reporting
        unit = pool[int(rng.integers(len(pool)))]
        start, end, res, steps = _event_times(rng, cls, ev)
        events.append(
            Event(
                unit=unit,
                business="A53" if cls in ("planned", "nuclear") else "A54",
                start=start,
                end=end,
                resolution_min=res,
                points=_points(rng, unit.nominal_mw, steps, multi=cls == "subday"),
            )
        )

    # Disjoint messy cases at exact counts on a seeded subset of events.
    order = rng.permutation(len(events))
    messy: dict[str, int] = {}
    taken = 0
    for case, rate in MESSY_RATES.items():
        n = int(round(rate * len(events)))
        messy[case] = n
        for i in order[taken : taken + n]:
            e = events[int(i)]
            if case == "revision":
                e.revised_points = [(p, _available(rng, e.unit.nominal_mw)) for p, _ in e.points]
            elif case == "withdrawn":
                e.withdrawn = True
            elif case == "renewable":
                e.unit = renewables[int(rng.integers(len(renewables)))]
                e.points = [(p, 0) for p, _ in e.points]
            elif case == "oversize":
                # 1.5 x nominal unavailable: above the 1.33 plausibility cap
                e.points = [(p, -(e.unit.nominal_mw // 2) - 1) for p, _ in e.points]
            else:
                e.business = "A46"
        taken += n
    return events, messy


def _ts(t: datetime) -> str:
    return t.strftime("%Y-%m-%dT%H:%MZ")


def document_xml(
    doc_id: str, revision: int, event: Event, eic: str, points: list[tuple[int, int]]
) -> bytes:
    u = event.unit
    point_xml = "".join(
        f"<Point><position>{pos}</position><quantity>{qty}</quantity></Point>"
        for pos, qty in points
    )
    status = "<docStatus><value>A13</value></docStatus>" if event.withdrawn else ""
    return (
        '<?xml version="1.0" encoding="UTF-8"?>'
        f'<Unavailability_MarketDocument xmlns="{NAMESPACE}">'
        f"<mRID>{doc_id}</mRID>"
        f"<revisionNumber>{revision}</revisionNumber>"
        f"<type>{u.doc_type}</type>"
        f"{status}"
        "<TimeSeries>"
        "<mRID>1</mRID>"
        f"<businessType>{event.business}</businessType>"
        f'<biddingZone_Domain.mRID codingScheme="A01">{eic}</biddingZone_Domain.mRID>'
        f"<start_DateAndOrTime.date>{event.start:%Y-%m-%d}</start_DateAndOrTime.date>"
        f"<end_DateAndOrTime.date>{event.end:%Y-%m-%d}</end_DateAndOrTime.date>"
        f'<production_RegisteredResource.mRID codingScheme="A01">{u.unit_id}-RES</production_RegisteredResource.mRID>'
        f"<production_RegisteredResource.name>{u.unit_id}</production_RegisteredResource.name>"
        f"<production_RegisteredResource.pSRType.psrType>{u.psr}</production_RegisteredResource.pSRType.psrType>"
        f'<production_RegisteredResource.pSRType.powerSystemResources.mRID codingScheme="A01">{u.unit_id}</production_RegisteredResource.pSRType.powerSystemResources.mRID>'
        f'<production_RegisteredResource.pSRType.powerSystemResources.nominalP unit="MAW">{u.nominal_mw}</production_RegisteredResource.pSRType.powerSystemResources.nominalP>'
        "<Available_Period>"
        f"<timeInterval><start>{_ts(event.start)}</start><end>{_ts(event.end)}</end></timeInterval>"
        f"<resolution>PT{event.resolution_min}M</resolution>"
        f"{point_xml}"
        "</Available_Period>"
        "</TimeSeries>"
        "</Unavailability_MarketDocument>"
    ).encode("utf-8")


def zip_page(payloads: list[bytes]) -> bytes:
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w", zipfile.ZIP_DEFLATED) as zf:
        for i, payload in enumerate(payloads):
            # fixed member timestamps keep the pages identical for a seed
            info = zipfile.ZipInfo(f"doc_{i:03d}.xml", date_time=_ZIP_TIME)
            zf.writestr(info, payload, compress_type=zipfile.ZIP_DEFLATED, compresslevel=1)
    return buf.getvalue()


def period_param(day: date) -> str:
    """The platform's periodStart value for a day."""
    return f"{day:%Y%m%d}0000"


class Transport:
    """In-process stand-in for the platform API over pre-built pages."""

    def __init__(self, pages: dict[tuple[str, str, str, int], bytes]) -> None:
        self.pages = pages
        self.calls = 0

    def __call__(self, url: str, params: dict) -> tuple[int, bytes]:
        self.calls += 1
        if params.get("securityToken") != TOKEN:
            return 401, b"Unauthorized"
        key = (
            params["biddingZone_Domain"],
            params["documentType"],
            params["periodStart"],
            int(params["offset"]),
        )
        page = self.pages.get(key)
        if page is None:
            return 400, NO_DATA_ACK
        return 200, page


def _no_sleep(_seconds: float) -> None:
    pass


def fill_cache(cache_dir: Path, plan: list[tuple[str, str, date]], transport: Transport) -> int:
    """Fill the cache for every planned zone-day through ``fetch_day``.

    The client keeps its default 0.5 s rate limit, but sleeps are no-ops.
    Returns the number of pages the cache received.
    """
    client = FetchClient(TOKEN, cache_dir, http_get=transport, sleep=_no_sleep)
    pages = 0
    for zone, eic, day in plan:
        for doc_type in DOC_TYPES:
            pages += len(client.fetch_day(zone, day, doc_type, eic=eic))
    return pages


def _demand_csv(rng: np.random.Generator, ev: Evaluation, peak_gw: float) -> str:
    hours = np.arange(ev.n_hours)
    day_of_year = (hours // 24 + ev.start.timetuple().tm_yday - 1) % 365
    seasonal = 1.0 + 0.25 * np.cos(2.0 * np.pi * (day_of_year - 15) / 365.0)
    daily = 1.0 + 0.1 * np.sin(2.0 * np.pi * ((hours % 24) - 6) / 24.0)
    noise = rng.normal(1.0, 0.02, size=ev.n_hours)
    demand = peak_gw * 1000.0 * 0.65 * seasonal * daily * noise
    lines = ["timestamp_utc,demand_mw"]
    lines.extend(
        f"{(ev.start + int(h) * HOUR):%Y-%m-%dT%H:%M:%SZ},{mw:.1f}"
        for h, mw in zip(hours, demand.tolist())
    )
    return "\n".join(lines) + "\n"


def generate(spec: CorpusSpec, seed: int, root: Path) -> Corpus:
    """Write registry, config (and demand) under ``root``; build the pages.

    The cache is filled here, through ``fill_cache``.
    """
    root.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x0B7A6E)))
    evs = evaluations_of(spec)

    registry = ["zone,fuel,capacity_mw"]
    by_day: dict[tuple[str, str, date], list[bytes]] = {}
    plan: list[tuple[str, str, date]] = []
    n_events = 0
    messy_totals = {case: 0 for case in MESSY_RATES}
    distinct_documents = 0
    document_days = 0
    total_mw = 0
    for zone in spec.zones:
        eic = DEFAULT_ZONE_EIC[zone.code]
        units, renewables = _zone_units(rng, zone)
        registry.extend(f"{zone.code},{u.fuel},{u.nominal_mw}" for u in units)
        total_mw += sum(u.nominal_mw for u in units)
        for ev_idx, ev in enumerate(evs):
            ev_days = ev.days()
            plan.extend((zone.code, eic, d) for d in ev_days)
            day_set = set(ev_days)
            events, messy = _zone_events(rng, spec, ev, units, renewables)
            n_events += len(events)
            for case, n in messy.items():
                messy_totals[case] += n
            for i, e in enumerate(events):
                doc_id = f"{zone.code}-{ev_idx}-{i:05d}"
                first = e.start.date()
                last = (e.end - timedelta(minutes=1)).date()
                days = [
                    first + timedelta(days=k)
                    for k in range((last - first).days + 1)
                    if first + timedelta(days=k) in day_set
                ]
                if not days:
                    continue
                if e.revised_points is None:
                    served = [(document_xml(doc_id, 1, e, eic, e.points), days)]
                else:
                    # revision 1 is served until the revision appears halfway
                    # through the outage; a one-day outage carries both
                    half = max(1, len(days) // 2)
                    rev2_days = days[half:] or days
                    served = [
                        (document_xml(doc_id, 1, e, eic, e.points), days[:half]),
                        (document_xml(doc_id, 2, e, eic, e.revised_points), rev2_days),
                    ]
                for payload, on_days in served:
                    distinct_documents += 1
                    document_days += len(on_days)
                    for d in on_days:
                        by_day.setdefault((eic, e.unit.doc_type, d), []).append(payload)

    pages: dict[tuple[str, str, str, int], bytes] = {}
    for (eic, doc_type, d), payloads in by_day.items():
        for offset in range(0, len(payloads), PAGE_SIZE_DOCS):
            chunk = payloads[offset : offset + PAGE_SIZE_DOCS]
            page = chunk[0] if len(chunk) == 1 else zip_page(chunk)
            pages[(eic, doc_type, period_param(d), offset)] = page

    (root / "registry.csv").write_text("\n".join(registry) + "\n", encoding="utf-8")
    config: dict[str, object] = {
        "zones": [z.code for z in spec.zones],
        "cache_dir": "cache",
        "output_dir": "out",
        "registry_path": "registry.csv",
        "seed": seed,
        "rate_limit_s": 0.0,
        "retries": 1,
    }
    if spec.period_start is not None:
        config["period"] = {"start": spec.period_start, "hours": spec.period_hours}
    else:
        config["seasons"] = list(spec.seasons)
    if spec.demand:
        peak = sum(z.capacity_gw for z in spec.zones) / len(spec.zones)
        (root / "demand.csv").write_text(_demand_csv(rng, evs[0], peak), encoding="utf-8")
        config["demand_path"] = "demand.csv"
    config_path = root / "config.json"
    config_path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    corpus = Corpus(
        root=root,
        config_path=config_path,
        zones=tuple(z.code for z in spec.zones),
        evaluations=evs,
    )
    n_units = sum(z.n_units for z in spec.zones)
    corpus.counts = {
        "zones": len(spec.zones),
        "units": n_units,
        "gw": round(total_mw / 1000.0, 3),
        "days": len(plan),
        "events": n_events,
        "document_days": document_days,
        "distinct_documents": distinct_documents,
        "pages": len(pages),
        "multi_page_days": sum(1 for key in pages if key[3] > 0),
        "bytes": sum(len(p) for p in pages.values()),
        **{f"rate_{case}": round(n / n_events, 4) for case, n in messy_totals.items()},
    }
    fill_cache(root / "cache", plan, Transport(pages))
    return corpus
