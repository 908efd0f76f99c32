"""Builds the bundled synthetic corpus: two zones, two weeks, fully offline.

The corpus is a pre-populated fetch cache (platform-format XML, in a ZIP
page where several documents share a day), a unit registry and a pipeline
config.  Everything is hand-written constant data — no RNG — so rebuilding
the corpus is reproducible and the pipeline can run end to end without a
network or an API token.

Notable content, all exercised on purpose:

* zone AA, unit AA-U1: a forced outage whose document is revised (revision
  2 supersedes revision 1 downloaded the day before), overlapped by a
  planned outage on the same unit;
* zone AA, unit AA-U2: a one-hour forced outage stated as 50 MW for 12
  minutes then 200 MW for 48 minutes, whose reconciled hourly value is
  exactly 170 MW;
* zone AA: a withdrawn document, a wind-farm document (renewable class),
  and a document on unit AA-U4 with one implausibly large report (450 MW
  on a 300 MW unit, dropped) and one above-nominal report (360 MW, kept),
  both stated as negative available capacity;
* zone BB, unit BB-U2: two conflicting forced reports (120 vs 60 MW), so
  the reconciliation error of BB is strictly positive;
* zone BB: a record with an unrelated business type, skipped with a
  warning.

``build_reserved_corpus`` builds a second, seeded one-zone corpus in which
every document is re-served on each day it overlaps, as the platform does,
including revised, withdrawn and unknown-business-type documents.

Run directly to build a corpus for manual inspection:
    python3 tests/corpusgen.py /tmp/corpus
"""

from __future__ import annotations

import io
import json
import random
import sys
import zipfile
from datetime import datetime, timedelta, timezone
from pathlib import Path

from outagekit.fetch import FetchClient

ZONES = ("AA", "BB")
ZONE_EIC = {"AA": "10Y-TEST-AA----X", "BB": "10Y-TEST-BB----Y"}

START = datetime(2030, 1, 7, 0, 0, tzinfo=timezone.utc)  # a Monday
N_HOURS = 336  # two weeks
N_DAYS = 14

SEED = 7

REGISTRY_ROWS = (
    ("AA", "CCGT", 400),
    ("AA", "CCGT", 250),
    ("AA", "Nuclear", 600),
    ("AA", "Coal", 300),
    ("BB", "CCGT", 350),
    ("BB", "Hydro", 120),
    ("BB", "Coal", 500),
)


def _ts(day: int, hour: int = 0, minute: int = 0) -> str:
    t = START + timedelta(days=day, hours=hour, minutes=minute)
    return t.strftime("%Y-%m-%dT%H:%MZ")


def _timeseries(
    ts_id: str,
    business: str,
    zone: str,
    psr: str,
    unit: str,
    nominal: int,
    interval: tuple[str, str],
    resolution: str,
    points: list[tuple[int, float]],
) -> str:
    point_xml = "".join(
        f"<Point><position>{pos}</position><quantity>{qty}</quantity></Point>"
        for pos, qty in points
    )
    return (
        "<TimeSeries>"
        f"<mRID>{ts_id}</mRID>"
        f"<businessType>{business}</businessType>"
        f'<biddingZone_Domain.mRID codingScheme="A01">{ZONE_EIC[zone]}</biddingZone_Domain.mRID>'
        f'<production_RegisteredResource.mRID codingScheme="A01">{unit}-RES</production_RegisteredResource.mRID>'
        f"<production_RegisteredResource.pSRType.psrType>{psr}</production_RegisteredResource.pSRType.psrType>"
        f'<production_RegisteredResource.pSRType.powerSystemResources.mRID codingScheme="A01">{unit}</production_RegisteredResource.pSRType.powerSystemResources.mRID>'
        f'<production_RegisteredResource.pSRType.powerSystemResources.nominalP unit="MAW">{nominal}</production_RegisteredResource.pSRType.powerSystemResources.nominalP>'
        "<Available_Period>"
        f"<timeInterval><start>{interval[0]}</start><end>{interval[1]}</end></timeInterval>"
        f"<resolution>{resolution}</resolution>"
        f"{point_xml}"
        "</Available_Period>"
        "</TimeSeries>"
    )


def _document(doc_id: str, revision: int, timeseries: list[str], doc_status: str | None = None) -> bytes:
    status_xml = f"<docStatus><value>{doc_status}</value></docStatus>" if doc_status else ""
    body = (
        '<?xml version="1.0" encoding="UTF-8"?>'
        '<Unavailability_MarketDocument xmlns="urn:iec62325.351:tc57wg16:451-6:unavailabilitydocument:3:0">'
        f"<mRID>{doc_id}</mRID>"
        f"<revisionNumber>{revision}</revisionNumber>"
        f"{status_xml}"
        f"{''.join(timeseries)}"
        "</Unavailability_MarketDocument>"
    )
    return body.encode("utf-8")


# Each entry: (zone, day indices carrying the document, document bytes).
def _documents() -> list[tuple[str, list[int], bytes]]:
    docs: list[tuple[str, list[int], bytes]] = []

    # AA-U1 forced, 400 MW CCGT: rev 1 (full outage) appears in day 2's
    # download, rev 2 (350 MW, 50 MW still available) in day 3's.
    u1_forced = dict(
        ts_id="1", business="A54", zone="AA", psr="B04", unit="AA-U1", nominal=400,
        interval=(_ts(2, 6), _ts(3, 18)), resolution="PT60M",
    )
    docs.append(("AA", [2], _document("AA-DOC-1", 1, [_timeseries(points=[(1, 0)], **u1_forced)])))
    docs.append(("AA", [3], _document("AA-DOC-1", 2, [_timeseries(points=[(1, 50)], **u1_forced)])))

    # AA-U1 planned outage overlapping the forced one on day 2.
    docs.append(
        ("AA", [2], _document("AA-DOC-2", 1, [
            _timeseries("1", "A53", "AA", "B04", "AA-U1", 400,
                        (_ts(2, 12), _ts(2, 20)), "PT60M", [(1, 0)]),
        ]))
    )

    # AA-U2: the 50-MW-for-12-minutes / 200-MW-for-48-minutes hour.
    docs.append(
        ("AA", [5], _document("AA-DOC-3", 1, [
            _timeseries("1", "A54", "AA", "B04", "AA-U2", 250,
                        (_ts(5, 0), _ts(5, 1)), "PT12M", [(1, 200), (2, 50)]),
        ]))
    )

    # AA-U3 nuclear maintenance, days 8-11.
    docs.append(
        ("AA", [8, 9, 10, 11], _document("AA-DOC-4", 1, [
            _timeseries("1", "A53", "AA", "B14", "AA-U3", 600,
                        (_ts(8, 0), _ts(12, 0)), "PT60M", [(1, 0)]),
        ]))
    )

    # Withdrawn document: must not contribute anything.
    docs.append(
        ("AA", [4], _document("AA-DOC-5", 1, [
            _timeseries("1", "A54", "AA", "B05", "AA-U4", 300,
                        (_ts(4, 0), _ts(4, 12)), "PT60M", [(1, 100)]),
        ], doc_status="A13"))
    )

    # Wind farm outage: renewable class, dropped by the filter.
    docs.append(
        ("AA", [6], _document("AA-DOC-6", 1, [
            _timeseries("1", "A54", "AA", "B19", "AA-W1", 200,
                        (_ts(6, 0), _ts(7, 0)), "PT60M", [(1, 0)]),
        ]))
    )

    # AA-U4 coal, 300 MW: available -150 MW states 450 MW (over 1.33 x 300,
    # dropped) for six hours, then available -60 MW states 360 MW (within
    # 133%, kept).
    docs.append(
        ("AA", [10], _document("AA-DOC-9", 1, [
            _timeseries("1", "A54", "AA", "B05", "AA-U4", 300,
                        (_ts(10, 0), _ts(10, 12)), "PT60M", [(1, -150), (7, -60)]),
        ]))
    )

    # BB-U1 forced half-day outage.
    docs.append(
        ("BB", [1], _document("BB-DOC-1", 1, [
            _timeseries("1", "A54", "BB", "B04", "BB-U1", 350,
                        (_ts(1, 0), _ts(1, 12)), "PT60M", [(1, 0)]),
        ]))
    )

    # BB-U2: two conflicting forced reports in one document (120 vs 60 MW
    # where they overlap), so BB's reconciliation error is positive.
    docs.append(
        ("BB", [3, 4], _document("BB-DOC-2", 1, [
            _timeseries("1", "A54", "BB", "B12", "BB-U2", 120,
                        (_ts(3, 0), _ts(4, 0)), "PT60M", [(1, 0)]),
            _timeseries("2", "A54", "BB", "B12", "BB-U2", 120,
                        (_ts(3, 12), _ts(4, 12)), "PT60M", [(1, 60)]),
        ]))
    )

    # BB-U3 planned weekend outage with an overlapping partial forced one.
    docs.append(
        ("BB", [6, 7], _document("BB-DOC-3", 1, [
            _timeseries("1", "A53", "BB", "B05", "BB-U3", 500,
                        (_ts(6, 0), _ts(8, 0)), "PT60M", [(1, 0)]),
        ]))
    )
    docs.append(
        ("BB", [7, 8], _document("BB-DOC-4", 1, [
            _timeseries("1", "A54", "BB", "B05", "BB-U3", 500,
                        (_ts(7, 12), _ts(8, 12)), "PT60M", [(1, 300)]),
        ]))
    )

    # Unrelated business type: parser skips it with a warning.
    docs.append(
        ("BB", [5], _document("BB-DOC-5", 1, [
            _timeseries("1", "A46", "BB", "B04", "BB-U1", 350,
                        (_ts(5, 0), _ts(5, 6)), "PT60M", [(1, 0)]),
        ]))
    )

    # Solar plant outage: renewable class, dropped.
    docs.append(
        ("BB", [9], _document("BB-DOC-6", 1, [
            _timeseries("1", "A54", "BB", "B16", "BB-S1", 100,
                        (_ts(9, 0), _ts(10, 0)), "PT60M", [(1, 0)]),
        ]))
    )

    return docs


def _zip_documents(payloads: list[bytes]) -> bytes:
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w", zipfile.ZIP_DEFLATED) as zf:
        for i, payload in enumerate(payloads):
            # fixed timestamp: rebuilding the corpus is byte-identical
            info = zipfile.ZipInfo(f"doc_{i:02d}.xml", date_time=(2030, 1, 1, 0, 0, 0))
            zf.writestr(info, payload)
    return buf.getvalue()


def build_corpus(root: Path) -> Path:
    """Write cache, registry and config under ``root``; returns config path."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    client = FetchClient("", root / "cache", rate_limit_s=0.0)

    by_day: dict[tuple[str, int], list[bytes]] = {}
    for zone, days, payload in _documents():
        for day in days:
            by_day.setdefault((zone, day), []).append(payload)

    for zone in ZONES:
        for day_idx in range(N_DAYS):
            day = (START + timedelta(days=day_idx)).date()
            payloads = by_day.get((zone, day_idx), [])
            if len(payloads) > 1:
                pages = [_zip_documents(payloads)]
            else:
                pages = payloads
            client.store(zone, day, "A77", pages)
            client.store(zone, day, "A80", [])  # no generation-unit documents

    registry_lines = ["zone,fuel,capacity_mw"]
    registry_lines.extend(f"{z},{f},{c}" for z, f, c in REGISTRY_ROWS)
    (root / "registry.csv").write_text("\n".join(registry_lines) + "\n", encoding="utf-8")

    config = {
        "zones": list(ZONES),
        "period": {"start": START.strftime("%Y-%m-%dT%H:%M:%SZ"), "hours": N_HOURS},
        "cache_dir": "cache",
        "output_dir": "out",
        "registry_path": "registry.csv",
        "seed": SEED,
        "rate_limit_s": 0.0,
        "retries": 1,
        "zone_eic": ZONE_EIC,
    }
    config_path = root / "config.json"
    config_path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return config_path


def build_reserved_corpus(root: Path, seed: int, n_docs: int = 40) -> Path:
    """Zone AA over the corpus period, each document served on every day it overlaps.

    Drawn from ``seed``: a unit, an interval of up to five days, a business
    type (one in ten unknown) and a status (one in ten withdrawn) per
    document.  Three in ten documents get a revision 2, served from a day
    inside the interval on, while revision 1 is still served that day.  A
    day's documents are served bare when alone, else in ZIP pages of up to
    three.  Returns the config path; the config has no registry, so only
    fetch and ingest can run on it.
    """
    root = Path(root)
    rng = random.Random(seed)
    served: dict[int, list[bytes]] = {}
    for i in range(n_docs):
        first = rng.randrange(N_DAYS)
        last = min(first + rng.randrange(5), N_DAYS - 1)
        start_h = rng.randrange(24)
        end_h = rng.randrange(start_h + 1, 25) if last == first else rng.randrange(24)
        business = "A46" if rng.random() < 0.1 else rng.choice(("A53", "A54"))
        status = "A13" if rng.random() < 0.1 else None
        unit = rng.choice(("AA-U1", "AA-U2", "AA-U3"))

        def doc(revision: int) -> bytes:
            ts = _timeseries("1", business, "AA", "B04", unit, 400,
                             (_ts(first, start_h), _ts(last, end_h)), "PT60M",
                             [(1, rng.randrange(0, 400))])
            return _document(f"AA-R{i}", revision, [ts], doc_status=status)

        revise_on = rng.randint(first, last) if rng.random() < 0.3 else last + 1
        original = doc(1)
        revised = doc(2) if revise_on <= last else b""
        for day in range(first, last + 1):
            if day <= revise_on:
                served.setdefault(day, []).append(original)
            if day >= revise_on:
                served.setdefault(day, []).append(revised)

    client = FetchClient("", root / "cache", rate_limit_s=0.0)
    for day_idx in range(N_DAYS):
        day = (START + timedelta(days=day_idx)).date()
        payloads = served.get(day_idx, [])
        if len(payloads) == 1:
            pages = payloads
        else:
            pages = [_zip_documents(payloads[k:k + 3]) for k in range(0, len(payloads), 3)]
        client.store("AA", day, "A77", pages)
        client.store("AA", day, "A80", [])

    config = {
        "zones": ["AA"],
        "period": {"start": START.strftime("%Y-%m-%dT%H:%M:%SZ"), "hours": N_HOURS},
        "cache_dir": "cache",
        "output_dir": "out",
        "rate_limit_s": 0.0,
        "zone_eic": {"AA": ZONE_EIC["AA"]},
    }
    config_path = root / "config.json"
    config_path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return config_path


if __name__ == "__main__":
    if len(sys.argv) != 2:
        print("usage: corpusgen.py <output-dir>", file=sys.stderr)
        raise SystemExit(2)
    path = build_corpus(Path(sys.argv[1]))
    print(path)
