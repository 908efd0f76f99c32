"""Parsing of raw unavailability documents into normalized reports.

Two input shapes are accepted, auto-detected from the payload bytes:

* Transparency-platform unavailability market documents (document types A77
  for production units, A80 for generation units), as a bare XML document or
  a ZIP archive of XML documents (the API wraps multi-document responses in
  a ZIP).  Each availability period point becomes one report; the platform
  states *available* capacity, so the reduction is nominal minus available.
* A normalized JSON-lines mirror with one report object per line, fields
  matching OutageReport verbatim.  Each field must have its JSON type
  (strings, an integer revision of at least 1, finite MW numbers); none is
  coerced.

Right after an XML document is parsed, every tag becomes its local name,
so the default-namespace, prefixed and namespace-free forms read alike and
each lookup is one ``find``.  Every field then goes through one reader,
``_field``: only an absent element takes the field's default, and any text,
empty or not, goes through the field's converter, whose ``ValueError`` or
``OverflowError`` becomes a ``ParseError`` naming the document and field.
Numbers go through ``_xml_number``, which refuses what ``int`` and ``float``
accept beyond plain XML numbers (digit group underscores, non-ASCII
digits); powers must be finite, resolutions positive, and revisions and
point positions at least 1, with no position repeated.

Business types map A53 to planned and A54 to forced; records with any other
business type are skipped with a warning.  Parsing never filters: withdrawn
reports come out carrying status Withdrawn and are dropped downstream.

The platform re-serves a document on every day it overlaps, so the caller
can pass a set of the documents already parsed and each distinct document
is then parsed once; a re-served ZIP member is skipped before it is
inflated.  Without a caller's set, a document repeated within one payload
is still parsed once.
"""

from __future__ import annotations

import io
import json
import logging
import lzma
import math
import struct
import zipfile
import zlib
from dataclasses import dataclass
from datetime import datetime, timedelta
from typing import Any, Callable, TypeVar
from xml.etree import ElementTree

from ..errors import ParseError
from ..timeseries import parse_utc
from ..types import Fuel, Renewable
from ..zones import zone_for_eic
from .reports import OutageReport, ReportKind, ReportStatus

logger = logging.getLogger(__name__)

#: platform psrType -> dispatchable fuel or renewable class.
PSR_TYPE_MAP: dict[str, Fuel | Renewable] = {
    "B01": Fuel.BIOMASS,            # Biomass
    "B02": Fuel.COAL,               # Fossil brown coal / lignite
    "B03": Fuel.CCGT,               # Fossil coal-derived gas
    "B04": Fuel.CCGT,               # Fossil gas
    "B05": Fuel.COAL,               # Fossil hard coal
    "B06": Fuel.OIL,                # Fossil oil
    "B07": Fuel.OIL,                # Fossil oil shale
    "B08": Fuel.COAL,               # Fossil peat
    "B09": Renewable.OTHER_RENEWABLE,      # Geothermal
    "B10": Fuel.HYDRO,              # Hydro pumped storage
    "B11": Renewable.HYDRO_RUN_OF_RIVER,   # Hydro run-of-river and poundage
    "B12": Fuel.HYDRO,              # Hydro water reservoir
    "B13": Renewable.OTHER_RENEWABLE,      # Marine
    "B14": Fuel.NUCLEAR,            # Nuclear
    "B15": Renewable.OTHER_RENEWABLE,      # Other renewable
    "B16": Renewable.SOLAR,         # Solar
    "B17": Fuel.WASTE,              # Waste
    "B18": Renewable.WIND_OFFSHORE, # Wind offshore
    "B19": Renewable.WIND_ONSHORE,  # Wind onshore
    "B20": Fuel.CHP,                # Other
}

BUSINESS_TYPE_MAP = {"A53": ReportKind.PLANNED, "A54": ReportKind.FORCED}

#: docStatus values treated as withdrawn (A13 withdrawn, A09 cancelled).
WITHDRAWN_DOC_STATUS = {"A09", "A13"}

_ZIP_MAGIC = b"PK\x03\x04"

#: What reading a damaged member raises: a bad header or CRC (BadZipFile),
#: a bad deflate, LZMA or bzip2 stream (zlib.error, LZMAError, OSError), a
#: stream that ends early (EOFError), an unsupported method or flag
#: (NotImplementedError), an encrypted member (RuntimeError) or a name that
#: is not UTF-8 (UnicodeDecodeError).
_BAD_MEMBER_ERRORS = (
    zipfile.BadZipFile,
    zlib.error,
    lzma.LZMAError,
    OSError,
    EOFError,
    NotImplementedError,
    RuntimeError,
    UnicodeDecodeError,
)

#: A ZIP local file header (PKWARE APPNOTE 4.3.7): signature, flag word,
#: name length and extra-field length, skipping the fields in between.
_LOCAL_HEADER = struct.Struct("<4s2xH18xHH")

_UTF8_NAME_FLAG = 0x800

_N = TypeVar("_N", int, float)


def parse_document(
    raw: bytes,
    *,
    zone_eic: dict[str, str] | None = None,
    seen: set[bytes | tuple] | None = None,
) -> list[OutageReport]:
    """Parse one raw payload into normalized reports.

    ``zone_eic`` extends the built-in EIC-to-zone table used to label
    reports with a zone code.

    ``seen`` is the set of documents already parsed, so each distinct
    document is parsed once.  A caller passes its own set to carry it
    across pages; without one, a fresh set still skips a document repeated
    within this payload.  It holds two kinds of entries:

    * document payloads (``bytes``): a ZIP member, bare XML document or
      JSON-lines page already in it yields no reports, and a new one is
      added once it has parsed;
    * ZIP member keys (``tuple``): the member's compression method, flag
      word, CRC, uncompressed size and stored bytes.  A member whose key is
      in the set is skipped before it is inflated.  Its key is added once
      its payload has parsed or been skipped, so a key stands for a payload
      already accounted for.  A document compressed differently misses the
      key but is still skipped by its payload.

    Skipping is exact for ``deduplicate``, which collapses byte-identical
    reports and keeps the first occurrence of each, and every report first
    occurs in the first occurrence of its document.  Warnings about unknown
    business types are then logged once per distinct document rather than
    once per serving.
    """
    if not isinstance(raw, bytes):
        raise ParseError(f"expected bytes, got {type(raw).__name__}")
    seen = set() if seen is None else seen
    head = raw.lstrip()[:64]
    if not head:
        return []
    if raw[:4] == _ZIP_MAGIC:
        return _parse_zip(raw, zone_eic, seen)
    if not head.startswith((b"<", b"{")):
        raise ParseError("unrecognized payload: not ZIP, XML, or JSON-lines")
    if raw in seen:
        return []
    reports = _parse_xml(raw, zone_eic) if head.startswith(b"<") else _parse_jsonl(raw)
    seen.add(raw)
    return reports


def _parse_zip(
    raw: bytes, zone_eic: dict[str, str] | None, seen: set[bytes | tuple]
) -> list[OutageReport]:
    try:
        archive = zipfile.ZipFile(io.BytesIO(raw))
    except zipfile.BadZipFile as exc:
        raise ParseError(f"corrupt ZIP payload: {exc}") from exc
    reports: list[OutageReport] = []
    with archive:
        # A stable sort keeps same-named members in archive order.
        for info in sorted(archive.infolist(), key=lambda i: i.filename):
            key = _member_key(raw, info)
            if key in seen:
                continue
            try:
                payload = archive.read(info)
            except _BAD_MEMBER_ERRORS as exc:
                raise ParseError(
                    f"{info.filename}: unreadable ZIP member: {str(exc) or type(exc).__name__}"
                ) from exc
            if payload.lstrip()[:1] == b"<" and payload not in seen:
                try:
                    reports.extend(_parse_xml(payload, zone_eic))
                except ParseError as exc:
                    raise ParseError(f"{info.filename}: {exc}") from exc
                seen.add(payload)
            if key is not None:
                seen.add(key)
    return reports


def _member_key(raw: bytes, info: zipfile.ZipInfo) -> tuple | None:
    """Key of a ZIP member's stored bytes, sliced from the page without inflating.

    The stored bytes follow the local header's fixed part, name and extra
    field, and run for ``compress_size`` bytes.  Returns None when the local
    header is not one ``ZipFile.read`` accepts (bad signature or a name that
    differs from the central directory's), so such a member is always read
    and fails as it would without a key.  The flag word is part of the key,
    so an encrypted member never matches one that was read.
    """
    start = info.header_offset
    if len(raw) < start + _LOCAL_HEADER.size:
        return None
    signature, flags, name_len, extra_len = _LOCAL_HEADER.unpack_from(raw, start)
    name_start = start + _LOCAL_HEADER.size
    data_start = name_start + name_len + extra_len
    try:
        name = raw[name_start : name_start + name_len].decode(
            "utf-8" if flags & _UTF8_NAME_FLAG else "cp437"
        )
    except UnicodeDecodeError:
        return None
    if signature != _ZIP_MAGIC or name != info.orig_filename:
        return None
    stored = raw[data_start : data_start + info.compress_size]
    return (info.compress_type, info.flag_bits, info.CRC, info.file_size, stored)


# -- XML ---------------------------------------------------------------------


def _parse_xml(raw: bytes, zone_eic: dict[str, str] | None) -> list[OutageReport]:
    try:
        root = ElementTree.fromstring(raw)
    except ElementTree.ParseError as exc:
        raise ParseError(f"malformed XML: {exc}") from exc
    # The platform's namespace URI changes with the document version.
    for elem in root.iter():
        elem.tag = elem.tag.rpartition("}")[2]
    if root.tag != "Unavailability_MarketDocument":
        raise ParseError(f"unexpected root element {root.tag!r}")

    doc_id = _field(root, "mRID", "document", _token)
    where = f"document {doc_id}"
    revision = _field(root, "revisionNumber", where, _counting_number, default=1)
    doc_status = root.find("docStatus")
    withdrawn = (
        doc_status is not None
        and _field(doc_status, "value", where, default="") in WITHDRAWN_DOC_STATUS
    )
    status = ReportStatus.WITHDRAWN if withdrawn else ReportStatus.ACTIVE
    return [
        report
        for ts in root.findall("TimeSeries")
        for report in _parse_timeseries(ts, doc_id, revision, status, zone_eic)
    ]


def _parse_timeseries(
    ts: ElementTree.Element,
    doc_id: str,
    revision: int,
    status: ReportStatus,
    zone_eic: dict[str, str] | None,
) -> list[OutageReport]:
    ts_id = _field(ts, "mRID", f"document {doc_id}", _token, default="1")
    where = f"document {doc_id} TimeSeries {ts_id}"

    business = _field(ts, "businessType", where, default="")
    kind = BUSINESS_TYPE_MAP.get(business)
    if kind is None:
        logger.warning("%s: skipping record with unknown business type %r", where, business)
        return []

    zone = zone_for_eic(_field(ts, "biddingZone_Domain.mRID", where, default=""), zone_eic)
    fuel = _field(ts, "production_RegisteredResource.pSRType.psrType", where, _psr_type)
    # ``_token`` never gives "", so only an absent unit mRID falls back to
    # the resource's.
    unit_id = _field(
        ts,
        "production_RegisteredResource.pSRType.powerSystemResources.mRID",
        where,
        _token,
        default="",
    ) or _field(ts, "production_RegisteredResource.mRID", where, _token)
    nominal = _field(
        ts, "production_RegisteredResource.pSRType.powerSystemResources.nominalP", where, _finite
    )

    # The document states available capacity; the outage is the reduction
    # below nominal, floored at zero when a unit reports more available power
    # than its registered size.
    reports = [
        OutageReport(
            report_id=f"{doc_id}:{ts_id}",
            revision=revision,
            unit_id=unit_id,
            zone=zone,
            fuel=fuel,
            nominal_mw=nominal,
            start=interval_start,
            end=interval_end,
            unavailable_mw=max(nominal - available, 0.0),
            kind=kind,
            status=status,
        )
        for period in ts.findall("Available_Period")
        for interval_start, interval_end, available in _expand_period(period, where)
    ]
    if not reports:
        raise ParseError(f"{where}: no Available_Period points")
    return reports


def _expand_period(
    period: ElementTree.Element, where: str
) -> list[tuple[datetime, datetime, float]]:
    """Expand one Available_Period into (start, end, available MW) intervals.

    Points carry distinct 1-based positions on the period's resolution grid;
    a point stays in force until the next stated position (curve-type A03
    semantics), and the last point runs to the period end.  A point that
    starts at or after the period end states nothing.
    """
    interval = period.find("timeInterval")
    if interval is None:
        raise ParseError(f"{where}: no timeInterval")
    start = _field(interval, "start", where, parse_utc)
    end = _field(interval, "end", where, parse_utc)
    if end <= start:
        raise ParseError(f"{where}: empty period {start.isoformat()}..{end.isoformat()}")
    resolution = _field(period, "resolution", where, _parse_resolution, default=end - start)

    points: dict[int, float] = {}
    for point in period.findall("Point"):
        position = _field(point, "position", where, _counting_number)
        if position in points:
            raise ParseError(f"{where}: repeated position {position}")
        points[position] = _field(point, "quantity", where, _finite)
    positions = sorted(points)
    try:
        bounds = [start + (position - 1) * resolution for position in positions]
    except OverflowError as exc:
        raise ParseError(f"{where}: position {positions[-1]} is past the calendar's end") from exc
    bounds.append(end)
    return [
        (seg_start, min(seg_end, end), points[position])
        for position, seg_start, seg_end in zip(positions, bounds, bounds[1:])
        if seg_start < end
    ]


def _field(
    elem: ElementTree.Element,
    name: str,
    where: str,
    convert: Callable[[str], Any] = str.strip,
    default: Any = None,
) -> Any:
    """``convert`` applied to the text of ``elem``'s first child named ``name``.

    Only an absent child gives ``default``, and with a None default it is a
    ``ParseError``.  An empty child is converted like any other text, so an
    empty number is an error, not the default.  A ``ValueError`` or
    ``OverflowError`` from ``convert`` becomes a ``ParseError`` naming
    ``where``, the field and its text.
    """
    child = elem.find(name)
    if child is None:
        if default is None:
            raise ParseError(f"{where}: no {name}")
        return default
    text = child.text or ""
    try:
        return convert(text)
    except (ValueError, OverflowError) as exc:
        raise ParseError(f"{where}: bad {name} {text!r}") from exc


def _token(text: str) -> str:
    """``text`` stripped, refusing an empty one with ``ValueError``."""
    token = text.strip()
    if not token:
        raise ValueError("empty text")
    return token


def _psr_type(text: str) -> Fuel | Renewable:
    """The class of a platform psrType code, refusing an unknown code with ``ValueError``."""
    fuel = PSR_TYPE_MAP.get(text.strip())
    if fuel is None:
        raise ValueError(f"unknown psrType {text!r}")
    return fuel


def _parse_resolution(text: str) -> timedelta:
    """ISO-8601 duration to a positive timedelta; supports the platform's PT/P forms.

    Raises ``ValueError`` for any other or a non-positive duration, and
    ``OverflowError`` for one beyond ``timedelta``'s range.
    """
    t = text.strip().upper()
    if t.startswith("PT") and t.endswith("M"):
        step = timedelta(minutes=_xml_number(t[2:-1], int))
    elif t.startswith("PT") and t.endswith("H"):
        step = timedelta(hours=_xml_number(t[2:-1], int))
    elif t.startswith("P") and t.endswith("D"):
        step = timedelta(days=_xml_number(t[1:-1], int))
    else:
        raise ValueError(f"unsupported resolution {text!r}")
    if step <= timedelta(0):
        raise ValueError(f"non-positive resolution {text!r}")
    return step


def _xml_number(text: str, convert: Callable[[str], _N]) -> _N:
    """``convert(text)`` for ``int`` or ``float``, refusing with ``ValueError``
    a digit-group underscore or a non-ASCII character, which both accept.

    Surrounding whitespace, which XML numeric text may carry, is allowed.
    """
    if "_" in text or not text.isascii():
        raise ValueError(f"not a plain number: {text!r}")
    return convert(text)


def _counting_number(text: str) -> int:
    """``_xml_number(text, int)``, refusing with ``ValueError`` a value below 1:
    revision numbers and grid positions count from 1."""
    value = _xml_number(text, int)
    if value < 1:
        raise ValueError(f"not a counting number: {text!r}")
    return value


def _finite(text: str) -> float:
    """``_xml_number(text, float)``, refusing nan and infinities with ``ValueError``."""
    value = _xml_number(text, float)
    if not math.isfinite(value):
        raise ValueError(f"non-finite {text!r}")
    return value


# -- JSON lines --------------------------------------------------------------

_FUEL_BY_VALUE: dict[str, Fuel | Renewable] = {
    **{f.value: f for f in Fuel},
    **{r.value: r for r in Renewable},
}


def _parse_jsonl(raw: bytes) -> list[OutageReport]:
    reports: list[OutageReport] = []
    for lineno, line in enumerate(raw.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"line {lineno}: invalid JSON: {exc}") from exc
        try:
            reports.append(_report_from_json(obj))
        except (KeyError, ValueError, TypeError, OverflowError) as exc:
            raise ParseError(f"line {lineno}: {exc}") from exc
    return reports


def _report_from_json(obj: dict) -> OutageReport:
    """One report from its JSON object; each field must already have its JSON type."""
    fuel = _FUEL_BY_VALUE.get(_text(obj, "fuel"))
    if fuel is None:
        raise ValueError(f"unknown fuel {obj['fuel']!r}")
    return OutageReport(
        report_id=_text(obj, "report_id"),
        revision=obj["revision"],
        unit_id=_text(obj, "unit_id"),
        zone=_text(obj, "zone"),
        fuel=fuel,
        nominal_mw=_megawatts(obj, "nominal_mw"),
        start=parse_utc(_text(obj, "start")),
        end=parse_utc(_text(obj, "end")),
        unavailable_mw=_megawatts(obj, "unavailable_mw"),
        kind=ReportKind(_text(obj, "kind")),
        status=ReportStatus(_text(obj, "status")),
    )


def _text(obj: dict, key: str) -> str:
    value = obj[key]
    if not isinstance(value, str):
        raise TypeError(f"{key} must be a string, got {value!r}")
    return value


def _megawatts(obj: dict, key: str) -> float:
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise TypeError(f"{key} must be a finite number, got {value!r}")
    return float(value)
