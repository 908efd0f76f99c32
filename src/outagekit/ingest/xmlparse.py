"""Parsing of raw unavailability documents into normalized reports.

Two input shapes are accepted, auto-detected from the payload bytes:

* Transparency-platform unavailability market documents (document types A77
  for production units, A80 for generation units), as a bare XML document or
  a ZIP archive of XML documents (the API wraps multi-document responses in
  a ZIP).  Each availability period point becomes one report; the platform
  states *available* capacity, so the reduction is nominal minus available.
* A normalized JSON-lines mirror with one report object per line, fields
  matching OutageReport verbatim.  Each field must have its JSON type
  (strings, an integer revision, finite MW numbers); none is coerced.

Every number in an XML document goes through ``_xml_number``, which refuses
what Python's ``int`` and ``float`` accept beyond plain XML numbers (digit
group underscores, non-ASCII digits); a nominal power or point quantity
that is not finite is a parse error too.

Business types map A53 to planned and A54 to forced; records with any other
business type are skipped with a warning.  Parsing never filters: withdrawn
reports come out carrying status Withdrawn and are dropped downstream.

The platform re-serves a document on every day it overlaps, so the caller
can pass a set of the documents already parsed and each distinct document
is then parsed once; a re-served ZIP member is skipped before it is
inflated.
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
from typing import Callable, TypeVar
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

    ``seen`` is a caller-owned set that lets each distinct document be
    parsed once.  It holds two kinds of entries:

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
    head = raw.lstrip()[:64]
    if not head:
        return []
    if raw[:4] == _ZIP_MAGIC:
        return _parse_zip(raw, zone_eic, seen)
    if not head.startswith((b"<", b"{")):
        raise ParseError("unrecognized payload: not ZIP, XML, or JSON-lines")
    if seen is not None and raw in seen:
        return []
    reports = _parse_xml(raw, zone_eic) if head.startswith(b"<") else _parse_jsonl(raw)
    if seen is not None:
        seen.add(raw)
    return reports


def _parse_zip(
    raw: bytes, zone_eic: dict[str, str] | None, seen: set[bytes | tuple] | None
) -> list[OutageReport]:
    try:
        archive = zipfile.ZipFile(io.BytesIO(raw))
    except zipfile.BadZipFile as exc:
        raise ParseError(f"corrupt ZIP payload: {exc}") from exc
    reports: list[OutageReport] = []
    with archive:
        # A stable sort keeps same-named members in archive order.
        for info in sorted(archive.infolist(), key=lambda i: i.filename):
            key = _member_key(raw, info) if seen is not None else None
            if key is not None and key in seen:
                continue
            try:
                payload = archive.read(info)
            except _BAD_MEMBER_ERRORS as exc:
                raise ParseError(
                    f"{info.filename}: unreadable ZIP member: {str(exc) or type(exc).__name__}"
                ) from exc
            if payload.lstrip()[:1] == b"<" and not (seen is not None and payload in seen):
                try:
                    reports.extend(_parse_xml(payload, zone_eic))
                except ParseError as exc:
                    raise ParseError(f"{info.filename}: {exc}") from exc
                if seen is not None:
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


def _localname(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def _direct_child(elem: ElementTree.Element, name: str) -> ElementTree.Element | None:
    for child in elem:
        if _localname(child.tag) == name:
            return child
    return None


def _child_text(elem: ElementTree.Element, name: str) -> str | None:
    child = _direct_child(elem, name)
    return None if child is None else child.text


def _parse_resolution(text: str) -> timedelta:
    """ISO-8601 duration to timedelta; supports the platform's PT/P forms.

    Raises ``ValueError`` for any other duration.
    """
    t = text.strip().upper()
    try:
        if t.startswith("PT") and t.endswith("M"):
            return timedelta(minutes=_xml_number(t[2:-1], int))
        if t.startswith("PT") and t.endswith("H"):
            return timedelta(hours=_xml_number(t[2:-1], int))
        if t.startswith("P") and t.endswith("D"):
            return timedelta(days=_xml_number(t[1:-1], int))
    except ValueError:
        pass
    raise ValueError(f"unsupported resolution {text!r}")


def _parse_xml(raw: bytes, zone_eic: dict[str, str] | None) -> list[OutageReport]:
    try:
        root = ElementTree.fromstring(raw)
    except ElementTree.ParseError as exc:
        raise ParseError(f"malformed XML: {exc}") from exc
    if _localname(root.tag) != "Unavailability_MarketDocument":
        raise ParseError(f"unexpected root element {_localname(root.tag)!r}")

    doc_id = _child_text(root, "mRID") or ""
    if not doc_id:
        raise ParseError("document has no mRID")
    rev_text = _child_text(root, "revisionNumber")
    try:
        revision = _xml_number(rev_text, int) if rev_text is not None else 1
    except ValueError as exc:
        raise ParseError(f"document {doc_id}: bad revisionNumber {rev_text!r}") from exc

    status = ReportStatus.ACTIVE
    doc_status = _direct_child(root, "docStatus")
    if doc_status is not None:
        value = (_child_text(doc_status, "value") or "").strip()
        if value in WITHDRAWN_DOC_STATUS:
            status = ReportStatus.WITHDRAWN

    reports: list[OutageReport] = []
    for ts in root:
        if _localname(ts.tag) != "TimeSeries":
            continue
        reports.extend(_parse_timeseries(ts, doc_id, revision, status, zone_eic))
    return reports


def _parse_timeseries(
    ts: ElementTree.Element,
    doc_id: str,
    revision: int,
    status: ReportStatus,
    zone_eic: dict[str, str] | None,
) -> list[OutageReport]:
    ts_id = (_child_text(ts, "mRID") or "1").strip()
    where = f"document {doc_id} TimeSeries {ts_id}"

    business = (_child_text(ts, "businessType") or "").strip()
    kind = BUSINESS_TYPE_MAP.get(business)
    if kind is None:
        logger.warning("%s: skipping record with unknown business type %r", where, business)
        return []

    eic = (_child_text(ts, "biddingZone_Domain.mRID") or "").strip()
    zone = zone_for_eic(eic, zone_eic) if eic else ""

    psr = (_child_text(ts, "production_RegisteredResource.pSRType.psrType") or "").strip()
    fuel = PSR_TYPE_MAP.get(psr)
    if fuel is None:
        raise ParseError(f"{where}: unknown psrType {psr!r}")

    unit_id = (
        _child_text(ts, "production_RegisteredResource.pSRType.powerSystemResources.mRID")
        or _child_text(ts, "production_RegisteredResource.mRID")
        or ""
    ).strip()
    if not unit_id:
        raise ParseError(f"{where}: no resource mRID")

    nominal_text = _child_text(
        ts, "production_RegisteredResource.pSRType.powerSystemResources.nominalP"
    )
    if nominal_text is None:
        raise ParseError(f"{where}: no nominalP")
    try:
        nominal = _finite(nominal_text)
    except ValueError as exc:
        raise ParseError(f"{where}: bad nominalP {nominal_text!r}") from exc

    reports: list[OutageReport] = []
    for period in ts:
        if _localname(period.tag) != "Available_Period":
            continue
        for interval_start, interval_end, available in _expand_period(period, where):
            # The document states available capacity; the outage is the
            # reduction below nominal, floored at zero when a unit reports
            # more available power than its registered size.
            unavailable = max(nominal - available, 0.0)
            reports.append(
                OutageReport(
                    report_id=f"{doc_id}:{ts_id}",
                    revision=revision,
                    unit_id=unit_id,
                    zone=zone,
                    fuel=fuel,
                    nominal_mw=nominal,
                    start=interval_start,
                    end=interval_end,
                    unavailable_mw=unavailable,
                    kind=kind,
                    status=status,
                )
            )
    if not reports:
        raise ParseError(f"{where}: no Available_Period points")
    return reports


def _expand_period(
    period: ElementTree.Element, where: str
) -> list[tuple[datetime, datetime, float]]:
    """Expand one Available_Period into (start, end, available MW) intervals.

    Points carry 1-based positions on the period's resolution grid; a point
    stays in force until the next stated position (curve-type A03 semantics),
    and the last point runs to the period end.
    """
    interval = _direct_child(period, "timeInterval")
    if interval is None:
        raise ParseError(f"{where}: period has no timeInterval")
    start_text = _child_text(interval, "start")
    end_text = _child_text(interval, "end")
    if not start_text or not end_text:
        raise ParseError(f"{where}: period interval missing start/end")
    start = parse_utc(start_text)
    end = parse_utc(end_text)
    if end <= start:
        raise ParseError(f"{where}: empty period {start_text}..{end_text}")

    res_text = _child_text(period, "resolution")
    try:
        resolution = _parse_resolution(res_text) if res_text else (end - start)
    except ValueError as exc:
        raise ParseError(f"{where}: {exc}") from exc

    points: list[tuple[int, float]] = []
    for point in period:
        if _localname(point.tag) != "Point":
            continue
        pos_text = _child_text(point, "position")
        qty_text = _child_text(point, "quantity")
        if pos_text is None or qty_text is None:
            raise ParseError(f"{where}: point missing position/quantity")
        try:
            points.append((_xml_number(pos_text, int), _finite(qty_text)))
        except ValueError as exc:
            raise ParseError(f"{where}: bad point {pos_text!r}/{qty_text!r}") from exc
    if not points:
        return []
    points.sort(key=lambda pq: pq[0])

    out: list[tuple[datetime, datetime, float]] = []
    for i, (pos, qty) in enumerate(points):
        seg_start = start + (pos - 1) * resolution
        if i + 1 < len(points):
            seg_end = start + (points[i + 1][0] - 1) * resolution
        else:
            seg_end = end
        seg_start = max(seg_start, start)
        seg_end = min(seg_end, end)
        if seg_end > seg_start:
            out.append((seg_start, seg_end, qty))
    return out


def _xml_number(text: str, convert: Callable[[str], _N]) -> _N:
    """``convert(text)`` for ``int`` or ``float``, refusing with ``ValueError``
    a digit-group underscore or a non-ASCII character, which both accept.

    Surrounding whitespace, which XML numeric text may carry, is allowed.
    """
    if "_" in text or not text.isascii():
        raise ValueError(f"not a plain number: {text!r}")
    return convert(text)


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
    revision = obj["revision"]
    if isinstance(revision, bool) or not isinstance(revision, int):
        raise TypeError(f"revision must be an integer, got {revision!r}")
    return OutageReport(
        report_id=_text(obj, "report_id"),
        revision=revision,
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
