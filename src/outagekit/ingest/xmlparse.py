"""Parsing of raw unavailability documents into normalized reports.

A page holds transparency-platform unavailability market documents
(document types A77 for production units, A80 for generation units), as a
bare XML document or a ZIP archive of XML documents (the API wraps
multi-document responses in a ZIP); the payload bytes tell which.  Each
availability period point becomes one report; the platform states
*available* capacity, so the reduction is nominal minus available.  This
module alone decides what a page is: ``fetch`` stores a page only once
``page_document_count`` has read it with ``parse_document``.

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

A ZIP page is read from its end record and central directory with
``struct`` (PKWARE APPNOTE 4.3.12 and 4.3.16), in the shapes that Python's
``zipfile`` writes.  Each member's local header is checked against its
directory record, its key comes from that record and its stored bytes, and
only a member whose key is new is inflated, with raw ``zlib``, its length
and CRC checked.  Any other page is a ``ParseError`` naming the reason.
"""

from __future__ import annotations

import logging
import math
import struct
import zlib
from datetime import datetime, timedelta
from operator import itemgetter
from typing import Any, Callable, TypeVar
from xml.etree import ElementTree

from ..errors import ParseError, where
from ..timeseries import parse_utc
from ..types import Fuel, Renewable
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

#: A ZIP local file header (PKWARE APPNOTE 4.3.7): signature, flag word,
#: name length and extra-field length, skipping the fields in between.
_LOCAL_HEADER = struct.Struct("<4s2xH18xHH")

#: A central directory file header (APPNOTE 4.3.12): signature, version
#: needed, flag word, method, CRC, stored and uncompressed sizes, name,
#: extra-field and comment lengths, and the local header's offset.
_CENTRAL_HEADER = struct.Struct("<4s2xBxHH4xIIIHHH8xI")

#: The end of central directory record (APPNOTE 4.3.16) after its
#: signature: the two disk numbers, the two entry counts, the directory's
#: size and offset, and the comment length.
_END_RECORD = struct.Struct("<4x4HIIH")

#: The compression methods read (APPNOTE 4.4.5): stored and deflated.
_STORED, _DEFLATED = 0, 8

#: Flag bits a member may carry: the deflate options (bits 1 and 2), a
#: data descriptor (bit 3) and a UTF-8 name (bit 11).
_PLAIN_FLAGS = 0x080E

#: The highest version needed to extract that ``zipfile`` accepts.
_MAX_VERSION = 63

#: A 32-bit size or offset with this value is stored in a zip64 extra field.
_ZIP64_VALUE = 0xFFFF_FFFF

_N = TypeVar("_N", int, float)


def parse_document(
    raw: bytes, *, seen: set[bytes | tuple] | None = None
) -> list[OutageReport]:
    """Parse one raw payload into normalized reports.

    ``seen`` is the set of documents already parsed, so each distinct
    document is parsed once.  A caller passes its own set to carry it
    across pages; without one, a fresh set still skips a document repeated
    within this payload.  It holds two kinds of entries:

    * document payloads (``bytes``): a ZIP member or bare XML document
      already in it yields no reports, and a new one is added once it has
      parsed;
    * ZIP member keys (``tuple``): the member's compression method, flag
      word, CRC, uncompressed size and stored bytes, read from the page's
      central directory and the bytes its local header points to.  A
      member whose key is in the set is skipped before it is inflated.
      Its key is added once its payload has parsed or been skipped, so a
      key stands for a payload already accounted for.  A document
      compressed differently misses the key but is still skipped by its
      payload.

    Skipping is exact for ``deduplicate``, which collapses byte-identical
    reports and keeps the first occurrence of each, and every report first
    occurs in the first occurrence of its document.  Warnings about unknown
    business types are then logged once per distinct document rather than
    once per serving.
    """
    if not isinstance(raw, bytes):
        raise ParseError(f"expected bytes, got {type(raw).__name__}")
    seen = set() if seen is None else seen
    if raw[:4] == _ZIP_MAGIC:
        return _parse_zip(raw, seen)
    if not _holds_xml(raw) or raw in seen:
        return []
    reports = _parse_xml(raw)
    seen.add(raw)
    return reports


def _holds_xml(doc: bytes) -> bool:
    """Whether a bare page or ZIP member holds XML rather than only whitespace.

    One leading UTF-8 byte-order mark is skipped (XML 1.0, Appendix F).
    Anything else is a ``ParseError``: a ZIP page is told apart before this
    rule, and a ZIP member may not be one.
    """
    head = doc.removeprefix(b"\xef\xbb\xbf").lstrip()[:1]
    if head not in (b"", b"<"):
        raise ParseError("unrecognized payload: not ZIP or XML")
    return head == b"<"


def _parse_zip(raw: bytes, seen: set[bytes | tuple]) -> list[OutageReport]:
    reports: list[OutageReport] = []
    members = _central_directory(raw)
    for name, raw_name, method, flags, crc, stored_size, size, offset, end in members:
        start = offset + _LOCAL_HEADER.size
        signature, local_flags, name_len, extra_len = _LOCAL_HEADER.unpack_from(raw, offset)
        local_name = raw[start : start + name_len]
        if signature != _ZIP_MAGIC or local_flags != flags or local_name != raw_name:
            raise _bad_member(name, "local header does not match the central directory")
        data_start = start + name_len + extra_len
        if end < data_start + stored_size:
            raise _bad_member(name, "stored bytes run into the next header")
        stored = raw[data_start : data_start + stored_size]
        key = (method, flags, crc, size, stored)
        if key in seen:
            continue
        payload = _inflate(name, method, stored, size, crc)
        with where(name):
            if _holds_xml(payload) and payload not in seen:
                reports.extend(_parse_xml(payload))
                seen.add(payload)
        seen.add(key)
    return reports


def _central_directory(raw: bytes) -> list[tuple]:
    """The members of a ZIP page in name order, read from its end record and central directory.

    A member is ``(name, name bytes, method, flags, CRC, stored size, size,
    local header offset, end)``, where ``end`` is the next member's local
    header offset, or the directory's for the last member.  The end record
    is looked for as ``zipfile`` looks for it, and its comment must end the
    page.  Members are stored or deflated, with or without data
    descriptors, and central extra fields are passed over.

    A ``ParseError`` names the reason for a page that spans several disks,
    is zip64, holds bytes before the archive or has a directory that does
    not end at the end record.  It also names the member for one with a
    version needed above 6.3, a flag bit outside ``_PLAIN_FLAGS``, another
    method, a zip64 value, a name that does not decode or holds a NUL, or a
    local header that overruns the directory or that another member shares.
    """
    end = len(raw) - _END_RECORD.size
    if not raw.startswith(b"PK\x05\x06", end):
        end = raw.rfind(b"PK\x05\x06", max(end - (1 << 16), 0))
    # A signature within the comment may leave too few bytes for a record.
    if not 0 <= end <= len(raw) - _END_RECORD.size:
        raise _bad_page("no end of central directory record")
    disk, cd_disk, disk_count, count, cd_size, cd_offset, comment_len = (
        _END_RECORD.unpack_from(raw, end)
    )
    if end + _END_RECORD.size + comment_len != len(raw):
        raise _bad_page("the archive comment does not end the page")
    if disk or cd_disk or disk_count != count:
        raise _bad_page("the archive spans several disks")
    # zipfile looks for a zip64 locator right before the end record.
    if raw.startswith(b"PK\x06\x07", max(end - 20, 0)):
        raise _bad_page("zip64 archive")
    if cd_offset + cd_size < end:
        raise _bad_page("bytes before the archive")
    members = []
    offsets: set[int] = set()
    pos = cd_offset
    while pos + _CENTRAL_HEADER.size <= end:
        (
            signature, version, flags, method, crc, stored_size, size,
            name_len, extra_len, comment_len, offset,
        ) = _CENTRAL_HEADER.unpack_from(raw, pos)
        name_start = pos + _CENTRAL_HEADER.size
        raw_name = raw[name_start : name_start + name_len]
        pos = name_start + name_len + extra_len + comment_len
        if signature != b"PK\x01\x02":
            raise _bad_page("bad central directory record")
        try:
            # Bit 11 marks a UTF-8 name; an ASCII name reads alike in both
            # encodings, and UTF-8 decodes it faster.
            utf8 = flags & 0x800 or raw_name.isascii()
            name = raw_name.decode("utf-8" if utf8 else "cp437")
        except UnicodeDecodeError as exc:
            raise _bad_page(f"member name {raw_name!r} does not decode") from exc
        if "\x00" in name:
            raise _bad_page(f"member name {name!r} holds a NUL")
        if version > _MAX_VERSION:
            raise _bad_member(name, f"version needed to extract {version / 10:.1f}")
        if flags & ~_PLAIN_FLAGS:
            raise _bad_member(name, f"unsupported flag bits {flags:#06x}")
        if method not in (_STORED, _DEFLATED):
            raise _bad_member(name, f"unsupported compression method {method}")
        if _ZIP64_VALUE in (stored_size, size, offset):
            raise _bad_member(name, "zip64 size or offset")
        if offset + _LOCAL_HEADER.size > cd_offset:
            raise _bad_member(name, "local header overruns the central directory")
        if offset in offsets:
            raise _bad_member(name, "local header shared with another member")
        offsets.add(offset)
        members.append((name, raw_name, method, flags, crc, stored_size, size, offset))
    if (pos, cd_offset + cd_size, len(members)) != (end, end, count):
        raise _bad_page("the central directory does not end at the end record")
    ordered = sorted(offsets)
    ends = dict(zip(ordered, ordered[1:] + [cd_offset]))
    # A stable sort keeps same-named members in archive order.
    return sorted([(*member, ends[member[-1]]) for member in members], key=itemgetter(0))


def _inflate(name: str, method: int, stored: bytes, size: int, crc: int) -> bytes:
    """A member's payload from its stored bytes; a bad stream, length or CRC is a ``ParseError``."""
    payload = stored
    if method == _DEFLATED:
        try:
            payload = zlib.decompressobj(-15).decompress(stored, size + 1)
        except zlib.error as exc:
            raise _bad_member(name, f"bad deflate stream: {exc}") from exc
    if len(payload) != size or zlib.crc32(payload) != crc:
        raise _bad_member(name, "bad length or CRC-32")
    return payload


def _bad_page(reason: str) -> ParseError:
    return ParseError(f"corrupt ZIP payload: {reason}")


def _bad_member(name: str, reason: str) -> ParseError:
    return ParseError(f"{name}: unreadable ZIP member: {reason}")


def page_document_count(raw: bytes) -> int:
    """Number of documents in a page: 1 for a bare page, the member count of a ZIP page.

    The page is first read in full with ``parse_document``, so a page that
    ingest refuses is the same ``ParseError``.  Repeated members count, as
    the platform counts them when it pages.
    """
    parse_document(raw)
    return len(_central_directory(raw)) if raw[:4] == _ZIP_MAGIC else 1


# -- XML ---------------------------------------------------------------------


def _parse_xml(raw: bytes) -> list[OutageReport]:
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
        for report in _parse_timeseries(ts, doc_id, revision, status)
    ]


def _parse_timeseries(
    ts: ElementTree.Element, doc_id: str, revision: int, status: ReportStatus
) -> list[OutageReport]:
    ts_id = _field(ts, "mRID", f"document {doc_id}", _token, default="1")
    where = f"document {doc_id} TimeSeries {ts_id}"

    business = _field(ts, "businessType", where, default="")
    kind = BUSINESS_TYPE_MAP.get(business)
    if kind is None:
        logger.warning("%s: skipping record with unknown business type %r", where, business)
        return []

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
