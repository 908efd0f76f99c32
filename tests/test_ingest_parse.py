from __future__ import annotations

import io
import logging
import re
import struct
import zipfile
import zlib
from datetime import datetime, timezone
from unittest import mock
from xml.etree import ElementTree

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from outagekit.errors import InvalidInputError, ParseError
from outagekit.ingest import (
    OVERSIZE_FACTOR,
    OutageReport,
    ReportKind,
    ReportStatus,
    deduplicate,
    filter_reports,
    parse_document,
)
from outagekit.ingest import xmlparse
from outagekit.ingest.xmlparse import PSR_TYPE_MAP
from outagekit.types import Fuel, Renewable

from conftest import make_report
from corpusgen import _document, _timeseries

# -- XML documents -----------------------------------------------------------


def test_parse_simple_forced_outage():
    doc = _document("D1", 1, [
        _timeseries("1", "A54", "AA", "B04", "U1", 400,
                    ("2030-01-07T00:00Z", "2030-01-07T06:00Z"), "PT60M", [(1, 150)]),
    ])
    (r,) = parse_document(doc)
    assert r.report_id == "D1:1"
    assert r.revision == 1
    assert r.unit_id == "U1"
    assert r.fuel is Fuel.CCGT
    assert r.nominal_mw == 400.0
    assert r.start == datetime(2030, 1, 7, tzinfo=timezone.utc)
    assert r.end == datetime(2030, 1, 7, 6, tzinfo=timezone.utc)
    assert r.unavailable_mw == 250.0  # 400 nominal minus 150 still available
    assert r.kind is ReportKind.FORCED
    assert r.status is ReportStatus.ACTIVE


def test_parse_year_long_partial_outage():
    # A 500 MW unit derated to 15 MW available for an entire year.
    doc = _document("D1", 1, [
        _timeseries("1", "A53", "AA", "B14", "U1", 500,
                    ("2015-09-01T00:00Z", "2016-09-01T00:00Z"), "P1D", [(1, 15)]),
    ])
    (r,) = parse_document(doc)
    assert r.unavailable_mw == 485.0
    assert (r.end - r.start).days == 366


def test_parse_available_above_nominal_clamps_to_zero():
    doc = _document("D1", 1, [
        _timeseries("1", "A54", "AA", "B04", "U1", 400,
                    ("2030-01-07T00:00Z", "2030-01-07T01:00Z"), "PT60M", [(1, 430)]),
    ])
    (r,) = parse_document(doc)
    assert r.unavailable_mw == 0.0


def test_parse_withdrawn_status_preserved():
    doc = _document("D1", 3, [
        _timeseries("1", "A54", "AA", "B04", "U1", 400,
                    ("2030-01-07T00:00Z", "2030-01-07T01:00Z"), "PT60M", [(1, 0)]),
    ], doc_status="A13")
    (r,) = parse_document(doc)
    assert r.status is ReportStatus.WITHDRAWN
    assert r.revision == 3


def test_parse_cancelled_doc_status_is_withdrawn():
    doc = _document("D1", 1, [
        _timeseries("1", "A54", "AA", "B04", "U1", 400,
                    ("2030-01-07T00:00Z", "2030-01-07T01:00Z"), "PT60M", [(1, 0)]),
    ], doc_status="A09")
    (r,) = parse_document(doc)
    assert r.status is ReportStatus.WITHDRAWN


def test_parse_planned_business_type():
    doc = _document("D1", 1, [
        _timeseries("1", "A53", "AA", "B05", "U1", 300,
                    ("2030-01-07T00:00Z", "2030-01-07T01:00Z"), "PT60M", [(1, 0)]),
    ])
    (r,) = parse_document(doc)
    assert r.kind is ReportKind.PLANNED
    assert r.fuel is Fuel.COAL


def test_parse_unknown_business_type_skipped_with_warning(caplog):
    doc = _document("D1", 1, [
        _timeseries("1", "A46", "AA", "B04", "U1", 400,
                    ("2030-01-07T00:00Z", "2030-01-07T01:00Z"), "PT60M", [(1, 0)]),
        _timeseries("2", "A54", "AA", "B04", "U1", 400,
                    ("2030-01-07T01:00Z", "2030-01-07T02:00Z"), "PT60M", [(1, 0)]),
    ])
    with caplog.at_level(logging.WARNING, logger="outagekit.ingest.xmlparse"):
        reports = parse_document(doc)
    assert len(reports) == 1
    assert reports[0].report_id == "D1:2"
    assert "A46" in caplog.text


def test_parse_psr_type_map():
    cases = {
        "B01": Fuel.BIOMASS,
        "B02": Fuel.COAL,
        "B04": Fuel.CCGT,
        "B06": Fuel.OIL,
        "B10": Fuel.HYDRO,
        "B12": Fuel.HYDRO,
        "B14": Fuel.NUCLEAR,
        "B17": Fuel.WASTE,
        "B20": Fuel.CHP,
        "B11": Renewable.HYDRO_RUN_OF_RIVER,
        "B16": Renewable.SOLAR,
        "B18": Renewable.WIND_OFFSHORE,
        "B19": Renewable.WIND_ONSHORE,
    }
    for psr, fuel in cases.items():
        doc = _document("D1", 1, [
            _timeseries("1", "A54", "AA", psr, "U1", 100,
                        ("2030-01-07T00:00Z", "2030-01-07T01:00Z"), "PT60M", [(1, 0)]),
        ])
        (r,) = parse_document(doc)
        assert r.fuel is fuel, psr
    # every platform production type B01..B20 has a mapping
    assert set(PSR_TYPE_MAP) == {f"B{i:02d}" for i in range(1, 21)}


def test_parse_unknown_psr_type_rejected():
    doc = _document("D1", 1, [
        _timeseries("1", "A54", "AA", "B99", "U1", 100,
                    ("2030-01-07T00:00Z", "2030-01-07T01:00Z"), "PT60M", [(1, 0)]),
    ])
    with pytest.raises(ParseError, match="B99"):
        parse_document(doc)


def test_parse_point_fill_forward_sub_hourly():
    doc = _document("D1", 1, [
        _timeseries("1", "A54", "AA", "B04", "U1", 250,
                    ("2030-01-12T00:00Z", "2030-01-12T01:00Z"), "PT12M",
                    [(1, 200), (2, 50)]),
    ])
    reports = parse_document(doc)
    assert len(reports) == 2
    first, second = sorted(reports, key=lambda r: r.start)
    assert (first.start.minute, first.end.minute) == (0, 12)
    assert first.unavailable_mw == 50.0
    assert second.start.minute == 12 and second.end == datetime(
        2030, 1, 12, 1, tzinfo=timezone.utc
    )
    assert second.unavailable_mw == 200.0


def test_parse_point_fill_forward_with_position_gap():
    # Positions 1 and 3 on an hourly grid over four hours: the first value
    # holds for two hours, the second from hour three to the period end.
    doc = _document("D1", 1, [
        _timeseries("1", "A54", "AA", "B04", "U1", 400,
                    ("2030-01-07T00:00Z", "2030-01-07T04:00Z"), "PT60M",
                    [(1, 100), (3, 300)]),
    ])
    first, second = sorted(parse_document(doc), key=lambda r: r.start)
    assert (first.end - first.start).total_seconds() == 2 * 3600
    assert first.unavailable_mw == 300.0
    assert (second.end - second.start).total_seconds() == 2 * 3600
    assert second.unavailable_mw == 100.0


def test_parse_resolution_forms():
    for res, span_h in (("PT30M", 0.5), ("PT1H", 1.0), ("P1D", 24.0)):
        doc = _document("D1", 1, [
            _timeseries("1", "A54", "AA", "B04", "U1", 400,
                        ("2030-01-07T00:00Z", "2030-01-09T00:00Z"), res,
                        [(1, 0), (2, 400)]),
        ])
        first = min(parse_document(doc), key=lambda r: r.start)
        assert (first.end - first.start).total_seconds() == span_h * 3600, res


def test_parse_unsupported_resolution():
    doc = _document("D1", 1, [
        _timeseries("1", "A54", "AA", "B04", "U1", 400,
                    ("2030-01-07T00:00Z", "2030-01-07T01:00Z"), "PT7S", [(1, 0)]),
    ])
    with pytest.raises(ParseError, match="resolution"):
        parse_document(doc)


def test_parse_no_points_rejected():
    doc = _document("D1", 1, [
        _timeseries("1", "A54", "AA", "B04", "U1", 400,
                    ("2030-01-07T00:00Z", "2030-01-07T01:00Z"), "PT60M", []),
    ])
    with pytest.raises(ParseError, match="no Available_Period points"):
        parse_document(doc)


def test_parse_rejects_wrong_root():
    with pytest.raises(ParseError, match="root element"):
        parse_document(b"<Publication_MarketDocument><mRID>x</mRID></Publication_MarketDocument>")


def test_parse_rejects_malformed_xml():
    with pytest.raises(ParseError, match="malformed XML"):
        parse_document(b"<Unavailability_MarketDocument><mRID>")


def test_parse_rejects_missing_document_id():
    doc = (
        b'<?xml version="1.0"?><Unavailability_MarketDocument>'
        b"<revisionNumber>1</revisionNumber></Unavailability_MarketDocument>"
    )
    with pytest.raises(ParseError, match="mRID"):
        parse_document(doc)


def test_parse_empty_payload():
    assert parse_document(b"") == []
    assert parse_document(b"   \n") == []


def test_parse_unrecognized_payload():
    for raw in (b"capacity,outage\n1,2\n", b'{"report_id": "R1", "revision": 1}\n'):
        with pytest.raises(ParseError, match="^unrecognized payload: not ZIP or XML$"):
            parse_document(raw)


# -- ZIP pages ---------------------------------------------------------------


def _zip_of(payloads: list[bytes]) -> bytes:
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as zf:
        for i, payload in enumerate(payloads):
            zf.writestr(f"doc_{i}.xml", payload)
    return buf.getvalue()


def test_parse_zip_concatenates_documents():
    doc_a = _document("D1", 1, [
        _timeseries("1", "A54", "AA", "B04", "U1", 400,
                    ("2030-01-07T00:00Z", "2030-01-07T01:00Z"), "PT60M", [(1, 0)]),
    ])
    doc_b = _document("D2", 1, [
        _timeseries("1", "A53", "BB", "B05", "U2", 300,
                    ("2030-01-07T00:00Z", "2030-01-07T02:00Z"), "PT60M", [(1, 100)]),
    ])
    reports = parse_document(_zip_of([doc_a, doc_b]))
    assert {r.report_id for r in reports} == {"D1:1", "D2:1"}


def test_parse_zip_propagates_member_errors():
    bad = _document("D1", 1, [
        _timeseries("1", "A54", "AA", "B99", "U1", 400,
                    ("2030-01-07T00:00Z", "2030-01-07T01:00Z"), "PT60M", [(1, 0)]),
    ])
    with pytest.raises(ParseError, match="doc_0.xml"):
        parse_document(_zip_of([bad]))


def test_parse_corrupt_zip():
    with pytest.raises(ParseError, match="ZIP"):
        parse_document(b"PK\x03\x04garbage-that-is-not-a-zip")


STORED = (zipfile.ZIP_STORED, None)
DEFLATE_1 = (zipfile.ZIP_DEFLATED, 1)
DEFLATE_9 = (zipfile.ZIP_DEFLATED, 9)
BZIP2 = (zipfile.ZIP_BZIP2, 9)
LZMA = (zipfile.ZIP_LZMA, None)


class _Unseekable:
    """A write-only stream, so that ``zipfile`` writes a data descriptor after each member."""

    def __init__(self, buf: io.BytesIO):
        self.write, self.flush = buf.write, buf.flush


#: page shapes that ``zipfile`` writes and the central directory reader takes
PAGE_SHAPES = ("plain", "data_descriptors", "comment", "extra_fields")

#: extra fields for every member's headers: an extended timestamp (0x5455)
#: and an Info-ZIP Unix owner (0x7875)
EXTRA_FIELDS = (
    struct.pack("<HHBI", 0x5455, 5, 1, 1_900_000_000)
    + struct.pack("<HHBBIBI", 0x7875, 11, 1, 4, 1000, 4, 1000)
)


def _zip_members(
    members: list[tuple[bytes, tuple[int, int | None]]], shape: str = "plain"
) -> bytes:
    """A ZIP page of (payload, (compression method, level)) members in one of ``PAGE_SHAPES``."""
    buf = io.BytesIO()
    with zipfile.ZipFile(_Unseekable(buf) if shape == "data_descriptors" else buf, "w") as zf:
        for i, (payload, (method, level)) in enumerate(members):
            info = zipfile.ZipInfo(f"doc_{i}.xml")
            if shape == "extra_fields":
                info.extra = EXTRA_FIELDS
            zf.writestr(info, payload, compress_type=method, compresslevel=level)
        if shape == "comment":
            zf.comment = b"served by the platform"
    return buf.getvalue()


#: offset and format of a field in a ZIP local header; the central
#: directory header holds the same field two bytes further on
_HEADER_FIELDS = {
    "flags": (6, "<H"),
    "method": (8, "<H"),
    "crc": (14, "<I"),
    "compress_size": (18, "<I"),
    "file_size": (22, "<I"),
}


def _patched(page: bytes, member: int = 0, **fields: int) -> bytes:
    """``page`` with header fields of one member set in both of its headers."""
    with zipfile.ZipFile(io.BytesIO(page)) as zf:
        local = zf.infolist()[member].header_offset
    central = [m.start() for m in re.finditer(b"PK\x01\x02", page)][member]
    out = bytearray(page)
    for field, value in fields.items():
        offset, fmt = _HEADER_FIELDS[field]
        struct.pack_into(fmt, out, local + offset, value)
        struct.pack_into(fmt, out, central + offset + 2, value)
    return bytes(out)


def _bad_deflate_stream() -> bytes:
    page = bytearray(_zip_members([(_doc("D1"), DEFLATE_1)]))
    # first deflate block header: final block, block type 3 (reserved)
    page[30 + len("doc_0.xml")] = 0x07
    return bytes(page)


def _stored_page() -> bytes:
    return _zip_members([(_doc("D1"), STORED)])


BAD_MEMBERS = {
    "invalid_deflate": (_bad_deflate_stream, "invalid block type"),
    "method_99": (lambda: _patched(_stored_page(), method=99), "compression method"),
    "encrypted": (lambda: _patched(_stored_page(), flags=0x1), "flag bits 0x0001"),
    "truncated": (
        lambda: _patched(
            _stored_page(), compress_size=len(_doc("D1")) + 500, file_size=len(_doc("D1")) + 500
        ),
        "stored bytes run into the next header",
    ),
}


@pytest.mark.parametrize("case", list(BAD_MEMBERS))
def test_parse_bad_zip_member_is_a_parse_error_naming_it(case):
    build, reason = BAD_MEMBERS[case]
    with pytest.raises(ParseError, match=rf"doc_0\.xml: unreadable ZIP member: .*{reason}"):
        parse_document(build())


def _central_offset(page: bytes) -> int:
    """Offset of the first central directory header, read from the end record."""
    return struct.unpack_from("<I", page, len(page) - 6)[0]


def _version_above_63() -> bytes:
    page = bytearray(_stored_page())
    page[_central_offset(page) + 6] = 0xFF  # version needed to extract: 25.5
    return bytes(page)


def _utf8_flag_with_a_name_that_is_not_utf8() -> bytes:
    page = bytearray(_patched(_stored_page(), flags=0x800))
    page[30] = page[_central_offset(page) + 46] = 0xFF  # first name byte of both headers
    return bytes(page)


def _directory_offset_too_large() -> bytes:
    page = bytearray(_stored_page())
    struct.pack_into("<I", page, len(page) - 6, _central_offset(page) + 5)
    return bytes(page)


def _local_headers_past_the_directory() -> bytes:
    """A two-member page whose central records put both local headers past
    the page end, 100 bytes apart, so that the second does not bound the first."""
    page = bytearray(_zip_by_hand([
        ("doc_0.xml", _doc("D1"), zipfile.ZIP_DEFLATED, False),
        ("doc_1.xml", _doc("D2"), zipfile.ZIP_DEFLATED, False),
    ]))
    for i, record in enumerate(m.start() for m in re.finditer(b"PK\x01\x02", page)):
        struct.pack_into("<I", page, record + 42, 70_000 + 100 * i)
    return bytes(page)


def _prepended() -> bytes:
    # bytes before the archive, starting with a local header signature so
    # that the page is still taken for a ZIP page
    return b"PK\x03\x04 stray bytes" + _stored_page()


def _zip64() -> bytes:
    """A page that ``zipfile`` writes in zip64 form: a zip64 end record and
    locator, and zip64 values for every member."""
    buf = io.BytesIO()
    with mock.patch.object(zipfile, "ZIP64_LIMIT", 16):
        with zipfile.ZipFile(buf, "w") as zf:
            zf.writestr("doc_0.xml", _doc("D1"))
    return buf.getvalue()


def _with_comment(comment: bytes) -> bytes:
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as zf:
        zf.writestr("doc_0.xml", _doc("D1"))
        zf.comment = comment
    return buf.getvalue()


#: pages the central directory reader refuses -> what the ParseError says
DAMAGED_PAGES = {
    "version_above_6.3": (
        _version_above_63, r"doc_0\.xml: unreadable ZIP member: version needed to extract 25\.5"
    ),
    "name_not_utf8": (
        _utf8_flag_with_a_name_that_is_not_utf8,
        r"corrupt ZIP payload: member name b'\\xffoc_0\.xml' does not decode",
    ),
    "directory_offset_too_large": (
        _directory_offset_too_large, "corrupt ZIP payload: bad central directory record"
    ),
    "name_holding_a_nul": (
        lambda: _zip_by_hand([("doc\x00.xml", _doc("D1"), zipfile.ZIP_STORED, False)]),
        r"corrupt ZIP payload: member name 'doc\\x00\.xml' holds a NUL",
    ),
    "local_headers_past_the_directory": (
        _local_headers_past_the_directory,
        r"doc_0\.xml: unreadable ZIP member: local header overruns the central directory",
    ),
    "prepended": (_prepended, "corrupt ZIP payload: bytes before the archive"),
    "bzip2": (
        lambda: _zip_members([(_doc("D1"), BZIP2)]),
        r"doc_0\.xml: unreadable ZIP member: unsupported compression method 12",
    ),
    "lzma": (
        lambda: _zip_members([(_doc("D1"), LZMA)]),
        r"doc_0\.xml: unreadable ZIP member: unsupported compression method 14",
    ),
    "zip64": (_zip64, "corrupt ZIP payload: zip64 archive"),
    "zip64_size": (
        lambda: _patched(_stored_page(), compress_size=0xFFFF_FFFF),
        r"doc_0\.xml: unreadable ZIP member: zip64 size or offset",
    ),
    # zipfile takes the last end record signature within a comment's reach
    "signature_ending_the_comment": (
        lambda: _with_comment(b"served by PK\x05\x06"),
        "corrupt ZIP payload: no end of central directory record",
    ),
    "signature_within_the_comment": (
        lambda: _with_comment(b"PK\x05\x06" + bytes(24)),
        "corrupt ZIP payload: the archive comment does not end the page",
    ),
    "comment_shorter_than_stated": (
        lambda: _with_comment(b"served by the platform")[:-1],
        "corrupt ZIP payload: the archive comment does not end the page",
    ),
}


@pytest.mark.parametrize("case", list(DAMAGED_PAGES))
def test_parse_damaged_zip_page_is_a_parse_error(case):
    build, message = DAMAGED_PAGES[case]
    with pytest.raises(ParseError, match=message):
        parse_document(build())
    with pytest.raises(ParseError, match=message):
        xmlparse.page_document_count(build())


def test_central_directory_lists_the_members_zipfile_lists():
    members = [(_doc("D1"), DEFLATE_1), (_doc("D2"), STORED)]
    for page in [_zip_members(members, shape) for shape in PAGE_SHAPES] + [DAMAGE_PAGE]:
        with zipfile.ZipFile(io.BytesIO(page)) as zf:
            listed = [
                (i.filename, i.compress_type, i.flag_bits, i.CRC, i.compress_size, i.file_size,
                 i.header_offset)
                for i in sorted(zf.infolist(), key=lambda i: i.filename)
            ]
        directory = xmlparse._central_directory(page)
        assert [(name, *fields) for name, _, *fields, _ in directory] == listed


def _deflated(payload: bytes) -> bytes:
    packer = zlib.compressobj(6, zlib.DEFLATED, -15)
    return packer.compress(payload) + packer.flush()


def _zip_by_hand(members: list[tuple[str, bytes, int, bool]]) -> bytes:
    """A ZIP page of (name, payload, method, data descriptor) members.

    ``zipfile`` writes a data descriptor after every member of a page or
    after none; this writer chooses per member.
    """
    body, directory = bytearray(), bytearray()
    for name, payload, method, descriptor in members:
        raw_name = name.encode("utf-8")
        flags = (0x8 if descriptor else 0) | (0 if raw_name.isascii() else 0x800)
        stored = _deflated(payload) if method == zipfile.ZIP_DEFLATED else payload
        sizes = (zlib.crc32(payload), len(stored), len(payload))
        local_sizes = (0, 0, 0) if descriptor else sizes
        offset = len(body)
        body += struct.pack(
            "<4s5H3I2H", b"PK\x03\x04", 20, flags, method, 0, 0x5C21, *local_sizes,
            len(raw_name), 0,
        )
        body += raw_name + stored
        if descriptor:
            body += struct.pack("<4s3I", b"PK\x07\x08", *sizes)
        directory += struct.pack(
            "<4s6H3I5H2I", b"PK\x01\x02", 20, 20, flags, method, 0, 0x5C21, *sizes,
            len(raw_name), 0, 0, 0, 0, 0, offset,
        )
        directory += raw_name
    end = struct.pack(
        "<4s4H2IH", b"PK\x05\x06", 0, 0, len(members), len(members), len(directory), len(body), 0
    )
    return bytes(body + directory + end)


def test_parse_duplicate_named_members_reads_each():
    buf = io.BytesIO()
    with pytest.warns(UserWarning, match="Duplicate name"):
        with zipfile.ZipFile(buf, "w") as zf:
            zf.writestr("a.xml", _doc("D1"))
            zf.writestr("a.xml", _doc("D2"))
    assert [r.report_id for r in parse_document(buf.getvalue())] == ["D1:1", "D2:1"]


# -- documents already parsed ------------------------------------------------


def _doc(doc_id: str, business: str = "A54") -> bytes:
    return _document(doc_id, 1, [
        _timeseries("1", business, "AA", "B04", "U1", 400,
                    ("2030-01-07T00:00Z", "2030-01-07T01:00Z"), "PT60M", [(1, 0)]),
    ])


BOM = b"\xef\xbb\xbf"  # UTF-8 byte-order mark


def test_zip_member_is_read_by_the_bare_page_rule():
    """A member holding only whitespace is skipped; any other member that is
    not XML, a byte-order mark after whitespace or a second one included, is
    refused, not dropped, at ingest and at fetch."""
    blank = _zip_of([_doc("D1"), b" \n"])
    assert [r.report_id for r in parse_document(blank)] == ["D1:1"]
    assert xmlparse.page_document_count(blank) == 2
    for member in (b"garbage", b" " + BOM + _doc("D2"), BOM + BOM + _doc("D2")):
        page = _zip_of([_doc("D1"), member])
        for read in (parse_document, xmlparse.page_document_count):
            with pytest.raises(ParseError, match=r"^doc_1\.xml: unrecognized payload"):
                read(page)


def test_byte_order_mark_before_xml_is_skipped():
    """XML 1.0 (Appendix F) allows one UTF-8 byte-order mark before a document."""
    doc, other = _doc("D1"), _doc("D2")
    pairs = [(BOM + doc, doc), (_zip_of([BOM + doc, other]), _zip_of([doc, other]))]
    for with_bom, plain in pairs:
        assert parse_document(with_bom) == parse_document(plain) != []
        assert xmlparse.page_document_count(with_bom) == xmlparse.page_document_count(plain)
    assert parse_document(BOM + b"\n") == []  # a mark before whitespace: an empty page
    assert xmlparse.page_document_count(BOM) == 1


def test_seen_bare_document_parsed_once():
    seen: set[bytes] = set()
    doc = _doc("D1")
    first = parse_document(doc, seen=seen)
    assert [r.report_id for r in first] == ["D1:1"]
    assert seen == {doc}
    assert parse_document(doc, seen=seen) == []
    assert parse_document(doc) == first  # no set: parse every time


def test_seen_zip_members_skipped_individually():
    seen: set[bytes | tuple] = set()
    doc_a, doc_b, doc_c = _doc("D1"), _doc("D2"), _doc("D3")
    parse_document(_zip_of([doc_a, doc_b]), seen=seen)
    assert {e for e in seen if isinstance(e, bytes)} == {doc_a, doc_b}
    assert sum(isinstance(e, tuple) for e in seen) == 2  # one member key per member
    assert len(seen) == 4
    again = parse_document(_zip_of([doc_b, doc_c]), seen=seen)
    assert [r.report_id for r in again] == ["D3:1"]
    assert parse_document(doc_c, seen=seen) == []  # served bare later


def test_document_repeated_within_a_zip_parsed_once_without_a_set():
    doc = _doc("D1")
    assert [r.report_id for r in parse_document(_zip_of([doc, doc]))] == ["D1:1"]


def test_seen_unknown_business_type_warned_once(caplog):
    seen: set[bytes] = set()
    doc = _doc("D1", business="A46")
    with caplog.at_level(logging.WARNING, logger="outagekit.ingest.xmlparse"):
        for _ in range(3):
            assert parse_document(doc, seen=seen) == []
    assert caplog.text.count("unknown business type") == 1


def test_seen_unparseable_document_not_recorded():
    seen: set[bytes] = set()
    bad = b"<wrong_root/>"
    for _ in range(2):
        with pytest.raises(ParseError, match="root"):
            parse_document(bad, seen=seen)
    assert seen == set()


def _counting(monkeypatch, owner: object, attr: str) -> list[int]:
    """Count calls of ``owner.attr``; the returned list holds the count."""
    original = getattr(owner, attr)
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, attr, counted)
    return calls


def test_seen_zip_member_skipped_before_inflating(monkeypatch):
    inflates = _counting(monkeypatch, xmlparse, "_inflate")
    for shape in PAGE_SHAPES:
        page = _zip_members([(_doc("D1"), DEFLATE_1), (_doc("D2"), DEFLATE_9)], shape)
        seen: set[bytes | tuple] = set()
        inflates[0] = 0
        assert len(parse_document(page, seen=seen)) == 2
        assert inflates == [2], shape
        assert parse_document(page, seen=seen) == []
        assert inflates == [2], shape


def test_seen_document_compressed_differently_parsed_once(monkeypatch):
    doc = _doc("D1")
    pages = [_zip_members([(doc, level)]) for level in (DEFLATE_1, DEFLATE_9, STORED)]
    parses = _counting(monkeypatch, xmlparse, "_parse_xml")
    inflates = _counting(monkeypatch, xmlparse, "_inflate")
    seen: set[bytes | tuple] = set()
    served = [parse_document(page, seen=seen) for page in pages]
    assert [len(reports) for reports in served] == [1, 0, 0]
    assert parses == [1]
    assert inflates == [3]  # no serving hit an earlier serving's member key
    keys = [e for e in seen if isinstance(e, tuple)]
    assert len({key[-1] for key in keys}) == 3
    assert {e for e in seen if isinstance(e, bytes)} == {doc}


def test_seen_member_with_same_stored_bytes_but_another_crc_is_rejected():
    page = _stored_page()
    with zipfile.ZipFile(io.BytesIO(page)) as zf:
        crc = zf.infolist()[0].CRC
    bad = _patched(page, crc=crc ^ 1)
    seen: set[bytes | tuple] = set()
    assert len(parse_document(page, seen=seen)) == 1
    with pytest.raises(ParseError, match=r"doc_0\.xml: unreadable ZIP member: bad length or CRC"):
        parse_document(bad, seen=seen)
    with pytest.raises(ParseError, match="bad length or CRC"):
        parse_document(bad)


def _damage_local_header(page: bytes, damage: str) -> bytes:
    """``page`` with the second member's local header damaged as zipfile refuses."""
    if damage == "encrypted_flag":
        return _patched(page, member=1, flags=0x1)
    with zipfile.ZipFile(io.BytesIO(page)) as zf:
        local = zf.infolist()[1].header_offset
    out = bytearray(page)
    if damage == "signature":
        out[local + 3] = 0x05
    else:  # the name: doc_1.xml -> doc_X.xml
        out[local + 30 + 4] = ord("X")
    return bytes(out)


@pytest.mark.parametrize("damage", ["signature", "name", "encrypted_flag"])
def test_seen_member_with_a_header_zipfile_refuses_is_still_rejected(damage):
    # the damaged member's stored bytes equal those of a member already seen
    page = _zip_members([(_doc("D1"), DEFLATE_1), (_doc("D2"), DEFLATE_1)])
    bad = _damage_local_header(page, damage)
    seen: set[bytes | tuple] = set()
    assert len(parse_document(page, seen=seen)) == 2
    with pytest.raises(ParseError, match=r"doc_1\.xml: unreadable ZIP member"):
        parse_document(bad, seen=seen)
    with pytest.raises(ParseError, match=r"doc_1\.xml: unreadable ZIP member"):
        parse_document(bad)


#: documents a page may carry: revisions, an unknown business type, and a
#: member that holds only whitespace
MIXTURE_DOCS = [
    _doc("D1"),
    _document("D1", 2, [
        _timeseries("1", "A54", "AA", "B04", "U1", 400,
                    ("2030-01-07T00:00Z", "2030-01-07T03:00Z"), "PT60M", [(1, 100)]),
    ]),
    _doc("D2", business="A53"),
    _doc("D3", business="A46"),
    b" \n",
]


@settings(max_examples=60, deadline=None)
@given(
    pages=st.lists(
        st.tuples(
            st.lists(
                st.tuples(
                    st.integers(0, len(MIXTURE_DOCS) - 1),
                    st.sampled_from([STORED, DEFLATE_1, DEFLATE_9]),
                ),
                min_size=1,
                max_size=4,
            ),
            st.booleans(),
            st.sampled_from(PAGE_SHAPES),
        ),
        min_size=1,
        max_size=6,
    ),
    data=st.data(),
)
def test_seen_skipping_matches_parsing_every_page(pages, data):
    raw_pages = []
    for members, bare, shape in pages:
        if bare and len(members) == 1 and MIXTURE_DOCS[members[0][0]].startswith(b"<"):
            raw_pages.append(MIXTURE_DOCS[members[0][0]])
        else:
            raw_pages.append(_zip_members([(MIXTURE_DOCS[i], how) for i, how in members], shape))
    order = data.draw(st.permutations(range(len(raw_pages))))
    seen: set[bytes | tuple] = set()
    skipping = [r for k in order for r in parse_document(raw_pages[k], seen=seen)]
    every_page = [r for page in raw_pages for r in parse_document(page)]
    assert deduplicate(skipping) == deduplicate(every_page)


#: a page that mixes deflated and stored members, with and without
#: data descriptors, and has UTF-8 names
DAMAGE_PAGE = _zip_by_hand([
    ("doc_0.xml", MIXTURE_DOCS[0], zipfile.ZIP_DEFLATED, False),
    ("doc_1.xml", MIXTURE_DOCS[1], zipfile.ZIP_STORED, True),
    ("döc_2.xml", MIXTURE_DOCS[2], zipfile.ZIP_DEFLATED, True),
    ("doc_3.xml", MIXTURE_DOCS[3], zipfile.ZIP_STORED, False),
    ("dóc_4.xml", MIXTURE_DOCS[4], zipfile.ZIP_DEFLATED, False),
    ("doc_5.xml", _doc("D4"), zipfile.ZIP_DEFLATED, True),
    ("doc_6.xml", MIXTURE_DOCS[0], zipfile.ZIP_DEFLATED, False),
])

_DIRECTORY = _central_offset(DAMAGE_PAGE)
_END = len(DAMAGE_PAGE) - 22
with zipfile.ZipFile(io.BytesIO(DAMAGE_PAGE)) as _zf:
    _LOCAL_HEADERS = [
        info.header_offset + i
        for info in _zf.infolist()
        for i in range(30 + len(info.filename.encode()))
    ]
#: where a flipped byte may fall; local headers are drawn on their own too,
#: as they are a small part of the members
DAMAGE_REGIONS = {
    "members": range(_DIRECTORY),
    "local headers": _LOCAL_HEADERS,
    "central directory": range(_DIRECTORY, _END),
    "end record": range(_END, len(DAMAGE_PAGE)),
}


def _reports_or_error(page: bytes, seen: set[bytes | tuple]) -> list[OutageReport] | str:
    try:
        return parse_document(page, seen=seen)
    except ParseError as exc:
        return f"ParseError: {exc}"


def _zipfile_reports(page: bytes, seen: set[bytes | tuple]) -> list[OutageReport]:
    """The reports of a ZIP page as ``zipfile`` reads it: the oracle of the
    central directory reader.  Members go in name order, and each member is
    parsed as a bare page, so ``seen`` skips it by its payload."""
    with zipfile.ZipFile(io.BytesIO(page)) as zf:
        # A stable sort keeps same-named members in archive order.
        payloads = [zf.read(info) for info in sorted(zf.infolist(), key=lambda i: i.filename)]
    return [
        report
        for payload in payloads
        for report in parse_document(payload, seen=seen)
    ]


@settings(max_examples=400, deadline=None)
@given(data=st.data(), after_the_intact_page=st.booleans())
def test_damaged_page_reads_as_zipfile_alone_reads_it(data, after_the_intact_page):
    """A damaged page is a ``ParseError``, or it gives exactly the reports
    that ``zipfile`` reads from it; any other exception fails."""
    page = bytearray(DAMAGE_PAGE)
    for _ in range(data.draw(st.integers(0, 3), label="flips")):
        region = DAMAGE_REGIONS[data.draw(st.sampled_from(sorted(DAMAGE_REGIONS)))]
        page[data.draw(st.sampled_from(region))] ^= data.draw(st.integers(1, 255))
    if data.draw(st.integers(0, 3), label="truncate") == 0:
        del page[data.draw(st.integers(4, len(page) - 1)):]
    seen: set[bytes | tuple] = set()
    if after_the_intact_page:
        parse_document(DAMAGE_PAGE, seen=seen)
    reports = _reports_or_error(bytes(page), set(seen))
    if not isinstance(reports, str):
        assert reports == _zipfile_reports(bytes(page), set(seen))
    # fetch refuses a page exactly when ingest does; of XML, fetch checks
    # only the root, so a page damaged into bare XML is the one exception
    try:
        xmlparse.page_document_count(bytes(page))
    except ParseError:
        fetch_refuses = True
    else:
        fetch_refuses = False
    if not page.lstrip().startswith(b"<"):
        assert fetch_refuses == isinstance(_reports_or_error(bytes(page), set()), str)


def _stored_size_raised(member: int) -> bytes:
    """A two-member page whose ``member``'s stored size in the central
    directory runs 4 bytes into the next local header or the directory."""
    page = bytearray(_zip_by_hand([
        ("doc_0.xml", _doc("D1"), zipfile.ZIP_DEFLATED, False),
        ("doc_1.xml", _doc("D2"), zipfile.ZIP_DEFLATED, False),
    ]))
    record = [m.start() for m in re.finditer(b"PK\x01\x02", page)][member]
    struct.pack_into("<I", page, record + 20, struct.unpack_from("<I", page, record + 20)[0] + 4)
    return bytes(page)


def _two_records_for_one_local_header() -> bytes:
    page = bytearray(_zip_by_hand([("doc_0.xml", _doc("D1"), zipfile.ZIP_DEFLATED, False)] * 2))
    second = [m.start() for m in re.finditer(b"PK\x01\x02", page)][1]
    struct.pack_into("<I", page, second + 42, 0)  # the first member's local header offset
    return bytes(page)


#: case -> (page, the member the ParseError names and why)
OVERLAPPING_PAGES = {
    "into_the_next_local_header": (lambda: _stored_size_raised(0), "doc_0.xml", "stored bytes"),
    "into_the_central_directory": (lambda: _stored_size_raised(1), "doc_1.xml", "stored bytes"),
    "two_records_for_one_local_header": (
        _two_records_for_one_local_header, "doc_0.xml", "local header shared"
    ),
}


@pytest.mark.parametrize("case", list(OVERLAPPING_PAGES))
def test_overlapping_members_read_as_zipfile_alone_reads_them(case):
    """``zipfile`` refuses overlapping members from Python 3.11.8 and 3.12.2
    on, and reads them before.  The deflate stream ends before the raised
    size, so its length and CRC still match; the page is a ``ParseError``
    naming the member on every Python."""
    build, name, reason = OVERLAPPING_PAGES[case]
    with pytest.raises(ParseError, match=rf"^{re.escape(name)}: unreadable ZIP member: {reason}"):
        parse_document(build())


def test_seen_unparseable_zip_member_not_recorded():
    seen: set[bytes | tuple] = set()
    page = _zip_members([(b"<wrong_root/>", DEFLATE_1)])
    for _ in range(2):
        with pytest.raises(ParseError, match="doc_0.xml: unexpected root"):
            parse_document(page, seen=seen)
    assert seen == set()


# -- revision handling -------------------------------------------------------


def test_deduplicate_keeps_highest_revision():
    rows = [
        make_report("a", revision=1, unavailable_mw=400.0),
        make_report("a", revision=2, unavailable_mw=350.0),
    ]
    kept = deduplicate(rows)
    assert len(kept) == 1
    assert kept[0].revision == 2
    assert kept[0].unavailable_mw == 350.0


def test_deduplicate_collapses_identical_rows():
    rows = [make_report("a"), make_report("a"), make_report("a")]
    assert len(deduplicate(rows)) == 1


def test_deduplicate_keeps_distinct_rows_of_same_revision():
    # One revision can legitimately carry several intervals.
    rows = [
        make_report("a", start_h=0, end_h=1),
        make_report("a", start_h=1, end_h=2),
    ]
    assert len(deduplicate(rows)) == 2


def test_deduplicate_canonical_order():
    rows = [
        make_report("c", unit_id="u2", start_h=5, end_h=6),
        make_report("b", unit_id="u1", start_h=3, end_h=4),
        make_report("a", unit_id="u1", start_h=0, end_h=1),
    ]
    kept = deduplicate(list(reversed(rows)))
    assert [r.report_id for r in kept] == ["a", "b", "c"]


def test_deduplicate_revisions_scoped_per_report_id():
    rows = [
        make_report("a", revision=5),
        make_report("b", revision=1, start_h=2, end_h=3),
    ]
    assert len(deduplicate(rows)) == 2


# -- plausibility filters ----------------------------------------------------


def test_filter_drops_withdrawn():
    rows = [make_report("a"), make_report("b", status=ReportStatus.WITHDRAWN)]
    kept = filter_reports(rows)
    assert [r.report_id for r in kept] == ["a"]


def test_filter_drops_renewables():
    rows = [
        make_report("a", fuel=Renewable.WIND_ONSHORE),
        make_report("b", fuel=Renewable.SOLAR),
        make_report("c", fuel=Fuel.HYDRO),
    ]
    kept = filter_reports(rows)
    assert [r.report_id for r in kept] == ["c"]


def test_filter_drops_oversize_reports():
    rows = [
        make_report("a", nominal_mw=750.0, unavailable_mw=1500.0),  # 200% of nominal
        make_report("b", nominal_mw=750.0, unavailable_mw=800.0),  # within 133%
    ]
    kept = filter_reports(rows)
    assert [r.report_id for r in kept] == ["b"]


def test_filter_oversize_boundary_kept():
    r = make_report("a", nominal_mw=300.0, unavailable_mw=OVERSIZE_FACTOR * 300.0)
    assert filter_reports([r]) == [r]


def test_filter_keeps_full_outages():
    r = make_report("a", nominal_mw=400.0, unavailable_mw=400.0)
    assert filter_reports([r]) == [r]


# -- reports rejected by type and value --------------------------------------


@pytest.mark.parametrize("revision", [0, -1, True, 1.0])
def test_report_rejects_a_revision_that_is_not_a_count(revision):
    with pytest.raises(InvalidInputError, match="revision must be an integer >= 1"):
        make_report(revision=revision)


def _one_point_document(revision="1", nominal="400", resolution="PT60M", point=("1", "150")):
    return _document("D1", revision, [
        _timeseries("1", "A54", "AA", "B04", "U1", nominal,
                    ("2030-01-07T00:00Z", "2030-01-07T06:00Z"), resolution, [point]),
    ])


# int() and float() accept digit-group underscores; XML numbers do not
@pytest.mark.parametrize(
    "fields",
    [
        dict(revision="1_2"),
        dict(nominal="4_00"),
        dict(point=("1", "1_50")),
        dict(point=("1_0", "150")),
        dict(resolution="PT1_5M"),
    ],
    ids=["revisionNumber", "nominalP", "quantity", "position", "resolution"],
)
def test_parse_rejects_digit_group_underscores(fields):
    (text,) = [v for v in [*fields.values(), *fields.get("point", ())] if "_" in v]
    with pytest.raises(ParseError, match=rf"document D1\b.*{text}"):
        parse_document(_one_point_document(**fields))


def test_parse_accepts_whitespace_around_numbers():
    doc = _one_point_document(
        revision=" 2\n", nominal="\t400 ", resolution=" PT60M ", point=(" 1 ", " 150.5\n")
    )
    (r,) = parse_document(doc)
    assert (r.revision, r.nominal_mw, r.unavailable_mw) == (2, 400.0, 249.5)
    assert (r.end - r.start).total_seconds() == 6 * 3600


@pytest.mark.parametrize("text", ["NaN", "inf", "-Infinity"])
@pytest.mark.parametrize("where", ["nominalP", "quantity"])
def test_parse_rejects_non_finite_power(where, text):
    nominal, quantity = (text, 150) if where == "nominalP" else (400, text)
    doc = _document("D1", 1, [
        _timeseries("1", "A54", "AA", "B04", "U1", nominal,
                    ("2030-01-07T00:00Z", "2030-01-07T06:00Z"), "PT60M", [(1, quantity)]),
    ])
    with pytest.raises(ParseError, match=f"document D1 TimeSeries 1: bad .*{text}"):
        parse_document(doc)


#: a valid document whose every field a hostile text may replace: two points
#: on an hourly grid over a 6-hour period of a 400 MW unit
GRID_DOC = _document("D1", 1, [
    _timeseries("1", "A54", "AA", "B04", "U1", 400,
                ("2030-01-07T00:00Z", "2030-01-07T06:00Z"), "PT60M", [(1, 100), (2, 300)]),
])


def _with_text(doc: bytes, tag: str, text: str, nth: int = 0) -> bytes:
    """``doc`` with the text of its ``nth`` element ``tag`` replaced by ``text``."""
    name = re.escape(tag.encode())
    m = list(re.finditer(rb"(<%s(?: [^>]*)?>)[^<]*(</%s>)" % (name, name), doc))[nth]
    return doc[: m.end(1)] + text.encode() + doc[m.start(2) :]


@pytest.mark.parametrize(
    "tag, nth, text, message",
    [
        ("revisionNumber", 0, "", "bad revisionNumber ''"),
        ("resolution", 0, "", "bad resolution ''"),
        ("revisionNumber", 0, "0", "bad revisionNumber '0'"),
        ("revisionNumber", 0, "-1", "bad revisionNumber '-1'"),
        ("resolution", 0, "PT0M", "bad resolution 'PT0M'"),
        ("resolution", 0, "PT-60M", "bad resolution 'PT-60M'"),
        ("position", 0, "0", "bad position '0'"),
        ("position", 0, "-3", "bad position '-3'"),
        ("position", 1, "1", "repeated position 1"),
        ("end", 0, "2030-13-07T06:00Z", "bad end '2030-13-07T06:00Z'"),
        ("position", 1, str(10**12), "position 1000000000000 is past the calendar's end"),
        ("resolution", 0, "PT99999999999999M", "bad resolution 'PT99999999999999M'"),
        ("resolution", 0, "P999999999D", "position 2 is past the calendar's end"),
    ],
    ids=[
        "empty_revisionNumber",
        "empty_resolution",
        "revision_0",
        "revision_-1",
        "resolution_PT0M",
        "resolution_PT-60M",
        "position_0",
        "position_-3",
        "repeated_position",
        "bad_end_timestamp",
        "position_overflow",
        "resolution_overflow",
        "grid_overflow",
    ],
)
def test_parse_rejects_a_bad_field(tag, nth, text, message):
    with pytest.raises(ParseError, match=rf"^document D1\b.*{re.escape(message)}"):
        parse_document(_with_text(GRID_DOC, tag, text, nth))


#: (tag, nth) of every field of GRID_DOC but the document's own mRID, which
#: names the document
GRID_FIELDS = [
    ("revisionNumber", 0),
    ("mRID", 1),
    ("businessType", 0),
    ("production_RegisteredResource.mRID", 0),
    ("production_RegisteredResource.pSRType.psrType", 0),
    ("production_RegisteredResource.pSRType.powerSystemResources.mRID", 0),
    ("production_RegisteredResource.pSRType.powerSystemResources.nominalP", 0),
    ("start", 0),
    ("end", 0),
    ("resolution", 0),
    ("position", 0),
    ("position", 1),
    ("quantity", 0),
    ("quantity", 1),
]

HOSTILE_TEXTS = [
    "", " ", "0", "-1", "1" * 30, "1_0", "٣", "nan", "2030-13-07T06:00Z", "PT0M", "P999999999D",
]


@settings(max_examples=200, deadline=None)
@given(field=st.sampled_from(GRID_FIELDS), text=st.sampled_from(HOSTILE_TEXTS))
def test_parse_hostile_field_gives_reports_or_a_parse_error(field, text):
    tag, nth = field
    doc = _with_text(GRID_DOC, tag, text, nth)
    try:
        reports = parse_document(doc)
    except ParseError as exc:
        assert re.match(r"document D1\b", str(exc)), exc
        # fetch counts a page with the reader ingest uses, so it refuses it too
        with pytest.raises(ParseError):
            xmlparse.page_document_count(doc)
    else:
        assert all(r.report_id.startswith("D1:") for r in reports)
        assert xmlparse.page_document_count(doc) == 1


def test_parse_reads_every_namespace_form_alike():
    default_ns = _one_point_document()
    prefixed = ElementTree.tostring(ElementTree.fromstring(default_ns))
    no_ns = re.sub(rb' xmlns="[^"]*"', b"", default_ns)
    assert b"<ns0:TimeSeries>" in prefixed and b"xmlns" not in no_ns
    reports = parse_document(default_ns)
    assert len(reports) == 1
    assert parse_document(prefixed) == reports
    assert parse_document(no_ns) == reports
