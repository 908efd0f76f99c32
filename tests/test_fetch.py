from __future__ import annotations

import errno
import hashlib
import io
import json
import os
import struct
import subprocess
import sys
import zipfile
from datetime import date
from pathlib import Path

import pytest
import requests

from outagekit.errors import AuthError, FetchError, InvalidInputError, ParseError
from outagekit.fetch import (
    API_URL,
    DOC_TYPES,
    PAGE_SIZE_DOCS,
    FetchClient,
)

from corpusgen import _document, _timeseries

DAY = date(2030, 1, 7)

XML_PAGE = (
    b'<?xml version="1.0"?><Unavailability_MarketDocument>'
    b"<mRID>D1</mRID></Unavailability_MarketDocument>"
)

NO_DATA_ACK = (
    b'<?xml version="1.0"?><Acknowledgement_MarketDocument>'
    b"<Reason><code>999</code><text>No matching data found</text></Reason>"
    b"</Acknowledgement_MarketDocument>"
)

OTHER_ACK = (
    b'<?xml version="1.0"?><Acknowledgement_MarketDocument>'
    b"<Reason><code>999</code><text>Delivered quota exceeded</text></Reason>"
    b"</Acknowledgement_MarketDocument>"
)


class FakeTransport:
    """Scripted HTTP transport: pops one response per call, records params."""

    def __init__(self, responses):
        self.responses = list(responses)
        self.calls: list[dict] = []

    def __call__(self, url, params):
        assert url == API_URL
        self.calls.append(dict(params))
        response = self.responses.pop(0)
        if isinstance(response, Exception):
            raise response
        return response


def client(tmp_path, transport, **kwargs) -> FetchClient:
    kwargs.setdefault("rate_limit_s", 0.0)
    sleeps: list[float] = []
    c = FetchClient("tok", tmp_path / "cache", http_get=transport,
                    sleep=sleeps.append, **kwargs)
    c.test_sleeps = sleeps  # type: ignore[attr-defined]
    return c


def _zip_of(members: dict[str, bytes]) -> bytes:
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as zf:
        for name, payload in members.items():
            zf.writestr(name, payload)
    return buf.getvalue()


def zip_page(n_docs: int) -> bytes:
    return _zip_of({f"doc_{i}.xml": XML_PAGE for i in range(n_docs)})


# -- cache behaviour ---------------------------------------------------------


def test_fetch_populates_cache_then_serves_from_it(tmp_path):
    transport = FakeTransport([(200, XML_PAGE)])
    c = client(tmp_path, transport)
    assert c.fetch_day("GB", DAY, "A77") == [XML_PAGE]
    assert len(transport.calls) == 1
    # second call: no scripted responses left, so any network use would fail
    assert c.fetch_day("GB", DAY, "A77") == [XML_PAGE]
    assert len(transport.calls) == 1


def test_cache_files_and_hashes(tmp_path):
    c = client(tmp_path, FakeTransport([(200, XML_PAGE)]))
    c.fetch_day("GB", DAY, "A77")
    day_dir = tmp_path / "cache" / "GB" / "2030-01-07"
    assert (day_dir / "A77.page0.bin").read_bytes() == XML_PAGE
    meta = json.loads((day_dir / "A77.meta.json").read_text())
    assert meta["pages"] == 1
    assert meta["sha256"] == [hashlib.sha256(XML_PAGE).hexdigest()]
    assert meta["doc_type"] == "A77"


def test_cached_day_needs_no_token(tmp_path):
    client(tmp_path, FakeTransport([(200, XML_PAGE)])).fetch_day("GB", DAY, "A77")
    offline = FetchClient("", tmp_path / "cache", http_get=None, rate_limit_s=0.0)
    assert offline.fetch_day("GB", DAY, "A77") == [XML_PAGE]


def test_cold_cache_without_token_is_auth_error(tmp_path):
    offline = FetchClient("", tmp_path / "cache",
                          http_get=FakeTransport([]), rate_limit_s=0.0)
    with pytest.raises(AuthError, match="no API token"):
        offline.fetch_day("GB", DAY, "A77")


def test_corrupted_cache_detected(tmp_path):
    c = client(tmp_path, FakeTransport([(200, XML_PAGE)]))
    c.fetch_day("GB", DAY, "A77")
    page = tmp_path / "cache" / "GB" / "2030-01-07" / "A77.page0.bin"
    page.write_bytes(b"tampered")
    with pytest.raises(FetchError, match="corrupted"):
        c.cached_pages("GB", DAY, "A77")


def _cached_day(tmp_path) -> tuple[FetchClient, Path]:
    c = client(tmp_path, FakeTransport([(200, XML_PAGE)]))
    c.fetch_day("GB", DAY, "A77")
    return c, tmp_path / "cache" / "GB" / "2030-01-07"


@pytest.mark.parametrize(
    "meta_text",
    ['{"pages": 1, "sha256": ["ab', "[1, 2]", '{"pages": 1}', '{"sha256": "abc"}'],
    ids=["garbled", "not-an-object", "no-sha256", "sha256-not-a-list"],
)
def test_unreadable_cache_meta_is_fetch_error(tmp_path, meta_text):
    c, day_dir = _cached_day(tmp_path)
    (day_dir / "A77.meta.json").write_text(meta_text)
    with pytest.raises(FetchError, match="A77.meta.json"):
        c.fetch_day("GB", DAY, "A77")


def test_missing_cache_page_is_fetch_error(tmp_path):
    c, day_dir = _cached_day(tmp_path)
    (day_dir / "A77.page0.bin").unlink()
    with pytest.raises(FetchError, match="A77.page0.bin"):
        c.cached_pages("GB", DAY, "A77")


def test_no_data_day_cached_as_empty(tmp_path):
    transport = FakeTransport([(400, NO_DATA_ACK)])
    c = client(tmp_path, transport)
    assert c.fetch_day("GB", DAY, "A77") == []
    assert len(transport.calls) == 1
    assert c.fetch_day("GB", DAY, "A77") == []  # served from cache
    assert len(transport.calls) == 1


class _HalfWrite:
    """A file that writes half of what it is given, then fails like a full disk."""

    def __init__(self, fh):
        self._fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._fh.close()

    def write(self, data):
        self._fh.write(data[: len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")

    def writelines(self, lines):
        for line in lines:
            self.write(line)


@pytest.mark.parametrize("failing", [0, 1, 2], ids=["first-page", "second-page", "meta"])
def test_store_failing_partway_leaves_a_clean_miss(tmp_path, monkeypatch, failing):
    import outagekit.io as okio

    opened: list[Path] = []

    def open_failing_once(file, *args, **kwargs):
        fh = open(file, *args, **kwargs)
        opened.append(file)
        return _HalfWrite(fh) if len(opened) - 1 == failing else fh

    # shadows the builtin inside outagekit.io only, where every cache file is opened
    monkeypatch.setattr(okio, "open", open_failing_once, raising=False)
    pages = [zip_page(PAGE_SIZE_DOCS), XML_PAGE]
    c = client(tmp_path, FakeTransport([(200, pages[0]), (200, pages[1])]))
    with pytest.raises(InvalidInputError, match="No space left") as info:
        c.fetch_day("GB", DAY, "A77")
    assert isinstance(info.value.__cause__, OSError)
    day_dir = tmp_path / "cache" / "GB" / "2030-01-07"
    left = sorted(p.name for p in day_dir.iterdir())
    assert not [name for name in left if name.endswith(".tmp")], left
    assert "A77.meta.json" not in left
    assert c.cached_pages("GB", DAY, "A77") is None

    monkeypatch.undo()
    transport = FakeTransport([(200, pages[0]), (200, pages[1])])
    c = client(tmp_path, transport)
    assert c.fetch_day("GB", DAY, "A77") == pages
    assert len(transport.calls) == 2  # a miss, fetched again in full
    assert c.cached_pages("GB", DAY, "A77") == pages


def test_a_cache_dir_that_is_a_file_is_invalid_input_and_leaves_a_miss(tmp_path):
    (tmp_path / "cache").write_text("")
    c = client(tmp_path, FakeTransport([(200, XML_PAGE)]))
    page = c.page_path("GB", DAY, "A77", 0)
    with pytest.raises(InvalidInputError) as info:
        c.fetch_day("GB", DAY, "A77")
    assert str(info.value).startswith(f"cannot write {page}: ")
    assert isinstance(info.value.__cause__, NotADirectoryError)
    assert ".tmp" not in str(info.value)
    assert c.cached_pages("GB", DAY, "A77") is None
    assert (tmp_path / "cache").read_text() == ""


# -- request shape -----------------------------------------------------------


def test_request_parameters(tmp_path):
    transport = FakeTransport([(200, XML_PAGE)])
    client(tmp_path, transport).fetch_day("GB", DAY, "A80")
    (params,) = transport.calls
    assert params["securityToken"] == "tok"
    assert params["documentType"] == "A80"
    assert params["biddingZone_Domain"] == "10YGB----------A"  # built-in table
    assert params["periodStart"] == "203001070000"
    assert params["periodEnd"] == "203001080000"
    assert params["offset"] == 0


def test_explicit_eic_overrides_table(tmp_path):
    transport = FakeTransport([(200, XML_PAGE)])
    client(tmp_path, transport).fetch_day("XX", DAY, "A77", eic="10Y-TEST-XX----Z")
    assert transport.calls[0]["biddingZone_Domain"] == "10Y-TEST-XX----Z"


def test_unknown_zone_without_eic_rejected(tmp_path):
    with pytest.raises(InvalidInputError, match="EIC"):
        client(tmp_path, FakeTransport([])).fetch_day("XX", DAY, "A77")


def test_unknown_doc_type_rejected(tmp_path):
    assert DOC_TYPES == ("A77", "A80")
    with pytest.raises(InvalidInputError, match="doc_type"):
        client(tmp_path, FakeTransport([])).fetch_day("GB", DAY, "A99")


def test_rate_limit_sleep_before_each_call(tmp_path):
    transport = FakeTransport([(200, XML_PAGE)])
    c = client(tmp_path, transport, rate_limit_s=0.25)
    c.fetch_day("GB", DAY, "A77")
    assert c.test_sleeps == [0.25]


# -- retries and failures ----------------------------------------------------


def test_auth_failure_not_retried(tmp_path):
    transport = FakeTransport([(401, b"denied")])
    c = client(tmp_path, transport, retries=3)
    with pytest.raises(AuthError, match="401"):
        c.fetch_day("GB", DAY, "A77")
    assert len(transport.calls) == 1


def test_forbidden_is_auth_error(tmp_path):
    with pytest.raises(AuthError, match="403"):
        client(tmp_path, FakeTransport([(403, b"denied")])).fetch_day("GB", DAY, "A77")


def test_server_errors_retried_with_backoff(tmp_path):
    transport = FakeTransport([(503, b""), (503, b""), (200, XML_PAGE)])
    c = client(tmp_path, transport, retries=3)
    assert c.fetch_day("GB", DAY, "A77") == [XML_PAGE]
    assert len(transport.calls) == 3
    assert c.test_sleeps == [1.0, 2.0]  # exponential backoff between attempts


@pytest.mark.parametrize("retries", [0, -1, 1.5, True])
def test_client_rejects_retries_below_one_or_not_an_integer(tmp_path, retries):
    with pytest.raises(InvalidInputError, match="retries"):
        client(tmp_path, lambda *a, **k: None, retries=retries)


def test_retries_exhausted(tmp_path):
    transport = FakeTransport([(500, b"")] * 2)
    c = client(tmp_path, transport, retries=2)
    with pytest.raises(FetchError, match="giving up .* 2 attempts"):
        c.fetch_day("GB", DAY, "A77")
    # nothing cached on failure
    assert c.cached_pages("GB", DAY, "A77") is None


def test_connection_errors_retried(tmp_path):
    transport = FakeTransport(
        [requests.ConnectionError("reset"), (200, XML_PAGE)]
    )
    c = client(tmp_path, transport, retries=2)
    assert c.fetch_day("GB", DAY, "A77") == [XML_PAGE]


def test_any_transport_oserror_is_retried(tmp_path):
    transport = FakeTransport([ConnectionResetError("reset by peer"), (200, XML_PAGE)])
    c = client(tmp_path, transport, retries=2)
    assert c.fetch_day("GB", DAY, "A77") == [XML_PAGE]
    assert len(transport.calls) == 2
    assert c.test_sleeps == [1.0]


def test_transport_error_that_is_not_oserror_propagates_at_once(tmp_path):
    transport = FakeTransport([ValueError("bad URL"), (200, XML_PAGE)])
    c = client(tmp_path, transport, retries=3)
    with pytest.raises(ValueError, match="bad URL"):
        c.fetch_day("GB", DAY, "A77")
    assert len(transport.calls) == 1
    assert c.test_sleeps == []
    assert not c.is_cached("GB", DAY, "A77")


@pytest.mark.parametrize("good_pages", [0, 1])
def test_corrupt_zip_page_is_parse_error_and_not_cached(tmp_path, good_pages):
    transport = FakeTransport(
        [(200, zip_page(PAGE_SIZE_DOCS))] * good_pages + [(200, b"PK\x03\x04garbage")]
    )
    c = client(tmp_path, transport)
    offset = good_pages * PAGE_SIZE_DOCS
    message = f"GB 2030-01-07 A77 offset {offset}: unreadable page: corrupt ZIP"
    with pytest.raises(ParseError, match=message):
        c.fetch_day("GB", DAY, "A77")
    assert not c.is_cached("GB", DAY, "A77")
    assert c.cached_pages("GB", DAY, "A77") is None
    assert list((tmp_path / "cache").rglob("*.meta.json")) == []


def _damaged_zip_page(damage: str) -> bytes:
    """A one-member page that ``zipfile`` cannot open."""
    page = bytearray(zip_page(1))
    central = struct.unpack_from("<I", page, len(page) - 6)[0]
    if damage == "version_above_6.3":
        page[central + 6] = 0xFF  # version needed to extract: 25.5
    else:  # the UTF-8 flag, with a name that is not UTF-8, in both headers
        for header, flags_at in ((0, 6), (central, 8)):
            struct.pack_into("<H", page, header + flags_at, 0x800)
        page[30] = page[central + 46] = 0xFF
    return bytes(page)


#: damage -> what the ParseError says after "unreadable page: "
UNOPENABLE_PAGES = {
    "version_above_6.3": r"doc_0\.xml: unreadable ZIP member: version needed to extract 25\.5",
    "name_not_utf8": "corrupt ZIP payload: member name .* does not decode",
}


@pytest.mark.parametrize("damage", list(UNOPENABLE_PAGES))
def test_zip_page_zipfile_cannot_open_is_parse_error_and_not_cached(tmp_path, damage):
    message = "GB 2030-01-07 A77 offset 0: unreadable page: " + UNOPENABLE_PAGES[damage]
    c = client(tmp_path, FakeTransport([(200, _damaged_zip_page(damage))]))
    with pytest.raises(ParseError, match=message):
        c.fetch_day("GB", DAY, "A77")
    assert not c.is_cached("GB", DAY, "A77")
    assert list((tmp_path / "cache").rglob("*.meta.json")) == []


def _directory_offset_raised() -> bytes:
    """A one-member page that ``zipfile`` lists, but whose end record puts the
    central directory 5 bytes past the real one, so reading the member seeks
    before the page start."""
    page = bytearray(zip_page(1))
    central = struct.unpack_from("<I", page, len(page) - 6)[0]
    struct.pack_into("<I", page, len(page) - 6, central + 5)
    return bytes(page)


HTML_PAGE = b"<html><body>Service temporarily unavailable</body></html>"

#: a well-formed unavailability document whose one point has a field error
FIELD_ERROR_PAGE = _document("D1", 1, [
    _timeseries("1", "A54", "AA", "B04", "U1", 400,
                ("2030-01-07T00:00Z", "2030-01-07T06:00Z"), "PT60M", [(1, "abc")]),
])

#: page -> what the ParseError says after "unreadable page: "
PAGES_INGEST_REFUSES = {
    "directory_offset_too_large": (
        _directory_offset_raised(), "corrupt ZIP payload: bad central directory record"
    ),
    "not_zip_or_xml": (b'{"report_id": "R1"}\n', "unrecognized payload: not ZIP or XML"),
    "bare_page_not_a_document": (HTML_PAGE, "unexpected root element 'html'"),
    "zip_member_not_a_document": (
        _zip_of({"doc_0.xml": XML_PAGE, "doc_1.xml": HTML_PAGE}),
        r"doc_1\.xml: unexpected root element 'html'",
    ),
    "malformed_bare_page": (b"<Unavailability_MarketDocument>", "malformed XML"),
    "zip_member_not_xml": (
        _zip_of({"doc_0.xml": XML_PAGE, "doc_1.xml": b"garbage"}),
        r"doc_1\.xml: unrecognized payload",
    ),
    "bare_page_field_error": (FIELD_ERROR_PAGE, "document D1 TimeSeries 1: bad quantity 'abc'"),
    "zip_member_field_error": (
        _zip_of({"doc_0.xml": XML_PAGE, "doc_1.xml": FIELD_ERROR_PAGE}),
        r"doc_1\.xml: document D1 TimeSeries 1: bad quantity 'abc'",
    ),
}


@pytest.mark.parametrize("case", list(PAGES_INGEST_REFUSES))
def test_page_ingest_refuses_is_parse_error_and_not_cached(tmp_path, case):
    page, message = PAGES_INGEST_REFUSES[case]
    c = client(tmp_path, FakeTransport([(200, page)]))
    with pytest.raises(ParseError, match="offset 0: unreadable page: " + message):
        c.fetch_day("GB", DAY, "A77")
    assert not c.is_cached("GB", DAY, "A77")
    assert list((tmp_path / "cache").rglob("*.meta.json")) == []


def test_importing_the_package_loads_no_network_stack():
    code = (
        "import sys\n"
        "import outagekit.cli\n"
        "import outagekit\n"
        "assert 'requests' not in sys.modules, 'requests was imported'\n"
        "for name in ('multiprocessing', 'multiprocessing.pool', 'concurrent.futures.process'):\n"
        "    assert name not in sys.modules, name + ' was imported'\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH", "")) if p
    )}
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr


def test_non_retryable_status_fails_fast(tmp_path):
    transport = FakeTransport([(418, b"teapot")])
    c = client(tmp_path, transport, retries=3)
    with pytest.raises(FetchError, match="HTTP 418"):
        c.fetch_day("GB", DAY, "A77")
    assert len(transport.calls) == 1


def test_unexpected_acknowledgement_is_fetch_error(tmp_path):
    with pytest.raises(FetchError, match="quota"):
        client(tmp_path, FakeTransport([(400, OTHER_ACK)])).fetch_day("GB", DAY, "A77")


# -- paging ------------------------------------------------------------------


def test_full_page_triggers_next_offset(tmp_path):
    full = zip_page(PAGE_SIZE_DOCS)
    last = zip_page(3)
    transport = FakeTransport([(200, full), (200, last)])
    c = client(tmp_path, transport)
    pages = c.fetch_day("GB", DAY, "A77")
    assert pages == [full, last]
    assert [call["offset"] for call in transport.calls] == [0, PAGE_SIZE_DOCS]


def test_partial_page_stops_paging(tmp_path):
    transport = FakeTransport([(200, zip_page(5))])
    c = client(tmp_path, transport)
    assert len(c.fetch_day("GB", DAY, "A77")) == 1
    assert len(transport.calls) == 1


def test_paging_ends_on_no_data_acknowledgement(tmp_path):
    full = zip_page(PAGE_SIZE_DOCS)
    transport = FakeTransport([(200, full), (400, NO_DATA_ACK)])
    c = client(tmp_path, transport)
    assert c.fetch_day("GB", DAY, "A77") == [full]


# -- one-shot use ------------------------------------------------------------


def test_one_shot_client_accepts_str_cache_dir(tmp_path):
    transport = FakeTransport([(200, XML_PAGE)])
    cache = tmp_path / "cache"
    pages = FetchClient("tok", str(cache), http_get=transport,
                        rate_limit_s=0.0).fetch_day("GB", DAY, "A77")
    assert pages == [XML_PAGE]
    assert (cache / "GB" / "2030-01-07" / "A77.page0.bin").read_bytes() == XML_PAGE
