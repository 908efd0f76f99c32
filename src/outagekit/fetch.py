"""Transparency-platform fetch client with an append-only disk cache.

Unavailability documents are downloaded one zone-day at a time and cached
before use, so a day can be re-inspected or re-ingested without touching the
network.  The HTTP transport and the sleep function are injectable, which
keeps the retry/backoff and cache logic testable offline.
"""

from __future__ import annotations

import hashlib
import logging
import time
from datetime import date, datetime, timezone
from pathlib import Path
from typing import Callable, Sequence
from xml.etree import ElementTree

from .errors import AuthError, FetchError, InvalidInputError, where
from .ingest.xmlparse import page_document_count
from .io import read_json, write_bytes, write_json
from .zones import DEFAULT_ZONE_EIC

logger = logging.getLogger(__name__)

API_URL = "https://web-api.tp.entsoe.eu/api"

#: production-unit and generation-unit unavailability document types
DOC_TYPES = ("A77", "A80")

#: documents per page served by the platform before paging kicks in
PAGE_SIZE_DOCS = 200

_RETRYABLE_STATUS = frozenset({429, 500, 502, 503, 504})

HttpGet = Callable[[str, dict], tuple[int, bytes]]


def _default_http_get(url: str, params: dict) -> tuple[int, bytes]:
    # imported here so that a run served from the cache loads no network stack
    import requests

    resp = requests.get(url, params=params, timeout=60)
    return resp.status_code, resp.content


class FetchClient:
    """Downloads and caches unavailability documents day by day.

    Parameters
    ----------
    token : API security token.  Pass the value itself; reading it from the
        environment or a config file is the caller's concern so that the
        token never appears on a command line.
    cache_dir : root of the on-disk cache.
    http_get, sleep : injectable transport and delay functions.
    retries : attempts per request for retryable failures (HTTP 5xx / 429 /
        connection errors, meaning any ``OSError`` the transport raises;
        ``requests.RequestException`` is one); auth failures and any other
        exception are never retried.
    rate_limit_s : polite fixed delay before every network call.
    """

    def __init__(
        self,
        token: str,
        cache_dir: Path | str,
        *,
        http_get: HttpGet | None = None,
        sleep: Callable[[float], None] = time.sleep,
        retries: int = 3,
        rate_limit_s: float = 0.5,
    ) -> None:
        self.token = token
        self.cache_dir = Path(cache_dir)
        self.http_get = http_get or _default_http_get
        self.sleep = sleep
        if isinstance(retries, bool) or not isinstance(retries, int) or retries < 1:
            raise InvalidInputError(f"retries must be an integer >= 1, got {retries!r}")
        self.retries = retries
        self.rate_limit_s = float(rate_limit_s)

    # -- cache layout ---------------------------------------------------

    def _day_dir(self, zone: str, day: date) -> Path:
        return self.cache_dir / zone / day.isoformat()

    def _meta_path(self, zone: str, day: date, doc_type: str) -> Path:
        return self._day_dir(zone, day) / f"{doc_type}.meta.json"

    def page_path(self, zone: str, day: date, doc_type: str, page: int) -> Path:
        """Cache file of one payload page of a (zone, day, doc_type)."""
        return self._day_dir(zone, day) / f"{doc_type}.page{page}.bin"

    def is_cached(self, zone: str, day: date, doc_type: str) -> bool:
        """Whether a (zone, day, doc_type) is in the cache, without reading its pages.

        ``store`` writes the meta file last, after every page it lists, so
        the meta file marks a complete store.  The pages are checked against
        their hashes only when ``cached_pages`` reads them.
        """
        return self._meta_path(zone, day, doc_type).exists()

    def cached_pages(self, zone: str, day: date, doc_type: str) -> list[bytes] | None:
        """Return the cached pages for a day, or None on a cache miss.

        Raises FetchError, naming the file, if the meta file is unreadable or
        lists no ``sha256`` hashes, if a page it lists is missing, or if a
        cached payload no longer matches its recorded content hash (the
        cache is append-only; a mismatch means tampering or corruption, not
        a stale entry).
        """
        if not self.is_cached(zone, day, doc_type):
            return None
        meta_path = self._meta_path(zone, day, doc_type)
        try:
            hashes = read_json(meta_path)["sha256"]
        except (InvalidInputError, TypeError, KeyError) as exc:
            raise FetchError(f"cache meta file {meta_path} is unreadable: {exc!r}") from exc
        if not isinstance(hashes, list):
            raise FetchError(f"cache meta file {meta_path}: sha256 is not a list")
        pages: list[bytes] = []
        for page, expected in enumerate(hashes):
            path = self.page_path(zone, day, doc_type, page)
            try:
                payload = path.read_bytes()
            except OSError as exc:
                raise FetchError(
                    f"cache page {path} listed in {meta_path} is unreadable: {exc}"
                ) from exc
            digest = hashlib.sha256(payload).hexdigest()
            if digest != expected:
                raise FetchError(
                    f"cache corrupted for {zone} {day} {doc_type} page {page}: "
                    f"hash {digest} != recorded {expected}"
                )
            pages.append(payload)
        return pages

    def store(self, zone: str, day: date, doc_type: str, pages: Sequence[bytes]) -> None:
        """Cache the pages of a (zone, day, doc_type), with their content hashes.

        An empty ``pages`` records a day without matching data.  Every file
        is written atomically, and the meta file last, after every page it
        lists: a store that fails partway (``InvalidInputError``, naming the
        file) leaves no meta file, so the day is still a cache miss.
        """
        hashes = []
        for page, payload in enumerate(pages):
            write_bytes(payload, self.page_path(zone, day, doc_type, page))
            hashes.append(hashlib.sha256(payload).hexdigest())
        meta = {
            "zone": zone,
            "date": day.isoformat(),
            "doc_type": doc_type,
            "pages": len(pages),
            "sha256": hashes,
            "fetched_at": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        }
        write_json(meta, self._meta_path(zone, day, doc_type))

    # -- network --------------------------------------------------------

    def fetch_day(
        self, zone: str, day: date, doc_type: str, *, eic: str | None = None
    ) -> list[bytes]:
        """All raw document pages for one zone-day, cache-first.

        A day the platform reports as having no matching data is cached as
        an empty page list, so it too is served without a network call next
        time.  Paging follows the platform's fixed page size: a full page
        triggers a request for the next offset.  Each page is counted by
        ``page_document_count``, which reads it in full as ingest does: a
        page that ingest would refuse (an HTML error page, or a field error
        such as a non-numeric quantity) is a ``ParseError``, and the day
        stays a cache miss.
        """
        if doc_type not in DOC_TYPES:
            raise InvalidInputError(f"doc_type must be one of {DOC_TYPES}, got {doc_type!r}")
        cached = self.cached_pages(zone, day, doc_type)
        if cached is not None:
            logger.debug("cache hit: %s %s %s (%d pages)", zone, day, doc_type, len(cached))
            return cached
        if not self.token:
            raise AuthError("no API token configured and day not in cache")
        domain = eic or DEFAULT_ZONE_EIC.get(zone)
        if not domain:
            raise InvalidInputError(
                f"no EIC area code known for zone {zone!r}; add one to the zone table"
            )
        pages: list[bytes] = []
        offset = 0
        while True:
            payload = self._get_page(zone, day, doc_type, domain, offset)
            if payload is None:  # no matching data
                break
            with where(f"{zone} {day} {doc_type} offset {offset}: unreadable page"):
                n_docs = page_document_count(payload)
            pages.append(payload)
            if n_docs < PAGE_SIZE_DOCS:
                break
            offset += PAGE_SIZE_DOCS
        self.store(zone, day, doc_type, pages)
        logger.info("fetched %s %s %s: %d page(s)", zone, day, doc_type, len(pages))
        return pages

    def _get_page(
        self, zone: str, day: date, doc_type: str, domain: str, offset: int
    ) -> bytes | None:
        params = {
            "securityToken": self.token,
            "documentType": doc_type,
            "biddingZone_Domain": domain,
            "periodStart": _period_param(day, 0),
            "periodEnd": _period_param(day, 1),
            "offset": offset,
        }
        last_error: Exception | None = None
        for attempt in range(self.retries):
            if self.rate_limit_s > 0:
                self.sleep(self.rate_limit_s)
            try:
                status, body = self.http_get(API_URL, params)
            except OSError as exc:
                last_error = exc
                logger.warning("request failed (%s), attempt %d", exc, attempt + 1)
                self.sleep(2.0**attempt)
                continue
            if status in (401, 403):
                raise AuthError(f"platform rejected the API token (HTTP {status})")
            if status in _RETRYABLE_STATUS:
                last_error = FetchError(f"HTTP {status} for {zone} {day} {doc_type}")
                logger.warning("HTTP %d, attempt %d", status, attempt + 1)
                self.sleep(2.0**attempt)
                continue
            reason = _no_data_reason(body)
            if reason is not None:
                logger.debug("no data for %s %s %s: %s", zone, day, doc_type, reason)
                return None
            if status != 200:
                raise FetchError(f"HTTP {status} for {zone} {day} {doc_type}: {body[:200]!r}")
            return body
        raise FetchError(
            f"giving up on {zone} {day} {doc_type} after {self.retries} attempts: {last_error}"
        )


def _period_param(day: date, days_ahead: int) -> str:
    d = date.fromordinal(day.toordinal() + days_ahead)
    return f"{d:%Y%m%d}0000"


def _no_data_reason(body: bytes) -> str | None:
    """Reason text if the body is a no-matching-data acknowledgement.

    The platform answers unavailability queries for empty days with an
    Acknowledgement document (HTTP 400) rather than an empty payload.
    """
    if b"Acknowledgement_MarketDocument" not in body[:512]:
        return None
    try:
        root = ElementTree.fromstring(body)
    except ElementTree.ParseError:
        return None
    texts = [
        (elem.text or "").strip()
        for elem in root.iter()
        if elem.tag.rsplit("}", 1)[-1] == "text"
    ]
    reason = "; ".join(t for t in texts if t)
    if "no matching data" in reason.lower():
        return reason
    raise FetchError(f"platform acknowledgement: {reason or 'no reason given'}")
