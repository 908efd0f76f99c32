"""Balancing-zone codes and their EIC area identifiers.

The built-in table covers the Northwest European zones this toolkit is
normally run for.  It is a default, not a registry: pipeline configuration
can add or override entries, since bidding-zone versus control-area codes
differ between data providers for some countries.
"""

from __future__ import annotations

#: zone code -> EIC area code used as the API query domain.
DEFAULT_ZONE_EIC: dict[str, str] = {
    "GB": "10YGB----------A",
    "BE": "10YBE----------2",
    "DE": "10Y1001A1001A83F",
    "DK": "10Y1001A1001A65H",
    "ES": "10YES-REE------0",
    "FR": "10YFR-RTE------C",
    "IE": "10YIE-1001A00010",
    "NL": "10YNL----------L",
    "NO": "10YNO-0--------C",
}


def eic_for_zone(zone: str, extra: dict[str, str] | None = None) -> str | None:
    """``zone``'s EIC code: its entry in ``extra``, else the built-in one."""
    return (extra or {}).get(zone, DEFAULT_ZONE_EIC.get(zone))
