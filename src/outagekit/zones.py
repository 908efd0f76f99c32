"""Balancing-zone codes and their EIC area identifiers.

The built-in table covers the Northwest European zones this toolkit is
normally run for.  It is a default, not a registry: a config's ``zone_eic``
map adds or overrides entries, since bidding-zone versus control-area codes
differ between data providers for some countries.  ``FetchClient.fetch_day``
is the one place that falls back from a config entry to this table.
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
