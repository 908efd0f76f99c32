"""outagekit: generator-fleet unavailability models vs. empirical outage data.

The package covers the full workflow:

- fetch and cache unavailability documents from the transparency platform
  (:mod:`outagekit.fetch`),
- parse and reconcile them into per-zone hourly outage series with
  min/mean/max envelopes (:mod:`outagekit.ingest`),
- build representative fleets and their exact capacity-outage
  distributions (:mod:`outagekit.fleet`),
- simulate hourly fleet outages with a two-state Markov chain
  (:mod:`outagekit.markov`),
- compare them with summary, reconciliation-error, autocorrelation and
  seasonality statistics (:mod:`outagekit.stats`),
- and run everything reproducibly from the command line
  (:mod:`outagekit.cli`).
"""

from .errors import (
    AuthError,
    FetchError,
    InvalidInputError,
    MissingPoolError,
    OutageKitError,
    ParseError,
    StatsError,
    UsageError,
)
from .fleet import (
    CapacityOutagePMF,
    fleet_outage_pmf,
    pmf_quantile,
    pmf_stats,
    pool_unit_sizes,
    synthesize_fleet,
)
from .ingest import (
    Channel,
    HourlyOutageSeries,
    OutageReport,
    ReportKind,
    ReportStatus,
    deduplicate,
    filter_reports,
    parse_document,
    unit_series,
    zone_aggregate,
)
from .markov import (
    TransitionRates,
    simulate_fleet,
    simulate_unit,
    transition_rates,
)
from .pipeline import PipelineConfig, emit_plot_data, run_pipeline
from .stats import (
    WinterWindow,
    autocorrelation,
    reconciliation_error,
    weekly_profile,
    winter_window,
)
from .timeseries import HourRange, HourlySeries
from .types import (
    FUEL_PARAMS,
    Fleet,
    Fuel,
    FuelParams,
    FuelSizePool,
    GeneratorUnit,
    Renewable,
)

__version__ = "0.1.0"

__all__ = [
    "AuthError",
    "CapacityOutagePMF",
    "Channel",
    "FetchError",
    "Fleet",
    "Fuel",
    "FuelParams",
    "FuelSizePool",
    "FUEL_PARAMS",
    "GeneratorUnit",
    "HourRange",
    "HourlyOutageSeries",
    "HourlySeries",
    "InvalidInputError",
    "MissingPoolError",
    "OutageKitError",
    "OutageReport",
    "ParseError",
    "PipelineConfig",
    "Renewable",
    "ReportKind",
    "ReportStatus",
    "StatsError",
    "TransitionRates",
    "UsageError",
    "WinterWindow",
    "autocorrelation",
    "deduplicate",
    "emit_plot_data",
    "filter_reports",
    "fleet_outage_pmf",
    "parse_document",
    "pmf_quantile",
    "pmf_stats",
    "pool_unit_sizes",
    "reconciliation_error",
    "run_pipeline",
    "simulate_fleet",
    "simulate_unit",
    "synthesize_fleet",
    "transition_rates",
    "unit_series",
    "weekly_profile",
    "winter_window",
    "zone_aggregate",
]
