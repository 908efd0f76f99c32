"""Acceptance gate: one test per headline guarantee of the package.

Each test checks a single end-user guarantee at its stated tolerance and
prints one ``PASS``/``FAIL`` line naming it (visible with ``-s``; on
failure the line also appears in the captured-output section).  The final
test compares against reference statistics for the GB conventional fleet
and only runs when a real statistics file is supplied via the
``OUTAGEKIT_REAL_STATS`` environment variable; everything else is
self-contained.
"""

from __future__ import annotations

import csv
import dataclasses
import math
import os
import time
from contextlib import contextmanager
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import pytest

from outagekit.fleet import fleet_outage_pmf, pmf_stats
from outagekit.ingest.reconcile import Channel, unit_series
from outagekit.ingest.reports import ReportKind, filter_reports
from outagekit.markov import simulate_unit, transition_rates
from outagekit.pipeline import run_pipeline
from outagekit.stats import reconciliation_error, winter_window
from outagekit.timeseries import HourRange
from outagekit.types import FUEL_PARAMS

from conftest import T0, make_report, make_unit
from test_fleet import brute_force_pmf, random_fleet

REAL_STATS_ENV = "OUTAGEKIT_REAL_STATS"


@contextmanager
def criterion(name: str):
    """Print one labelled pass/fail line for the guarantee under test."""
    try:
        yield
    except BaseException:
        print(f"FAIL {name}")
        raise
    print(f"PASS {name}")


def test_convolution_matches_exhaustive_enumeration():
    with criterion(
        "100 random fleets (<= 12 units): convolution within 1e-12/bin of "
        "2^n enumeration, mass within 1e-9 of 1, under 10 s"
    ):
        rng = np.random.default_rng(2025)
        t0 = time.perf_counter()
        for _ in range(100):
            fleet = random_fleet(rng)
            pmf = fleet_outage_pmf(fleet)
            oracle = brute_force_pmf(fleet.units)
            assert pmf.probabilities.shape == oracle.shape
            assert np.max(np.abs(pmf.probabilities - oracle)) <= 1e-12
            assert abs(float(pmf.probabilities.sum()) - 1.0) <= 1e-9
        assert time.perf_counter() - t0 < 10.0


def test_pmf_mean_equals_expected_unavailable_capacity():
    with criterion(
        "100 random fleets: PMF mean equals sum of c*(1-A) within 1e-9"
    ):
        rng = np.random.default_rng(4044)
        for _ in range(100):
            fleet = random_fleet(rng)
            mean, _ = pmf_stats(fleet_outage_pmf(fleet))
            expected = sum(
                u.capacity_mw * (1.0 - u.availability) for u in fleet.units
            )
            assert abs(mean - expected) <= 1e-9


def test_transition_rates_reference_row_and_full_table():
    with criterion(
        "A=0.9, MTTR=50h gives mu=0.02 and lambda=1/450; every built-in "
        "fuel row gives rates strictly inside (0, 1)"
    ):
        r = transition_rates(0.9, 50.0)
        assert r.repair_rate_mu == 0.02
        # 1/450 is not reachable bit-for-bit from these inputs: every
        # algebraic arrangement of mu*(1-A)/A in binary64 lands 1-4 ulps
        # from the correctly rounded quotient, so the check is at ulp
        # resolution rather than float equality.
        assert abs(r.failure_rate_lambda - 1.0 / 450.0) <= 4 * math.ulp(1.0 / 450.0)
        assert len(FUEL_PARAMS) == 8
        for fuel, params in FUEL_PARAMS.items():
            rates = transition_rates(params.availability, params.mttr_hours)
            assert 0.0 < rates.repair_rate_mu < 1.0, fuel
            assert 0.0 < rates.failure_rate_lambda < 1.0, fuel


def test_long_simulation_stationarity_and_autocorrelation():
    with criterion(
        "1e6-hour unit simulation: up-fraction within 0.005 of A, lag-1 "
        "autocorrelation within 0.02 of 1-lambda-mu, under 5 s"
    ):
        unit = make_unit(capacity_mw=100, availability=0.9, mttr_hours=50.0)
        rates = transition_rates(unit.availability, unit.mttr_hours)
        t0 = time.perf_counter()
        series = simulate_unit(unit, 1_000_000, seed=6)
        elapsed = time.perf_counter() - t0
        x = series.values_mw
        up_fraction = float(np.mean(x == 0.0))
        assert abs(up_fraction - unit.availability) <= 0.005
        acf1 = float(np.corrcoef(x[:-1], x[1:])[0, 1])
        expected = 1.0 - rates.failure_rate_lambda - rates.repair_rate_mu
        assert abs(acf1 - expected) <= 0.02
        assert elapsed < 5.0


def test_subhourly_reconciliation_reference_hours():
    with criterion(
        "50 MW for 12 min then 200 MW for 48 min averages to exactly "
        "170 MW; overlapping 400 MW forced and planned reports total "
        "400 MW, not 800"
    ):
        step = [
            make_report("a", start_h=0.0, end_h=0.2, unavailable_mw=50.0),
            make_report("b", start_h=0.2, end_h=1.0, unavailable_mw=200.0),
        ]
        t = unit_series(step, HourRange(T0, 1))[Channel.TOTAL]
        assert (t.o_min_mw[0], t.values_mw[0], t.o_max_mw[0]) == (170.0, 170.0, 170.0)

        overlapping = [
            make_report("f", unavailable_mw=400.0, kind=ReportKind.FORCED),
            make_report("p", unavailable_mw=400.0, kind=ReportKind.PLANNED),
        ]
        total = unit_series(overlapping, HourRange(T0, 1))[Channel.TOTAL]
        assert (
            total.o_min_mw[0],
            total.values_mw[0],
            total.o_max_mw[0],
        ) == (400.0, 400.0, 400.0)


def test_oversize_reports_filtered():
    with criterion(
        "1500 MW report on a 750 MW unit is dropped; 800 MW on the same "
        "unit is retained"
    ):
        oversize = make_report("big", nominal_mw=750.0, unavailable_mw=1500.0)
        plausible = make_report("ok", nominal_mw=750.0, unavailable_mw=800.0)
        assert filter_reports([oversize, plausible]) == [plausible]


def test_reconciliation_error_reference_values():
    with criterion(
        "reconciliation error is exactly 0 without conflicts, exactly 0.5 "
        "for a (100, 200, 300) hour, and invariant under scaling by 7"
    ):
        period = HourRange(T0, 1)
        clean = unit_series(
            [make_report("a", unavailable_mw=100.0)], period
        )[Channel.TOTAL]
        assert reconciliation_error(clean.values_mw, clean.o_min_mw) == 0.0

        conflicting = [
            make_report("a", unavailable_mw=100.0),
            make_report("b", unavailable_mw=300.0),
        ]
        series = unit_series(conflicting, period)[Channel.TOTAL]
        assert (
            series.o_min_mw[0],
            series.values_mw[0],
            series.o_max_mw[0],
        ) == (100.0, 200.0, 300.0)
        assert reconciliation_error(series.values_mw, series.o_min_mw) == 0.5

        scaled = unit_series(
            [
                make_report("a", nominal_mw=2800.0, unavailable_mw=700.0),
                make_report("b", nominal_mw=2800.0, unavailable_mw=2100.0),
            ],
            period,
        )[Channel.TOTAL]
        assert reconciliation_error(scaled.values_mw, scaled.o_min_mw) == reconciliation_error(
            series.values_mw, series.o_min_mw
        )


def test_winter_windows_have_exactly_3024_hours():
    with criterion(
        "every winter window 2000-2040 has exactly 3024 hours; the 16/17 "
        "window starts 2016-11-06"
    ):
        for year in range(2000, 2041):
            window = winter_window(year)
            assert window.n_hours == 3024, year
        w = winter_window(2016)
        assert w.label == "16/17"
        assert w.start == datetime(2016, 11, 6, tzinfo=timezone.utc)


def test_pipeline_reruns_are_byte_identical(corpus):
    with criterion(
        "two end-to-end pipeline runs on the bundled two-zone corpus "
        "produce byte-identical artifacts"
    ):
        config = dataclasses.replace(
            corpus["config"], output_dir=corpus["root"] / "out_acceptance"
        )

        def snapshot() -> dict[str, bytes]:
            return {
                str(p.relative_to(config.output_dir)): p.read_bytes()
                for p in sorted(config.output_dir.rglob("*"))
                if p.is_file()
            }

        run_pipeline(config)
        first = snapshot()
        run_pipeline(config)
        second = snapshot()
        assert len(first) >= 12
        assert first == second


@pytest.mark.skipif(
    REAL_STATS_ENV not in os.environ,
    reason=f"set {REAL_STATS_ENV} to the stats.csv of a pipeline run over "
    "real GB outage data covering winters 16/17-20/21",
)
def test_real_gb_winter_statistics_reproduced():
    with criterion(
        "real GB winters: empirical Total mean within 5% of 14700 MW, IQR "
        "within 5% of 3000 MW, ACF at (1h, 6h, 1d, 1wk) within 0.03 of "
        "(0.97, 0.86, 0.62, 0.27)"
    ):
        path = Path(os.environ[REAL_STATS_ENV])
        with path.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        gb = [
            r
            for r in rows
            if r["zone"] == "GB"
            and r["channel"] == "Total"
            and r["source"] == "empirical"
        ]
        assert len(gb) == 1, "expected one empirical GB Total row"
        row = gb[0]
        assert abs(float(row["mean_mw"]) - 14700.0) <= 0.05 * 14700.0
        assert abs(float(row["iqr_mw"]) - 3000.0) <= 0.05 * 3000.0
        for column, target in (
            ("acf_1h", 0.97),
            ("acf_6h", 0.86),
            ("acf_24h", 0.62),
            ("acf_168h", 0.27),
        ):
            assert abs(float(row[column]) - target) <= 0.03, column
