from __future__ import annotations

from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from outagekit.errors import InvalidInputError
from outagekit.ingest import (
    Channel,
    HourlyOutageSeries,
    ReportKind,
    unit_series,
    zone_aggregate,
)
from outagekit.timeseries import MINUTE, HourlySeries, HourRange

from conftest import T0, make_report


def triples(series: HourlyOutageSeries) -> list[tuple[float, float, float]]:
    return [
        (float(a), float(b), float(c))
        for a, b, c in zip(series.o_min_mw, series.values_mw, series.o_max_mw)
    ]


# -- single-hour reconciliation ----------------------------------------------


def one_hour_total(reports, hour) -> tuple[float, float, float]:
    """Total-channel (min, mean, max) of the reports over one hour."""
    (t,) = triples(unit_series(reports, HourRange(hour, 1))[Channel.TOTAL])
    return t


def test_single_report_full_hour():
    t = one_hour_total([make_report(unavailable_mw=150.0)], T0)
    assert t == (150.0, 150.0, 150.0)


def test_partial_hour_coverage_time_averages():
    # 100 MW for the first half hour, nothing reported after: uncovered
    # minutes count as zero outage.
    t = one_hour_total([make_report(end_h=0.5, unavailable_mw=100.0)], T0)
    assert t == (50.0, 50.0, 50.0)


def test_step_within_hour_averages_to_170():
    reports = [
        make_report("a", start_h=0.0, end_h=0.2, unavailable_mw=50.0),
        make_report("b", start_h=0.2, end_h=1.0, unavailable_mw=200.0),
    ]
    t = one_hour_total(reports, T0)
    assert t == (170.0, 170.0, 170.0)


def test_conflicting_reports_spread_the_envelope():
    reports = [
        make_report("a", unavailable_mw=100.0),
        make_report("b", unavailable_mw=300.0),
    ]
    t = one_hour_total(reports, T0)
    assert t == (100.0, 200.0, 300.0)


def test_no_reports_is_zero():
    t = one_hour_total([], T0)
    assert t == (0.0, 0.0, 0.0)


def test_reports_outside_hour_ignored():
    t = one_hour_total([make_report(start_h=2, end_h=3)], T0)
    assert t[2] == 0.0


def test_straddling_report_clipped_not_dropped():
    t = one_hour_total([make_report(start_h=-5, end_h=5, unavailable_mw=80.0)], T0)
    assert t == (80.0, 80.0, 80.0)


# -- channel split -----------------------------------------------------------


def test_total_pools_forced_and_planned_without_summing():
    # The same 400 MW event reported both as forced and planned: Total
    # reconciles to 400 MW, not 800.
    reports = [
        make_report("f", kind=ReportKind.FORCED, unavailable_mw=400.0, end_h=2),
        make_report("p", kind=ReportKind.PLANNED, unavailable_mw=400.0, end_h=2),
    ]
    series = unit_series(reports, HourRange(T0, 2))
    assert triples(series[Channel.TOTAL]) == [(400.0, 400.0, 400.0)] * 2
    assert triples(series[Channel.FORCED]) == [(400.0, 400.0, 400.0)] * 2
    assert triples(series[Channel.PLANNED]) == [(400.0, 400.0, 400.0)] * 2


def test_total_envelope_spans_disagreeing_kinds():
    reports = [
        make_report("f", kind=ReportKind.FORCED, unavailable_mw=100.0),
        make_report("p", kind=ReportKind.PLANNED, unavailable_mw=300.0),
    ]
    series = unit_series(reports, HourRange(T0, 1))
    assert triples(series[Channel.FORCED]) == [(100.0, 100.0, 100.0)]
    assert triples(series[Channel.PLANNED]) == [(300.0, 300.0, 300.0)]
    assert triples(series[Channel.TOTAL]) == [(100.0, 200.0, 300.0)]


def test_channels_select_own_kind():
    reports = [make_report("f", kind=ReportKind.FORCED, unavailable_mw=120.0)]
    series = unit_series(reports, HourRange(T0, 1))
    assert triples(series[Channel.PLANNED]) == [(0.0, 0.0, 0.0)]
    assert triples(series[Channel.FORCED]) == [(120.0, 120.0, 120.0)]
    assert triples(series[Channel.TOTAL]) == [(120.0, 120.0, 120.0)]


def test_unit_series_split_report_equivalent_to_whole():
    whole = unit_series(
        [make_report("a", start_h=0, end_h=2, unavailable_mw=150.0)], HourRange(T0, 2)
    )
    split = unit_series(
        [
            make_report("a1", start_h=0, end_h=1, unavailable_mw=150.0),
            make_report("a2", start_h=1, end_h=2, unavailable_mw=150.0),
        ],
        HourRange(T0, 2),
    )
    for channel in Channel:
        assert triples(whole[channel]) == triples(split[channel])


def test_unit_series_rejects_mixed_units():
    reports = [make_report("a", unit_id="u1"), make_report("b", unit_id="u2")]
    with pytest.raises(InvalidInputError, match="several units"):
        unit_series(reports, HourRange(T0, 1))


# -- brute-force oracle ------------------------------------------------------


def brute_force_channel(reports, period: HourRange, kind_filter):
    """Minute-loop reference reconciliation, independent of the vector code."""
    selected = [r for r in reports if kind_filter(r)]
    n_minutes = period.n_hours * 60
    lo, hi = [], []
    for minute in range(n_minutes):
        t = period.start + minute * (period.end - period.start) / n_minutes
        active = [r.unavailable_mw for r in selected if r.start <= t < r.end]
        lo.append(min(active) if active else 0.0)
        hi.append(max(active) if active else 0.0)
    out = []
    for h in range(period.n_hours):
        o_min = sum(lo[h * 60 : (h + 1) * 60]) / 60.0
        o_max = sum(hi[h * 60 : (h + 1) * 60]) / 60.0
        out.append((o_min, (o_min + o_max) / 2.0, o_max))
    return out


def test_reconciliation_matches_minute_loop_oracle():
    rng = np.random.default_rng(2024)
    period = HourRange(T0, 3)
    for trial in range(25):
        reports = []
        for i in range(int(rng.integers(0, 7))):
            a, b = sorted(rng.integers(-60, 241, size=2).tolist())
            if a == b:
                b += 1
            reports.append(
                make_report(
                    f"r{trial}-{i}",
                    start_h=a / 60.0,
                    end_h=b / 60.0,
                    unavailable_mw=float(rng.integers(0, 500)),
                    kind=ReportKind.FORCED if rng.integers(2) else ReportKind.PLANNED,
                )
            )
        series = unit_series(reports, period)
        expected = {
            Channel.FORCED: lambda r: r.kind is ReportKind.FORCED,
            Channel.PLANNED: lambda r: r.kind is ReportKind.PLANNED,
            Channel.TOTAL: lambda r: True,
        }
        for channel, pred in expected.items():
            oracle = brute_force_channel(reports, period, pred)
            got = triples(series[channel])
            assert got == pytest.approx(oracle), f"trial {trial} {channel}"


def test_total_bounded_by_channel_sum():
    rng = np.random.default_rng(77)
    period = HourRange(T0, 2)
    for trial in range(20):
        reports = [
            make_report(
                f"r{trial}-{i}",
                start_h=float(rng.integers(0, 100)) / 60.0,
                end_h=float(rng.integers(100, 240)) / 60.0,
                unavailable_mw=float(rng.integers(1, 400)),
                kind=ReportKind.FORCED if rng.integers(2) else ReportKind.PLANNED,
            )
            for i in range(4)
        ]
        s = unit_series(reports, period)
        total = s[Channel.TOTAL]
        forced = s[Channel.FORCED]
        planned = s[Channel.PLANNED]
        assert (total.o_max_mw <= forced.o_max_mw + planned.o_max_mw + 1e-9).all()
        assert (total.o_min_mw <= forced.o_min_mw + planned.o_min_mw + 1e-9).all()
        assert (total.o_max_mw >= np.maximum(forced.o_min_mw, planned.o_min_mw) - 1e-9).all()


# -- touched-hour fast path against the full minute grid ---------------------


def full_grid_reconcile(reports, period: HourRange):
    """Reference reconciliation over a minute grid spanning the whole period."""
    m = period.n_minutes
    lo = np.full(m, np.inf)
    hi = np.zeros(m)
    covered = np.zeros(m, dtype=bool)
    for r in reports:
        s = max(int((r.start - period.start) / MINUTE), 0)
        e = min(int((r.end - period.start) / MINUTE), m)
        if e <= s:
            continue
        np.minimum(lo[s:e], r.unavailable_mw, out=lo[s:e])
        np.maximum(hi[s:e], r.unavailable_mw, out=hi[s:e])
        covered[s:e] = True
    lo[~covered] = 0.0
    o_min = lo.reshape(period.n_hours, 60).mean(axis=1)
    o_max = hi.reshape(period.n_hours, 60).mean(axis=1)
    return o_min, (o_min + o_max) / 2.0, o_max


_KIND_OF = {Channel.FORCED: ReportKind.FORCED, Channel.PLANNED: ReportKind.PLANNED}


def assert_matches_full_grid(reports, period: HourRange) -> None:
    series = unit_series(reports, period)
    for channel, s in series.items():
        kind = _KIND_OF.get(channel)
        selected = [r for r in reports if kind is None or r.kind is kind]
        for got, want in zip((s.o_min_mw, s.values_mw, s.o_max_mw),
                             full_grid_reconcile(selected, period)):
            assert got.tobytes() == want.tobytes(), channel


@st.composite
def reports_and_period(draw):
    """Up to twelve reports on one unit around a 1- to 400-hour period.

    Offsets are in seconds, so reports can straddle either period edge, lie
    wholly outside it, or last less than an hour or less than a minute.
    """
    n_hours = draw(st.integers(1, 400))
    period = HourRange(T0 + timedelta(hours=draw(st.integers(0, 48))), n_hours)
    seconds = n_hours * 3600
    offset_h = (period.start - T0) / timedelta(hours=1)
    reports = []
    for i in range(draw(st.integers(0, 12))):
        start = draw(st.integers(-7200, seconds + 7200))
        length = draw(st.one_of(st.integers(1, 59), st.integers(60, 3600), st.integers(1, seconds)))
        reports.append(
            make_report(
                f"r{i}",
                start_h=offset_h + start / 3600.0,
                end_h=offset_h + (start + length) / 3600.0,
                unavailable_mw=draw(st.floats(0.0, 2000.0, allow_nan=False)),
                kind=draw(st.sampled_from(ReportKind)),
            )
        )
    return reports, period


@settings(max_examples=400, deadline=None)
@given(reports_and_period())
def test_touched_hours_match_full_grid(case):
    assert_matches_full_grid(*case)


@pytest.mark.parametrize(
    "bounds_h",
    [
        [],  # no reports
        [(-3.0, -1.0), (401.0, 405.0)],  # wholly outside the period
        [(-0.5, 0.25)],  # straddles the start
        [(399.9, 402.0)],  # straddles the end
        [(-1.0, 401.0)],  # covers everything
        [(10.0 + 1 / 7200, 10.0 + 1 / 3600)],  # under a minute
        [(17.05, 17.35), (250.5, 250.6)],  # sub-hour, far apart
        [(5.5, 6.0), (6.0, 6.5), (7.0, 7.25), (7.1, 9.0)],  # runs meeting at hour edges
        [(300.0, 320.0), (3.0, 4.0), (310.5, 310.75), (2.5, 3.5)],  # runs out of order
    ],
)
def test_touched_hours_edge_cases(bounds_h):
    period = HourRange(T0, 400)
    reports = [
        make_report(f"r{i}", start_h=a, end_h=b, unavailable_mw=123.456 + i,
                    kind=ReportKind.FORCED if i % 2 else ReportKind.PLANNED)
        for i, (a, b) in enumerate(bounds_h)
    ]
    assert_matches_full_grid(reports, period)


# -- zone aggregation --------------------------------------------------------


def _unit(lo, hi) -> dict[Channel, HourlyOutageSeries]:
    """One unit's series: the same envelopes in every channel."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    return {c: HourlyOutageSeries(T0, (lo + hi) / 2, lo, hi) for c in Channel}


def test_outage_series_is_an_hourly_series():
    assert issubclass(HourlyOutageSeries, HourlySeries)
    s = _unit([1, 2], [3, 4])[Channel.TOTAL]
    assert s.range == HourRange(T0, 2)
    assert s.values_mw.tolist() == [2.0, 3.0]


@pytest.mark.parametrize("envelope", ["o_min_mw", "o_max_mw"])
@pytest.mark.parametrize("bad", [[1.0], [1.0, 2.0, 3.0], [[1.0, 2.0]]])
def test_outage_series_rejects_envelope_of_another_shape(envelope, bad):
    arrays = {"o_min_mw": [1.0, 2.0], "o_max_mw": [3.0, 4.0], envelope: bad}
    with pytest.raises(InvalidInputError, match=envelope):
        HourlyOutageSeries(T0, [2.0, 3.0], **arrays)


def test_zone_aggregate_single_series_identity():
    s = _unit([10, 20], [30, 40])
    agg = zone_aggregate({"u1": s}, HourRange(T0, 2))
    for c in Channel:
        assert triples(agg[c]) == triples(s[c])


def test_zone_aggregate_sums_envelopes():
    agg = zone_aggregate(
        {"u1": _unit([10, 0], [30, 0]), "u2": _unit([5, 5], [5, 15])}, HourRange(T0, 2)
    )
    for c in Channel:
        assert triples(agg[c]) == [(15.0, 25.0, 35.0), (5.0, 10.0, 15.0)]


def test_zone_aggregate_order_invariant():
    parts = [("b", _unit([1], [2])), ("a", _unit([3], [4])), ("c", _unit([5], [6]))]
    fwd = zone_aggregate(dict(parts), HourRange(T0, 1))
    rev = zone_aggregate(dict(reversed(parts)), HourRange(T0, 1))
    for c in Channel:
        assert triples(fwd[c]) == triples(rev[c])


def test_zone_aggregate_midpoint_recomputed():
    agg = zone_aggregate({"u1": _unit([0], [10]), "u2": _unit([0], [20])}, HourRange(T0, 1))
    for s in agg.values():
        assert s.values_mw[0] == (s.o_min_mw[0] + s.o_max_mw[0]) / 2


def test_zone_aggregate_of_no_units_is_zero():
    agg = zone_aggregate({}, HourRange(T0, 3))
    assert set(agg) == set(Channel)
    for s in agg.values():
        assert s.range == HourRange(T0, 3)
        assert triples(s) == [(0.0, 0.0, 0.0)] * 3


def test_zone_aggregate_rejects_mismatched_periods():
    with pytest.raises(InvalidInputError, match="period"):
        zone_aggregate({"u1": _unit([1], [2]), "u2": _unit([1, 1], [2, 2])}, HourRange(T0, 1))
    with pytest.raises(InvalidInputError, match="period"):
        zone_aggregate({"u1": _unit([1], [2])}, HourRange(T0 + timedelta(hours=1), 1))


def test_zone_aggregate_consistent_with_pooled_units():
    """Aggregating per-unit reconciliations equals reconciling each unit alone."""
    r1 = [make_report("a", unit_id="u1", unavailable_mw=100.0, end_h=2)]
    r2 = [make_report("b", unit_id="u2", unavailable_mw=50.0, start_h=1, end_h=2)]
    period = HourRange(T0, 2)
    agg = zone_aggregate({"u1": unit_series(r1, period), "u2": unit_series(r2, period)}, period)
    assert triples(agg[Channel.TOTAL]) == [(100.0, 100.0, 100.0), (150.0, 150.0, 150.0)]
