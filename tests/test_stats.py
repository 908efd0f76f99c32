from __future__ import annotations

from datetime import date, datetime, timedelta, timezone

import numpy as np
import pytest

from outagekit import pipeline
from outagekit.errors import InvalidInputError, StatsError
from outagekit.ingest import HourlyOutageSeries
from outagekit.pipeline import _pooled_stats
from outagekit.stats import (
    REPORT_LAGS_HOURS,
    SummaryStats,
    WinterWindow,
    autocorrelation,
    first_sunday_of_november,
    reconciliation_error,
    sample_stats,
    season_label_to_year,
    weekly_profile,
    window_values,
    winter_window,
)
from outagekit.timeseries import HOUR, HourlySeries, HourRange

from conftest import T0


def hs(start: datetime, values) -> HourlySeries:
    return HourlySeries(start=start, values_mw=np.asarray(values, dtype=float))


def outage_series(start: datetime, mean_vals, min_vals=None, max_vals=None):
    mean_vals = np.asarray(mean_vals, dtype=float)
    lo = mean_vals if min_vals is None else np.asarray(min_vals, dtype=float)
    hi = mean_vals if max_vals is None else np.asarray(max_vals, dtype=float)
    return HourlyOutageSeries(start=start, values_mw=mean_vals, o_min_mw=lo, o_max_mw=hi)


# -- winter windows ----------------------------------------------------------


def reference_window_hours(year: int) -> list[datetime]:
    """The retained hours of a winter window, built hour by hour.

    Reference for WinterWindow's weekly-block arithmetic: twenty 7-day
    blocks from the first Sunday of November, minus the blocks holding
    Dec 25 and Jan 1.
    """
    start_day = first_sunday_of_november(year)
    start = datetime(start_day.year, start_day.month, start_day.day, tzinfo=timezone.utc)
    excluded = {
        (date(year, 12, 25) - start_day).days // 7,
        (date(year + 1, 1, 1) - start_day).days // 7,
    }
    hours: list[datetime] = []
    for week in range(20):
        if week in excluded:
            continue
        week_start = start + timedelta(days=7 * week)
        hours.extend(week_start + k * HOUR for k in range(168))
    return hours


def window_hours(w: WinterWindow) -> list[datetime]:
    return [w.span.start + int(i) * HOUR for i in w.indices_in(w.span)]


def test_window_has_retained_hours():
    w = winter_window(2016)
    assert w.n_hours == 3024
    assert w.label == "16/17"


def test_window_indices_match_hourly_reference():
    for year in range(2000, 2099):
        w = winter_window(year)
        hours = reference_window_hours(year)
        assert w.start == hours[0], year
        assert w.n_hours == len(hours), year
        assert w.span == HourRange(hours[0], int((hours[-1] + HOUR - hours[0]) / HOUR)), year
        expected = [int((h - hours[0]) / HOUR) for h in hours]
        np.testing.assert_array_equal(w.indices_in(w.span), expected, err_msg=str(year))


def test_first_sunday_of_november():
    assert first_sunday_of_november(2015) == date(2015, 11, 1)
    assert first_sunday_of_november(2016) == date(2016, 11, 6)
    assert first_sunday_of_november(2020) == date(2020, 11, 1)
    assert first_sunday_of_november(2021) == date(2021, 11, 7)


def test_window_starts_on_first_sunday():
    w = winter_window(2016)
    assert w.start == datetime(2016, 11, 6, tzinfo=timezone.utc)
    assert winter_window(2020).start == datetime(2020, 11, 1, tzinfo=timezone.utc)


def test_window_excludes_holiday_weeks():
    for year in (2015, 2016, 2020):
        w = winter_window(year)
        dates = {h.date() for h in window_hours(w)}
        assert date(year, 12, 25) not in dates
        assert date(year + 1, 1, 1) not in dates


def test_window_hours_are_increasing_and_aligned():
    w = winter_window(2016)
    hours = window_hours(w)
    assert all(b > a for a, b in zip(hours, hours[1:]))
    assert all(h.minute == 0 and h.second == 0 for h in hours[:200])
    # hours come in 168-hour contiguous blocks
    deltas = {b - a for a, b in zip(hours, hours[1:])}
    assert HOUR in deltas and len(deltas) <= 3


def test_window_span_covers_twenty_weeks():
    w = winter_window(2016)
    assert w.span.n_hours == 20 * 168


def test_window_indices_select_correct_hours():
    w = winter_window(2016)
    # a range starting one day before the window
    rng_start = w.start - timedelta(hours=24)
    series = hs(rng_start, np.zeros(24 + w.span.n_hours))
    idx = w.indices_in(series.range)
    assert idx.size == 3024
    assert idx[0] == 24
    recovered = [rng_start + int(i) * HOUR for i in idx]
    assert recovered == reference_window_hours(2016)


def test_window_outside_range_rejected():
    w = winter_window(2016)
    short = hs(w.start, np.zeros(100))
    with pytest.raises(InvalidInputError, match="16/17"):
        w.indices_in(short.range)


def test_window_year_bounds():
    for year in (1999, 2100):
        with pytest.raises(InvalidInputError):
            winter_window(year)


def test_season_label_round_trip():
    assert season_label_to_year("16/17") == 2016
    assert season_label_to_year("20/21") == 2020
    assert winter_window(season_label_to_year("18/19")).label == "18/19"


def test_season_label_rejects_bad_forms():
    for label in ("16/18", "16", "xx/yy", "2016/17", ""):
        with pytest.raises(InvalidInputError):
            season_label_to_year(label)


def test_season_label_rejects_signs_and_spaces():
    # int() would read these as years 1999 and 2001
    for label in ("-1/00", "+1/02", " 1/02"):
        with pytest.raises(InvalidInputError, match="bad season label"):
            season_label_to_year(label)


# -- summary statistics ------------------------------------------------------


def test_sample_stats_small_example():
    mean, iqr = sample_stats(np.array([1.0, 2.0, 3.0, 4.0]))
    assert mean == 2.5
    assert iqr == 1.5  # type-7 quartiles 1.75 and 3.25


def test_sample_stats_constant():
    assert sample_stats(np.full(10, 5.0)) == (5.0, 0.0)


def test_sample_stats_empty_rejected():
    with pytest.raises(InvalidInputError):
        sample_stats(np.array([]))


def test_summary_windowed_ignores_outside_hours():
    w = winter_window(2016)
    values = np.full(w.span.n_hours, 999.0)
    series = hs(w.start, values)
    idx = w.indices_in(series.range)
    values[idx] = 1.0
    series = hs(w.start, values)
    assert sample_stats(window_values(series, w)) == (1.0, 0.0)
    mean_all, _ = sample_stats(window_values(series, None))
    assert mean_all > 1.0


def test_summary_accepts_outage_series():
    s = outage_series(T0, [10.0, 20.0, 30.0, 40.0])
    assert sample_stats(window_values(s, None)) == (25.0, 15.0)


# -- reconciliation error ----------------------------------------------------


def test_recon_error_zero_without_conflicts():
    s = outage_series(T0, [100.0, 50.0, 0.0])
    assert reconciliation_error(s) == 0.0


def test_recon_error_known_value():
    s = outage_series(T0, [100.0, 100.0], min_vals=[50.0, 100.0], max_vals=[150.0, 100.0])
    assert reconciliation_error(s) == 0.25


def test_recon_error_half():
    s = outage_series(T0, [100.0], min_vals=[50.0], max_vals=[150.0])
    assert reconciliation_error(s) == 0.5


def test_recon_error_scale_invariant():
    base = np.array([100.0, 30.0, 70.0])
    lo = np.array([80.0, 30.0, 50.0])
    hi = 2 * base - lo
    eps1 = reconciliation_error(outage_series(T0, base, lo, hi))
    eps7 = reconciliation_error(outage_series(T0, 7 * base, 7 * lo, 7 * hi))
    assert eps7 == pytest.approx(eps1)


def test_recon_error_zero_mass_rejected():
    with pytest.raises(StatsError, match="zero total outage"):
        reconciliation_error(outage_series(T0, [0.0, 0.0]))


def test_recon_error_windowed():
    w = winter_window(2016)
    n = w.span.n_hours
    mean_vals = np.zeros(n)
    min_vals = np.zeros(n)
    idx = w.indices_in(HourlySeries(start=w.start, values_mw=np.zeros(n)).range)
    mean_vals[idx] = 100.0
    min_vals[idx] = 50.0
    # conflicting hours outside the window must not matter
    outside = np.setdiff1d(np.arange(n), idx)
    mean_vals[outside] = 1000.0
    min_vals[outside] = 0.0
    s = outage_series(w.start, mean_vals, min_vals, 2 * mean_vals - min_vals)
    assert reconciliation_error(s, w) == 0.5


# -- autocorrelation ---------------------------------------------------------


def acf(values, lags):
    """Autocorrelation of a plain array, taken as one whole-series window."""
    return autocorrelation(hs(T0, values), None, lags)


def test_acf_lag_zero_is_one():
    got = acf(np.array([3.0, 1.0, 4.0, 1.0, 5.0]), [0])
    assert got[0] == 1.0


def test_acf_alternating_series():
    n = 100
    x = np.tile([1.0, -1.0], n // 2)
    got = acf(x, [1])
    assert got[1] == pytest.approx(-(n - 1) / n)


def test_acf_matches_manual_estimator():
    rng = np.random.default_rng(5)
    x = rng.normal(size=500)
    got = acf(x, [3])
    xc = x - x.mean()
    assert got[3] == pytest.approx(float(xc[:-3] @ xc[3:] / (xc @ xc)))


def test_acf_zero_variance_rejected():
    with pytest.raises(StatsError, match="zero variance"):
        acf(np.full(50, 7.0), [1])


def test_acf_lag_bounds():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    with pytest.raises(InvalidInputError):
        acf(x, [-1])
    with pytest.raises(InvalidInputError):
        acf(x, [4])
    with pytest.raises(InvalidInputError):
        acf(np.array([1.0]), [0])


# Window averaging lives in pipeline._pooled_stats, which evaluates the report
# lags; these one-week windows are too short for the 168 h lag, so the tests
# pool at short lags instead.


def test_autocorrelation_averages_per_window(monkeypatch):
    monkeypatch.setattr(pipeline, "REPORT_LAGS_HOURS", (0, 1, 2))
    rng = np.random.default_rng(12)
    series = hs(T0, rng.normal(size=4 * 168))
    w1 = WinterWindow(label="w1", start=T0, weeks=(0,))
    w2 = WinterWindow(label="w2", start=T0, weeks=(2,))
    _, _, got, _ = _pooled_stats([(series, w1), (series, w2)])
    a1 = acf(series.values_mw[0:168], (0, 1, 2))
    a2 = acf(series.values_mw[336:504], (0, 1, 2))
    for lag in (0, 1, 2):
        assert got[lag] == pytest.approx((a1[lag] + a2[lag]) / 2)


def test_autocorrelation_does_not_cross_window_seams(monkeypatch):
    # Two windows at wildly different levels: pooling them into one sample
    # would produce a large positive lag-1 value from the level shift alone.
    monkeypatch.setattr(pipeline, "REPORT_LAGS_HOURS", (1,))
    rng = np.random.default_rng(3)
    values = np.concatenate([rng.normal(size=168), 1000.0 + rng.normal(size=168)])
    series = hs(T0, values)
    w1 = WinterWindow(label="w1", start=T0, weeks=(0,))
    w2 = WinterWindow(label="w2", start=T0, weeks=(1,))
    _, _, split, _ = _pooled_stats([(series, w1), (series, w2)])
    pooled = acf(values, (1,))
    assert pooled[1] > 0.8  # dominated by the level shift
    assert abs(split[1]) < 0.8
    a1 = acf(values[:168], (1,))
    a2 = acf(values[168:], (1,))
    assert split[1] == pytest.approx((a1[1] + a2[1]) / 2)


def test_autocorrelation_whole_series_when_no_windows():
    rng = np.random.default_rng(8)
    series = hs(T0, rng.normal(size=300))
    got = autocorrelation(series, None, lags=(1, 6))
    xc = series.values_mw - series.values_mw.mean()
    ref = {lag: float(xc[:-lag] @ xc[lag:] / (xc @ xc)) for lag in (1, 6)}
    assert got == pytest.approx(ref)


def test_autocorrelation_constant_window_names_window():
    series = hs(T0, np.concatenate([np.full(168, 3.0), np.arange(168.0)]))
    w = WinterWindow(label="flat", start=T0, weeks=(0,))
    with pytest.raises(StatsError, match="flat"):
        autocorrelation(series, w, lags=(1,))


def test_report_lags():
    assert REPORT_LAGS_HOURS == (1, 6, 24, 168)


# -- weekly seasonality ------------------------------------------------------


YEAR_START = datetime(2001, 1, 1, tzinfo=timezone.utc)  # a Monday, ISO week 1


def test_weekly_profile_constant_is_flat():
    profile = weekly_profile(hs(YEAR_START, np.full(8760, 42.0)))
    assert profile.shape == (52,)
    np.testing.assert_allclose(profile, 1.0)


def test_weekly_profile_two_level_pattern():
    rng_hours = HourlySeries(start=YEAR_START, values_mw=np.zeros(8760)).range
    values = np.array(
        [2.0 if ts.isocalendar()[1] <= 26 else 0.0 for ts in rng_hours.hours()]
    )
    profile = weekly_profile(hs(YEAR_START, values))
    np.testing.assert_allclose(profile[:26], 2.0)
    np.testing.assert_allclose(profile[26:], 0.0)


def test_weekly_profile_mean_is_one():
    rng = np.random.default_rng(21)
    profile = weekly_profile(hs(YEAR_START, rng.uniform(10, 500, size=2 * 8760)))
    assert profile.mean() == pytest.approx(1.0)


def test_weekly_profile_week_53_folds():
    # 2015 has an ISO week 53; a constant series must still come out flat.
    start = datetime(2015, 1, 1, tzinfo=timezone.utc)
    profile = weekly_profile(hs(start, np.full(8760, 10.0)))
    np.testing.assert_allclose(profile, 1.0)


def test_weekly_profile_needs_a_year():
    with pytest.raises(InvalidInputError, match="full year"):
        weekly_profile(hs(YEAR_START, np.ones(5000)))


def test_weekly_profile_zero_series_rejected():
    with pytest.raises(StatsError, match="identically zero"):
        weekly_profile(hs(YEAR_START, np.zeros(8760)))


def test_weekly_profile_with_demand_returns_pair():
    outage = hs(YEAR_START, np.full(8760, 100.0))
    demand = hs(YEAR_START, np.full(8760, 30000.0))
    op, dp = weekly_profile(outage), weekly_profile(demand)
    np.testing.assert_allclose(op, 1.0)
    np.testing.assert_allclose(dp, 1.0)


def test_autocorrelation_and_weekly_profile_read_outage_series_midpoint():
    # a reconciled series is an HourlySeries whose values are the midpoint
    values = np.random.default_rng(5).uniform(10, 500, size=8760)
    plain = hs(YEAR_START, values)
    reconciled = outage_series(YEAR_START, values, values - 5.0, values + 5.0)
    assert autocorrelation(reconciled, None) == autocorrelation(plain, None)
    np.testing.assert_array_equal(weekly_profile(reconciled), weekly_profile(plain))


# -- stats bundle ------------------------------------------------------------


def test_summary_stats_validation():
    SummaryStats(mean_mw=10.0, iqr_mw=0.0, recon_error=None, acf={})
    with pytest.raises(InvalidInputError):
        SummaryStats(mean_mw=10.0, iqr_mw=-1.0, recon_error=None, acf={})
    with pytest.raises(InvalidInputError):
        SummaryStats(mean_mw=10.0, iqr_mw=0.0, recon_error=-0.1, acf={})
