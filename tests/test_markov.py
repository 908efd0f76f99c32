from __future__ import annotations

import math

import numpy as np
import pytest

from outagekit.errors import InvalidInputError
from outagekit.markov import (
    derive_seed,
    simulate_fleet,
    simulate_unit,
    simulation_metadata,
    theoretical_unit_acf,
    transition_rates,
)
from outagekit.types import Fleet

from conftest import make_unit

STATIONARITY_SEED = 6  # shipped seed for the long-run stationarity checks


def sample_acf1(values: np.ndarray) -> float:
    xc = values - values.mean()
    return float(xc[:-1] @ xc[1:] / (xc @ xc))


# -- transition rates --------------------------------------------------------


def test_rates_ccgt_row():
    r = transition_rates(0.9, 50.0)
    assert r.repair_rate_mu == 0.02
    # 1/450 is not representable as a product of the formula's doubles; the
    # computed lambda lands within a couple of ulps of it.
    assert abs(r.failure_rate_lambda - 1 / 450) <= 4 * math.ulp(1 / 450)


def test_rates_perfect_availability():
    r = transition_rates(1.0, 20.0)
    assert r.repair_rate_mu == 0.05
    assert r.failure_rate_lambda == 0.0


def test_rates_nuclear_row():
    r = transition_rates(0.81, 150.0)
    assert r.repair_rate_mu == pytest.approx(0.0066667, rel=1e-4)
    assert r.failure_rate_lambda == pytest.approx(0.0015638, rel=1e-4)


def test_rates_clamped_to_unit_interval():
    r = transition_rates(0.001, 1.0)
    assert r.repair_rate_mu == 1.0
    assert r.failure_rate_lambda == 1.0


def test_rates_reject_zero_availability():
    with pytest.raises(InvalidInputError):
        transition_rates(0.0, 50.0)
    with pytest.raises(InvalidInputError):
        transition_rates(0.9, 0.0)


def test_all_table_rows_give_valid_probabilities():
    from outagekit.types import FUEL_PARAMS

    for params in FUEL_PARAMS.values():
        r = transition_rates(params.availability, params.mttr_hours)
        assert 0.0 < r.repair_rate_mu <= 1.0
        assert 0.0 < r.failure_rate_lambda < 1.0


# -- closed-form ACF ---------------------------------------------------------


def test_theoretical_acf_lag_zero_is_one():
    assert theoretical_unit_acf(transition_rates(0.9, 50.0), 0) == 1.0


def test_theoretical_acf_lag_one():
    acf = theoretical_unit_acf(transition_rates(0.9, 50.0), 1)
    assert acf == pytest.approx(0.9777778, abs=1e-6)


def test_theoretical_acf_alternating_chain():
    assert theoretical_unit_acf(transition_rates(0.5, 1.0), 1) == -1.0


def test_theoretical_acf_negative_lag_rejected():
    with pytest.raises(InvalidInputError):
        theoretical_unit_acf(transition_rates(0.9, 50.0), -1)


# -- unit simulation ---------------------------------------------------------


def test_simulate_perfect_unit_never_fails():
    unit = make_unit(availability=1.0)
    series = simulate_unit(unit, 5000, seed=3)
    assert not series.values_mw.any()


def test_simulate_deterministic_per_seed():
    unit = make_unit()
    a = simulate_unit(unit, 1000, seed=42)
    b = simulate_unit(unit, 1000, seed=42)
    np.testing.assert_array_equal(a.values_mw, b.values_mw)
    c = simulate_unit(unit, 1000, seed=43)
    assert (a.values_mw != c.values_mw).any()


def test_simulate_values_are_zero_or_capacity():
    unit = make_unit(capacity_mw=123)
    series = simulate_unit(unit, 2000, seed=1)
    assert set(np.unique(series.values_mw)) <= {0.0, 123.0}


def test_simulate_alternating_chain():
    """A=0.5, MTTR=1 gives mu = lambda = 1: states must strictly alternate."""
    unit = make_unit(availability=0.5, mttr_hours=1.0)
    series = simulate_unit(unit, 500, seed=11)
    diffs = np.diff(series.values_mw)
    assert (diffs != 0).all()


def test_simulate_stationary_up_fraction():
    unit = make_unit(availability=0.9, mttr_hours=50.0)
    series = simulate_unit(unit, 10**6, seed=STATIONARITY_SEED)
    up_fraction = float((series.values_mw == 0.0).mean())
    assert abs(up_fraction - 0.9) < 0.005


def test_simulate_acf_matches_closed_form():
    unit = make_unit(availability=0.9, mttr_hours=50.0)
    series = simulate_unit(unit, 10**6, seed=STATIONARITY_SEED)
    expected = theoretical_unit_acf(transition_rates(0.9, 50.0), 1)
    assert sample_acf1(series.values_mw) == pytest.approx(expected, abs=0.02)


def test_simulate_rejects_empty_horizon():
    with pytest.raises(InvalidInputError):
        simulate_unit(make_unit(), 0, seed=0)


# -- fleet simulation --------------------------------------------------------


def test_fleet_sim_is_sum_of_unit_sims():
    units = (make_unit("a", 100), make_unit("b", 250, 0.8), make_unit("c", 60, 0.95))
    fleet = Fleet(zone="T", units=units)
    total = simulate_fleet(fleet, 3000, seed=5)
    manual = np.zeros(3000)
    for i, unit in enumerate(units):
        manual += simulate_unit(unit, 3000, derive_seed(5, i)).values_mw
    np.testing.assert_array_equal(total.values_mw, manual)


def test_fleet_sim_single_unit_equals_unit_sim():
    unit = make_unit()
    fleet_series = simulate_fleet(Fleet(zone="T", units=(unit,)), 1000, seed=9)
    unit_series = simulate_unit(unit, 1000, derive_seed(9, 0))
    np.testing.assert_array_equal(fleet_series.values_mw, unit_series.values_mw)


def test_fleet_sim_perfect_fleet_all_zero():
    fleet = Fleet(
        zone="T", units=(make_unit("a", availability=1.0), make_unit("b", availability=1.0))
    )
    assert not simulate_fleet(fleet, 2000, seed=0).values_mw.any()


def test_fleet_sim_long_run_mean():
    units = (make_unit("a", 100, 0.9), make_unit("b", 200, 0.8, 25.0))
    fleet = Fleet(zone="T", units=units)
    series = simulate_fleet(fleet, 10**6, seed=STATIONARITY_SEED)
    expected = 100 * 0.1 + 200 * 0.2
    assert float(series.values_mw.mean()) == pytest.approx(expected, rel=0.01)


def test_fleet_sim_rejects_empty_fleet():
    with pytest.raises(InvalidInputError):
        simulate_fleet(Fleet(zone="T", units=()), 100, seed=0)


def test_metadata_records_seed_and_rng():
    fleet = Fleet(zone="T", units=(make_unit(),))
    meta = simulation_metadata(fleet, 100, 17, simulate_fleet(fleet, 1, 0).start)
    assert meta["seed"] == 17
    assert "PCG64" in meta["rng"]
    assert meta["n_hours"] == 100
