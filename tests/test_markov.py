from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from outagekit.errors import InvalidInputError
from outagekit.markov import (
    TransitionRates,
    _in_service,
    derive_seed,
    simulate_fleet,
    simulate_unit,
    simulation_metadata,
    transition_rates,
)
from outagekit.fleet import fleet_outage_pmf, pmf_stats
from outagekit.stats import REPORT_LAGS_HOURS
from outagekit.types import FUEL_PARAMS, Fleet, Fuel, GeneratorUnit

from conftest import make_unit

STATIONARITY_SEED = 6  # shipped seed for the long-run stationarity checks


def sample_acf(values: np.ndarray, lag: int) -> float:
    xc = values - values.mean()
    return float(xc[:-lag] @ xc[lag:] / (xc @ xc))


def lowest_availability(mttr_hours: float) -> float:
    """Smallest float availability whose failure rate is at most 1.

    1/(1 + MTTR) may round either way, so step to the exact edge of
    lambda = (1/MTTR)(1/A - 1) <= 1 in ulps.
    """
    def lam(a: float) -> float:
        return (1.0 / mttr_hours) * (1.0 / a - 1.0)

    a = 1.0 / (1.0 + mttr_hours)
    while lam(a) > 1.0:
        a = float(np.nextafter(a, 1.0))
    while lam(float(np.nextafter(a, 0.0))) <= 1.0:
        a = float(np.nextafter(a, 0.0))
    return a


@st.composite
def in_domain_pairs(draw, max_mttr_hours: float):
    """(availability, mttr_hours) pairs the chain accepts, edges included."""
    mttr_hours = draw(st.one_of(st.sampled_from([1.0, 4.0]), st.floats(1.0, max_mttr_hours)))
    lowest = lowest_availability(mttr_hours)
    availability = draw(st.one_of(st.sampled_from([1.0, 0.5, lowest]), st.floats(lowest, 1.0)))
    return availability, mttr_hours


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


def test_rates_reject_pairs_the_chain_cannot_hold():
    below_lowest = float(np.nextafter(lowest_availability(4.0), 0.0))
    just_past_edges = [(below_lowest, 4.0), (1.0, float(np.nextafter(1.0, 0.0)))]
    for availability, mttr_hours in [(0.001, 1.0), (0.9, 0.5), *just_past_edges]:
        with pytest.raises(InvalidInputError, match="both hourly rates are at most 1"):
            transition_rates(availability, mttr_hours)


def test_rates_on_the_domain_edges():
    assert transition_rates(0.5, 1.0) == (1.0, 1.0)
    assert transition_rates(0.2, 4.0) == (0.25, 1.0)


def test_rates_reject_zero_availability():
    with pytest.raises(InvalidInputError):
        transition_rates(0.0, 50.0)
    with pytest.raises(InvalidInputError):
        transition_rates(0.9, 0.0)


def test_all_table_rows_give_valid_probabilities():
    for params in FUEL_PARAMS.values():
        r = transition_rates(params.availability, params.mttr_hours)
        assert 0.0 < r.repair_rate_mu <= 1.0
        assert 0.0 < r.failure_rate_lambda < 1.0


# -- unit simulation ---------------------------------------------------------


def _in_service_loop(u: np.ndarray, rates: TransitionRates, availability: float) -> np.ndarray:
    """Reference chain: one transition test per hour, as first written."""
    lam = rates.failure_rate_lambda
    mu = rates.repair_rate_mu
    up = np.empty(len(u), dtype=bool)
    state = u[0] < availability
    up[0] = state
    for t in range(1, len(u)):
        if state:
            state = not (u[t] < lam)
        else:
            state = u[t] < mu
        up[t] = state
    return up


def _simulate_unit_loop(unit, n_hours: int, seed: int) -> np.ndarray:
    """Reference for ``simulate_unit``: same draw, hour-by-hour chain."""
    rates = transition_rates(unit.availability, unit.mttr_hours)
    u = np.random.default_rng(seed).random(n_hours)
    up = _in_service_loop(u, rates, unit.availability)
    return np.where(up, 0.0, float(unit.capacity_mw))


# (availability, mttr_hours) rows covering each regime of the recurrence.
CHAIN_REGIMES = [
    (0.9, 50.0),  # lambda < mu
    (0.3, 10.0),  # lambda > mu
    (0.5, 4.0),  # lambda == mu
    (1.0, 20.0),  # lambda == 0: never fails
    (0.2, 4.0),  # lambda == 1: A == 1/(1 + MTTR)
    (0.7, 1.0),  # mu == 1
    (0.5, 1.0),  # mu == lambda == 1: strict alternation
]


@pytest.mark.parametrize("availability,mttr_hours", CHAIN_REGIMES)
@pytest.mark.parametrize("n_hours", [1, 2, 4321])
def test_simulate_matches_loop_in_each_regime(availability, mttr_hours, n_hours):
    unit = make_unit(capacity_mw=321, availability=availability, mttr_hours=mttr_hours)
    for seed in range(5):
        got = simulate_unit(unit, n_hours, seed).values_mw
        assert got.tobytes() == _simulate_unit_loop(unit, n_hours, seed).tobytes()


@settings(max_examples=300, deadline=None)
@given(
    pair=in_domain_pairs(max_mttr_hours=500.0),
    n_hours=st.one_of(st.sampled_from([1, 2]), st.integers(1, 60), st.integers(1000, 6000)),
    seed=st.integers(0, 2**63 - 1),
)
def test_simulate_matches_loop(pair, n_hours, seed):
    availability, mttr_hours = pair
    unit = make_unit(capacity_mw=77, availability=availability, mttr_hours=mttr_hours)
    got = simulate_unit(unit, n_hours, seed).values_mw
    assert got.tobytes() == _simulate_unit_loop(unit, n_hours, seed).tobytes()


@st.composite
def chain_on_edge_uniforms(draw):
    """Rates plus uniforms that often sit exactly on, or one ulp off, a rate.

    A generator stream almost never hits a rate exactly, so this is what
    tests every ``<`` against ``<=``.
    """
    availability, mttr_hours = draw(in_domain_pairs(max_mttr_hours=100.0))
    rates = transition_rates(availability, mttr_hours)
    edges = [0.0, availability]
    for rate in (rates.failure_rate_lambda, rates.repair_rate_mu):
        edges += [rate, np.nextafter(rate, 0.0), np.nextafter(rate, 1.0)]
    edges = [float(e) for e in edges if 0.0 <= e < 1.0]
    uniform = st.one_of(st.sampled_from(edges), st.floats(0.0, 1.0, exclude_max=True))
    u = np.array(draw(st.lists(uniform, min_size=1, max_size=80)))
    return u, rates, availability


@settings(max_examples=500, deadline=None)
@given(chain_on_edge_uniforms())
def test_chain_matches_loop_on_rate_edges(case):
    u, rates, availability = case
    got = _in_service(u, rates, availability)
    assert got.tobytes() == _in_service_loop(u, rates, availability).tobytes()


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
    mu, lam = transition_rates(0.9, 50.0)
    lag = 1
    expected = (1.0 - lam - mu) ** lag
    assert sample_acf(series.values_mw, lag) == pytest.approx(expected, abs=0.02)


def test_simulate_rejects_empty_horizon():
    with pytest.raises(InvalidInputError):
        simulate_unit(make_unit(), 0, seed=0)


# -- fleet simulation --------------------------------------------------------


def _sum_of_unit_sims(fleet: Fleet, n_hours: int, seed: int) -> np.ndarray:
    """Reference for ``simulate_fleet``: each unit's full series, added in index order."""
    total = np.zeros(n_hours)
    for i, unit in enumerate(fleet.units):
        total += simulate_unit(unit, n_hours, derive_seed(seed, i)).values_mw
    return total


@pytest.mark.parametrize("availability,mttr_hours", CHAIN_REGIMES)
@pytest.mark.parametrize("n_hours", [1, 2, 4321])
def test_fleet_sim_is_sum_of_unit_sims(availability, mttr_hours, n_hours):
    units = tuple(
        make_unit(uid, capacity, availability, mttr_hours)
        for uid, capacity in (("a", 100), ("b", 250), ("c", 60))
    )
    fleet = Fleet(zone="T", units=units)
    for seed in range(3):
        total = simulate_fleet(fleet, n_hours, seed).values_mw
        assert total.tobytes() == _sum_of_unit_sims(fleet, n_hours, seed).tobytes()


@pytest.mark.parametrize("n_hours", [1, 2, 4321])
def test_fleet_sim_mixing_regimes_is_sum_of_unit_sims(n_hours):
    units = tuple(
        make_unit(f"u{i}", 100 + 37 * i, a, m) for i, (a, m) in enumerate(CHAIN_REGIMES * 2)
    )
    fleet = Fleet(zone="T", units=units)
    for seed in range(3):
        total = simulate_fleet(fleet, n_hours, seed).values_mw
        assert total.tobytes() == _sum_of_unit_sims(fleet, n_hours, seed).tobytes()


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


def test_fleet_sim_long_run_matches_pmf_mean_and_exact_acf():
    """The chain and the PMF describe the same units, edges of the domain included.

    For independent stationary units with r = 1 - lambda - mu the fleet
    series has variance-of-mean sum(c^2 A (1 - A) (1 + r) / (1 - r)) / n and
    lag-k autocorrelation sum(c^2 A (1 - A) r^k) / sum(c^2 A (1 - A)).
    """
    pairs = [(p.availability, p.mttr_hours) for p in FUEL_PARAMS.values()] + [
        (0.7, 1.0),  # MTTR == 1: mu == 1
        (0.2, 4.0),  # A == 1/(1 + MTTR): lambda == 1
        (0.5, 1.0),  # both edges: strict alternation
        (1.0, 20.0),  # A == 1: never fails
    ]
    units = tuple(make_unit(f"u{i}", 100 + 37 * i, a, m) for i, (a, m) in enumerate(pairs))
    fleet = Fleet(zone="T", units=units)
    n_hours = 10**6
    values = simulate_fleet(fleet, n_hours, seed=STATIONARITY_SEED).values_mw
    weight = np.array([u.capacity_mw**2 * u.availability * (1.0 - u.availability) for u in units])
    r = np.array([1.0 - sum(transition_rates(u.availability, u.mttr_hours)) for u in units])

    pmf_mean, _ = pmf_stats(fleet_outage_pmf(fleet))
    sigma = math.sqrt(float(weight @ ((1.0 + r) / (1.0 - r))) / n_hours)
    assert abs(float(values.mean()) - pmf_mean) <= 5.0 * sigma
    for lag in REPORT_LAGS_HOURS:
        expected = float(weight @ r**lag) / float(weight.sum())
        assert sample_acf(values, lag) == pytest.approx(expected, abs=0.02), lag


def test_fleet_sim_bytes_pinned():
    """Fixed draw order and seed derivation: a change to either shows here."""
    rows = [
        (Fuel.BIOMASS, 100, 0.86, 40.0),
        (Fuel.COAL, 137, 0.86, 40.0),
        (Fuel.CCGT, 174, 0.90, 50.0),
        (Fuel.OIL, 211, 0.91, 50.0),
        (Fuel.HYDRO, 248, 0.90, 20.0),
        (Fuel.NUCLEAR, 285, 0.81, 150.0),
        (Fuel.CHP, 322, 0.90, 50.0),
        (Fuel.WASTE, 359, 0.86, 40.0),
        (Fuel.CCGT, 500, 1.0, 50.0),  # never fails
        (Fuel.OIL, 45, 0.5, 1.0),  # mu == lambda == 1
        (Fuel.COAL, 660, 0.3, 10.0),  # lambda > mu
        (Fuel.HYDRO, 250, 0.5, 4.0),  # lambda == mu
    ]
    units = tuple(GeneratorUnit(f"u{i}", *row) for i, row in enumerate(rows))
    series = simulate_fleet(Fleet(zone="PIN", units=units), 3024, seed=20240229)
    assert hashlib.sha256(series.values_mw.tobytes()).hexdigest() == (
        "4dd04177bc49758a372038e2cb57d02958c1d382acc5625e6831846f1033f78a"
    )


def test_fleet_sim_rejects_empty_fleet():
    with pytest.raises(InvalidInputError):
        simulate_fleet(Fleet(zone="T", units=()), 100, seed=0)


def test_metadata_records_seed_and_rng():
    fleet = Fleet(zone="T", units=(make_unit(),))
    meta = simulation_metadata(fleet, 100, 17, simulate_fleet(fleet, 1, 0).start)
    assert meta["seed"] == 17
    assert "PCG64" in meta["rng"]
    assert meta["n_hours"] == 100
