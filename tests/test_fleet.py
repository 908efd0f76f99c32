from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from outagekit.errors import InvalidInputError, MissingPoolError
from outagekit.fleet import (
    CapacityOutagePMF,
    _canonical_unit_order,
    fleet_outage_pmf,
    pmf_quantile,
    pmf_stats,
    pool_unit_sizes,
    synthesize_fleet,
)
from outagekit.types import FUEL_PARAMS, Fleet, Fuel, FuelParams, FuelSizePool

from conftest import capacity_by_fuel, make_unit


def brute_force_pmf(units) -> np.ndarray:
    """Joint outage distribution by exhaustive enumeration of 2^n states.

    Independent oracle for the convolution: walks every up/down combination
    and accumulates its probability at the summed outage.
    """
    total = sum(u.capacity_mw for u in units)
    p = np.zeros(total + 1, dtype=np.float64)
    for states in itertools.product((0, 1), repeat=len(units)):
        prob = 1.0
        outage = 0
        for u, down in zip(units, states):
            prob *= (1.0 - u.availability) if down else u.availability
            outage += u.capacity_mw * down
        p[outage] += prob
    return p


def full_width_pmf(fleet: Fleet) -> np.ndarray:
    """Reference for ``fleet_outage_pmf``: every fold step spans the whole grid."""
    total = fleet.total_capacity_mw
    cur = np.zeros(total + 1, dtype=np.float64)
    cur[0] = 1.0
    for unit in _canonical_unit_order(fleet.units):
        c = unit.capacity_mw
        nxt = unit.availability * cur
        nxt[c:] += (1.0 - unit.availability) * cur[: total + 1 - c]
        cur = nxt
    return cur


def single_unit_pmf(unit):
    return fleet_outage_pmf(Fleet(zone="T", units=(unit,)))


def nonzero_mass(pmf) -> dict[int, float]:
    (support,) = np.nonzero(pmf.probabilities)
    return {int(k): float(pmf.probabilities[k]) for k in support}


def random_fleet(rng: np.random.Generator, max_units: int = 12) -> Fleet:
    n = int(rng.integers(1, max_units + 1))
    units = [
        make_unit(
            uid=f"u{i}",
            capacity_mw=int(rng.integers(1, 60)),
            availability=float(rng.uniform(0.5, 1.0)),
        )
        for i in range(n)
    ]
    return Fleet(zone="T", units=tuple(units))


# -- unit PMF ----------------------------------------------------------------


def test_unit_pmf_two_point():
    pmf = single_unit_pmf(make_unit(capacity_mw=100, availability=0.9))
    assert nonzero_mass(pmf) == {0: 0.9, 100: pytest.approx(0.1)}


def test_unit_pmf_always_available():
    pmf = single_unit_pmf(make_unit(capacity_mw=100, availability=1.0))
    assert nonzero_mass(pmf) == {0: 1.0}


def test_unit_pmf_nuclear_row():
    pmf = single_unit_pmf(make_unit(capacity_mw=750, availability=0.81, fuel=Fuel.NUCLEAR))
    assert nonzero_mass(pmf) == {0: pytest.approx(0.81), 750: pytest.approx(0.19)}


# -- fleet convolution -------------------------------------------------------


def test_two_identical_units():
    fleet = Fleet(zone="T", units=(make_unit("a"), make_unit("b")))
    pmf = fleet_outage_pmf(fleet)
    assert nonzero_mass(pmf) == {
        0: pytest.approx(0.81),
        100: pytest.approx(0.18),
        200: pytest.approx(0.01),
    }


def test_single_unit_fleet_matches_unit_pmf():
    unit = make_unit(capacity_mw=37, availability=0.77)
    fleet_pmf = fleet_outage_pmf(Fleet(zone="T", units=(unit,)))
    expected = np.zeros(38)
    expected[0] = 0.77
    expected[37] = 1.0 - 0.77
    np.testing.assert_array_equal(fleet_pmf.probabilities, expected)


def test_empty_fleet_rejected():
    with pytest.raises(InvalidInputError):
        fleet_outage_pmf(Fleet(zone="T", units=()))


def test_convolution_matches_enumeration_100_random_fleets():
    """100 random fleets of up to 12 units against the 2^n oracle."""
    rng = np.random.default_rng(2024)
    for _ in range(100):
        fleet = random_fleet(rng)
        expected = brute_force_pmf(fleet.units)
        got = fleet_outage_pmf(fleet).probabilities
        assert got.shape == expected.shape
        assert np.max(np.abs(got - expected)) < 1e-12
        assert abs(got.sum() - 1.0) < 1e-9


def test_mean_matches_linearity_of_expectation():
    rng = np.random.default_rng(7)
    for _ in range(50):
        fleet = random_fleet(rng)
        mean, _ = pmf_stats(fleet_outage_pmf(fleet))
        expected = sum(u.capacity_mw * (1.0 - u.availability) for u in fleet.units)
        assert mean == pytest.approx(expected, abs=1e-9)


def test_convolution_order_independent_bitwise():
    """Permuting the unit list must not change a single bit of the PMF."""
    rng = np.random.default_rng(99)
    fleet = random_fleet(rng, max_units=10)
    base = fleet_outage_pmf(fleet).probabilities
    for _ in range(5):
        perm = tuple(rng.permutation(len(fleet.units)))
        shuffled = Fleet(zone="T", units=tuple(fleet.units[i] for i in perm))
        np.testing.assert_array_equal(fleet_outage_pmf(shuffled).probabilities, base)


@st.composite
def fleets(draw):
    """Fleets of 1-40 units; sizes often repeat and availabilities are often 1."""
    capacity = st.one_of(st.sampled_from([1, 7, 100]), st.integers(1, 400))
    availability = st.one_of(st.sampled_from([1.0, 0.5]), st.floats(0.05, 1.0))
    rows = draw(st.lists(st.tuples(capacity, availability), min_size=1, max_size=40))
    return Fleet(zone="T", units=tuple(
        make_unit(f"u{i}", c, a) for i, (c, a) in enumerate(rows)
    ))


@settings(max_examples=200, deadline=None)
@given(fleets())
def test_convolution_matches_full_width_fold_bitwise(fleet):
    got = fleet_outage_pmf(fleet).probabilities
    assert got.tobytes() == full_width_pmf(fleet).tobytes()


# -- PMF stats ---------------------------------------------------------------


def test_pmf_stats_skewed_two_point():
    pmf = single_unit_pmf(make_unit(capacity_mw=100, availability=0.9))
    mean, iqr = pmf_stats(pmf)
    assert mean == pytest.approx(10.0)
    assert iqr == 0.0


def test_pmf_stats_symmetric_three_point():
    # p = {0: 0.25, 100: 0.5, 200: 0.25}: with the smallest-x-with-CDF>=q
    # convention, q25 = 0 (CDF(0) = 0.25) and q75 = 100 (CDF(100) = 0.75),
    # so the IQR is still 100.
    p = np.zeros(201)
    p[0], p[100], p[200] = 0.25, 0.5, 0.25
    pmf = CapacityOutagePMF(probabilities=p)
    mean, iqr = pmf_stats(pmf)
    assert mean == pytest.approx(100.0)
    assert iqr == pytest.approx(100.0)
    assert pmf_quantile(pmf, 0.25) == 0
    assert pmf_quantile(pmf, 0.75) == 100
    assert pmf_quantile(pmf, 1.0) == 200


@pytest.mark.parametrize(
    "probs", [[0.5, np.nan], [np.nan], [1.0, np.nan, 0.0], [1.5, -0.5]], ids=str
)
def test_pmf_rejects_non_finite_or_negative_entries(probs):
    with pytest.raises(InvalidInputError, match="finite and non-negative"):
        CapacityOutagePMF(probabilities=np.array(probs))


def test_pmf_quantile_rejects_bad_level():
    pmf = single_unit_pmf(make_unit())
    with pytest.raises(InvalidInputError):
        pmf_quantile(pmf, 0.0)
    with pytest.raises(InvalidInputError):
        pmf_quantile(pmf, 1.5)


# -- size pools --------------------------------------------------------------


def test_pool_unit_sizes_keeps_duplicates():
    pools = pool_unit_sizes(
        [(Fuel.COAL, 500), (Fuel.COAL, 500), (Fuel.CCGT, 400)]
    )
    assert pools[Fuel.COAL].sizes_mw == (500, 500)
    assert pools[Fuel.CCGT].sizes_mw == (400,)
    assert Fuel.NUCLEAR not in pools


def test_pool_unit_sizes_nuclear_pair():
    pools = pool_unit_sizes([(Fuel.NUCLEAR, 1000), (Fuel.NUCLEAR, 2000)])
    assert sorted(pools[Fuel.NUCLEAR].sizes_mw) == [1000, 2000]


def test_pool_unit_sizes_empty_registry():
    with pytest.raises(InvalidInputError):
        pool_unit_sizes([])


def test_pool_unit_sizes_rejects_non_positive_size():
    with pytest.raises(InvalidInputError, match="size pool for Coal contains non-positive"):
        pool_unit_sizes([(Fuel.COAL, 500), (Fuel.COAL, 0)])


# -- fleet synthesis ---------------------------------------------------------


def _nuclear_pool(*sizes: int) -> dict:
    return {Fuel.NUCLEAR: FuelSizePool(fuel=Fuel.NUCLEAR, sizes_mw=sizes)}


def test_synthesize_exact_totals_and_determinism():
    targets = {Fuel.NUCLEAR: 10_000}
    pools = _nuclear_pool(1000, 2000)
    a = synthesize_fleet(targets, pools, FUEL_PARAMS, seed=1, zone="GB")
    b = synthesize_fleet(targets, pools, FUEL_PARAMS, seed=1, zone="GB")
    assert a == b
    assert capacity_by_fuel(a) == {Fuel.NUCLEAR: 10_000}
    assert all(u.capacity_mw in (1000, 2000) or u is a.units[-1] for u in a.units)
    assert all(u.availability == FUEL_PARAMS[Fuel.NUCLEAR].availability for u in a.units)
    different = synthesize_fleet(targets, pools, FUEL_PARAMS, seed=2, zone="GB")
    assert capacity_by_fuel(different) == {Fuel.NUCLEAR: 10_000}


def test_synthesize_single_size_pool_forced_composition():
    pools = {Fuel.CCGT: FuelSizePool(fuel=Fuel.CCGT, sizes_mw=(400,))}
    fleet = synthesize_fleet({Fuel.CCGT: 400}, pools, FUEL_PARAMS, seed=0)
    assert [u.capacity_mw for u in fleet.units] == [400]


def test_synthesize_truncates_final_unit():
    pools = {Fuel.COAL: FuelSizePool(fuel=Fuel.COAL, sizes_mw=(500,))}
    fleet = synthesize_fleet({Fuel.COAL: 700}, pools, FUEL_PARAMS, seed=0)
    assert [u.capacity_mw for u in fleet.units] == [500, 200]


def test_synthesize_missing_pool():
    with pytest.raises(MissingPoolError) as info:
        synthesize_fleet({Fuel.NUCLEAR: 1000}, {}, FUEL_PARAMS, seed=0)
    # an InvalidInputError (exit 2) whose message prints unquoted
    assert isinstance(info.value, InvalidInputError)
    assert str(info.value) == f"fuel {Fuel.NUCLEAR.value} has target 1000 MW but no size pool"


def test_synthesize_missing_params():
    pools = _nuclear_pool(1000)
    with pytest.raises(InvalidInputError):
        synthesize_fleet({Fuel.NUCLEAR: 1000}, pools, {}, seed=0)


def test_synthesize_many_seeds_always_hit_target():
    pools = {
        Fuel.CCGT: FuelSizePool(fuel=Fuel.CCGT, sizes_mw=(400, 250, 350)),
        Fuel.COAL: FuelSizePool(fuel=Fuel.COAL, sizes_mw=(300, 500)),
    }
    targets = {Fuel.CCGT: 1234, Fuel.COAL: 999}
    for seed in range(20):
        fleet = synthesize_fleet(targets, pools, FUEL_PARAMS, seed=seed, zone="Z")
        assert capacity_by_fuel(fleet) == targets


@pytest.mark.parametrize("mttr_hours", [0.0, -1.0, math.nan, math.inf, -math.inf, True, "50"])
def test_mttr_must_be_finite_and_positive(mttr_hours):
    with pytest.raises(InvalidInputError, match="mttr_hours must be finite and > 0"):
        FuelParams(availability=0.9, mttr_hours=mttr_hours)
    with pytest.raises(InvalidInputError, match="mttr_hours must be finite and > 0"):
        make_unit(mttr_hours=mttr_hours)


@pytest.mark.parametrize("availability", [0.0, -0.1, 1.5, math.nan, math.inf, True, "0.9"])
def test_availability_must_be_in_unit_interval(availability):
    with pytest.raises(InvalidInputError, match="availability must be in"):
        FuelParams(availability=availability, mttr_hours=50.0)
    with pytest.raises(InvalidInputError, match="availability must be in"):
        make_unit(availability=availability)


@pytest.mark.parametrize("capacity_mw", [0, -5, 1.5, True, "100"])
def test_capacity_must_be_a_positive_integer(capacity_mw):
    with pytest.raises(InvalidInputError, match="capacity_mw must be a positive integer"):
        make_unit(capacity_mw=capacity_mw)


@pytest.mark.parametrize("availability,mttr_hours", [(0.9, 0.5), (0.05, 10.0)])
def test_pair_outside_chain_domain_rejected(availability, mttr_hours):
    with pytest.raises(InvalidInputError, match="both hourly rates are at most 1"):
        FuelParams(availability=availability, mttr_hours=mttr_hours)
    with pytest.raises(InvalidInputError, match="both hourly rates are at most 1"):
        make_unit(availability=availability, mttr_hours=mttr_hours)


def test_table_one_values_shipped():
    assert FUEL_PARAMS[Fuel.NUCLEAR] == FuelParams(availability=0.81, mttr_hours=150.0)
    assert FUEL_PARAMS[Fuel.CCGT] == FuelParams(availability=0.90, mttr_hours=50.0)
    assert FUEL_PARAMS[Fuel.HYDRO] == FuelParams(availability=0.90, mttr_hours=20.0)
    assert len(FUEL_PARAMS) == len(Fuel)
