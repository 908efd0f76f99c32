"""Fleet synthesis and the time-collapsed outage distribution.

A unit is on outage with probability ``1 - availability``, so its outage in
MW is a two-point random variable on {0, capacity}.  Under independence the
fleet-wide outage distribution is the discrete convolution of the unit
distributions on a 1 MW grid, computed exactly here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import InvalidInputError, MissingPoolError
from .types import Fleet, Fuel, FuelParams, FuelSizePool, GeneratorUnit

PROB_SUM_TOL = 1e-9


@dataclass(frozen=True)
class CapacityOutagePMF:
    """Probability mass over total MW on outage, indexed 0..total capacity.

    ``probabilities[k]`` is the probability that exactly ``k`` MW of the
    fleet is on outage.  The array always spans the full support, so two
    PMFs over the same fleet compare elementwise.
    """

    probabilities: np.ndarray

    def __post_init__(self) -> None:
        p = np.asarray(self.probabilities, dtype=np.float64)
        object.__setattr__(self, "probabilities", p)
        if p.ndim != 1 or p.size == 0:
            raise InvalidInputError("PMF must be a non-empty 1-D array")
        if not (np.isfinite(p).all() and (p >= 0.0).all()):
            raise InvalidInputError("PMF entries must be finite and non-negative")
        total = float(p.sum())
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise InvalidInputError(f"PMF mass {total} is not 1 within {PROB_SUM_TOL}")

    @property
    def max_outage_mw(self) -> int:
        return int(self.probabilities.size - 1)

    def cdf(self) -> np.ndarray:
        return np.cumsum(self.probabilities)


def pool_unit_sizes(
    registry: Iterable[tuple[Fuel, int]],
) -> dict[Fuel, FuelSizePool]:
    """Pool registry unit sizes into one empirical size multiset per fuel.

    Every registry entry of a fuel contributes one size to that fuel's pool,
    duplicates included, so later draws are frequency-weighted.  Fuels absent
    from the registry are absent from the result.
    """
    rows = list(registry)
    if not rows:
        raise InvalidInputError("registry is empty")
    sizes: dict[Fuel, list[int]] = {}
    for fuel, capacity_mw in rows:
        sizes.setdefault(fuel, []).append(int(capacity_mw))
    return {
        fuel: FuelSizePool(fuel=fuel, sizes_mw=tuple(vals))
        for fuel, vals in sizes.items()
    }


def synthesize_fleet(
    target_mw_by_fuel: Mapping[Fuel, int],
    pools: Mapping[Fuel, FuelSizePool],
    params: Mapping[Fuel, FuelParams],
    seed: int,
    *,
    zone: str = "",
) -> Fleet:
    """Build a representative fleet hitting each fuel's capacity target exactly.

    Unit sizes are drawn uniformly at random (with replacement) from the
    fuel's pool until the cumulative capacity reaches the target; the final
    unit is truncated so the per-fuel total equals the target exactly.  All
    units of a fuel share that fuel's availability and MTTR.

    Parameters
    ----------
    target_mw_by_fuel : mapping of fuel to target installed capacity in MW.
        Fuels with a zero or negative target are skipped.
    pools : per-fuel empirical size pools (see pool_unit_sizes).
    params : per-fuel availability / MTTR; must cover every targeted fuel.
    seed : RNG seed; the same seed always yields the same fleet.
    zone : zone code stamped on the fleet and unit ids.

    Returns
    -------
    Fleet with unit ids from ``unit_id``.
    """
    rng = np.random.default_rng(seed)
    units: list[GeneratorUnit] = []
    # Iterate fuels in enum declaration order so the draw sequence does not
    # depend on mapping insertion order.
    for fuel in Fuel:
        target = int(target_mw_by_fuel.get(fuel, 0))
        if target <= 0:
            continue
        pool = pools.get(fuel)
        if pool is None:
            raise MissingPoolError(
                f"fuel {fuel.value} has target {target} MW but no size pool"
            )
        if fuel not in params:
            raise InvalidInputError(f"no availability/MTTR parameters for {fuel.value}")
        p = params[fuel]
        remaining = target
        index = 0
        while remaining > 0:
            size = int(pool.sizes_mw[int(rng.integers(len(pool.sizes_mw)))])
            size = min(size, remaining)  # truncate the final unit
            units.append(
                GeneratorUnit(
                    id=unit_id(zone, fuel, index),
                    fuel=fuel,
                    capacity_mw=size,
                    availability=p.availability,
                    mttr_hours=p.mttr_hours,
                )
            )
            remaining -= size
            index += 1
    return Fleet(zone=zone, units=tuple(units))


def unit_id(zone: str, fuel: Fuel, index: int) -> str:
    """Id of the ``index``-th unit of ``fuel``: ``{zone}-{fuel}-{index:03d}``.

    Without a zone the id is ``{fuel}-{index:03d}``.
    """
    return f"{zone}-{fuel.value}-{index:03d}" if zone else f"{fuel.value}-{index:03d}"


def _canonical_unit_order(units: Sequence[GeneratorUnit]) -> list[GeneratorUnit]:
    # Folding in a fixed order makes the convolution bit-identical under any
    # permutation of the input units (float addition is not associative).
    return sorted(units, key=lambda u: (u.capacity_mw, u.availability, u.fuel.value, u.id))


def fleet_outage_pmf(fleet: Fleet) -> CapacityOutagePMF:
    """Exact convolution of all unit outage distributions on the 1 MW grid.

    Each fold step exploits the two-point structure of a unit PMF:
    ``new[k] = A * old[k] + (1 - A) * old[k - capacity]``.  After some units
    every cell above the sum of their capacities, ``top``, is exactly zero, so
    a step touches only cells ``0..top + capacity``: the cost per unit is the
    support reached so far, not the fleet's total capacity.  Each live cell
    gets the same two products and the same one addition as a full-width
    fold, so the result is bit-identical to it.
    """
    if not fleet.units:
        raise InvalidInputError("fleet has no units")
    total = fleet.total_capacity_mw
    # Cells above ``top`` are never written, so both buffers stay zero there.
    cur = np.zeros(total + 1, dtype=np.float64)
    nxt = np.zeros(total + 1, dtype=np.float64)
    shifted = np.empty(total + 1, dtype=np.float64)
    cur[0] = 1.0
    top = 0
    for unit in _canonical_unit_order(fleet.units):
        c = unit.capacity_mw
        live = slice(0, top + 1)
        np.multiply(unit.availability, cur[live], out=nxt[live])
        np.multiply(1.0 - unit.availability, cur[live], out=shifted[live])
        nxt[c : top + c + 1] += shifted[live]
        cur, nxt = nxt, cur
        top += c
    return CapacityOutagePMF(probabilities=cur)


def pmf_quantile(pmf: CapacityOutagePMF, q: float) -> int:
    """Discrete inverse-CDF quantile: smallest grid point with CDF >= q."""
    if not 0.0 < q <= 1.0:
        raise InvalidInputError(f"quantile level must be in (0, 1], got {q}")
    cdf = pmf.cdf()
    return int(np.searchsorted(cdf, q, side="left"))


def pmf_stats(pmf: CapacityOutagePMF) -> tuple[float, float]:
    """Mean and interquartile range of an outage PMF, both in MW.

    Quantiles use the discrete inverse-CDF convention (smallest grid point
    whose CDF reaches the level); note this differs from the interpolated
    quantiles used for empirical hourly samples in stats.sample_stats.
    """
    grid = np.arange(pmf.probabilities.size, dtype=np.float64)
    mean = float(grid @ pmf.probabilities)
    iqr = float(pmf_quantile(pmf, 0.75) - pmf_quantile(pmf, 0.25))
    return mean, iqr
