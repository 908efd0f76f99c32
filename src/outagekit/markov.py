"""Time-sequential two-state Markov simulation of unit availability.

A unit is either in service or on outage.  With availability A and mean time
to repair MTTR (hours), the hourly repair and failure rates are

    mu = 1 / MTTR        lambda = mu * (1 / A - 1)

and the discrete-time chain uses these rates directly as per-hour transition
probabilities (valid for rates well below 1; both are clamped to [0, 1]).
The stationary distribution of the chain is "in service with probability A",
which is also used as the initial state so no burn-in is required.

Randomness comes from numpy's default generator (PCG64).  Fleet simulations
derive one child seed per unit from ``(seed, unit_index)`` so per-unit
streams are independent, reproducible, and order-insensitive.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from .errors import InvalidInputError
from .timeseries import HourlySeries
from .types import Fleet, GeneratorUnit

RNG_NAME = "numpy.random.default_rng (PCG64)"

#: Simulated series start at this hour unless the caller provides one; the
#: chain is stationary so the choice carries no statistical meaning.
DEFAULT_SIM_START = datetime(2000, 1, 1, tzinfo=timezone.utc)


@dataclass(frozen=True)
class TransitionRates:
    """Per-hour repair and failure transition probabilities."""

    repair_rate_mu: float
    failure_rate_lambda: float

    def __post_init__(self) -> None:
        if not 0.0 < self.repair_rate_mu <= 1.0:
            raise InvalidInputError(f"mu must be in (0, 1], got {self.repair_rate_mu}")
        if not 0.0 <= self.failure_rate_lambda <= 1.0:
            raise InvalidInputError(
                f"lambda must be in [0, 1], got {self.failure_rate_lambda}"
            )


def transition_rates(availability: float, mttr_hours: float) -> TransitionRates:
    """Repair/failure rates from availability and MTTR, clamped to [0, 1].

    availability = 0 is rejected because the failure rate diverges.
    """
    if not 0.0 < availability <= 1.0:
        raise InvalidInputError(f"availability must be in (0, 1], got {availability}")
    if mttr_hours <= 0.0:
        raise InvalidInputError(f"mttr_hours must be > 0, got {mttr_hours}")
    mu = 1.0 / mttr_hours
    lam = mu * (1.0 / availability - 1.0)
    return TransitionRates(
        repair_rate_mu=min(mu, 1.0),
        failure_rate_lambda=min(max(lam, 0.0), 1.0),
    )


def theoretical_unit_acf(rates: TransitionRates, lag_hours: int) -> float:
    """Exact autocorrelation of the stationary two-state chain at one lag.

    For per-hour transition probabilities lambda (up to down) and mu (down to
    up) the lag-k autocorrelation is (1 - lambda - mu)^k.  Serves as the
    closed-form oracle for empirical autocorrelation comparisons.
    """
    if lag_hours < 0:
        raise InvalidInputError(f"lag must be >= 0, got {lag_hours}")
    s = rates.failure_rate_lambda + rates.repair_rate_mu
    if s == 0.0:
        raise InvalidInputError("mu + lambda = 0: chain is constant, ACF undefined")
    return float((1.0 - s) ** lag_hours)


def derive_seed(seed: int, *branch: int) -> int:
    """Deterministic child seed for one named branch of a seed.

    Distinct branches, such as ``(seed, unit_index)`` for the units of a
    fleet run, give independent streams.
    """
    ss = np.random.SeedSequence((seed, *branch))
    return int(ss.generate_state(2, dtype=np.uint64)[0])


def simulate_unit(
    unit: GeneratorUnit,
    n_hours: int,
    seed: int,
    *,
    start: datetime = DEFAULT_SIM_START,
) -> HourlySeries:
    """Hourly outage series (0 or capacity_mw) of one unit.

    The first hour's state is drawn from the stationary distribution; each
    later hour applies the transition probabilities.  Output is fully
    determined by (unit, n_hours, seed).
    """
    if n_hours < 1:
        raise InvalidInputError(f"n_hours must be >= 1, got {n_hours}")
    rates = transition_rates(unit.availability, unit.mttr_hours)
    lam = rates.failure_rate_lambda
    mu = rates.repair_rate_mu
    rng = np.random.default_rng(seed)
    u = rng.random(n_hours)
    up = np.empty(n_hours, dtype=bool)
    state = u[0] < unit.availability
    up[0] = state
    for t in range(1, n_hours):
        if state:
            state = not (u[t] < lam)
        else:
            state = u[t] < mu
        up[t] = state
    values = np.where(up, 0.0, float(unit.capacity_mw))
    return HourlySeries(start=start, values_mw=values)


def simulate_fleet(
    fleet: Fleet,
    n_hours: int,
    seed: int,
    *,
    start: datetime = DEFAULT_SIM_START,
) -> HourlySeries:
    """Hour-wise sum of independent per-unit simulations.

    Unit i runs with seed ``derive_seed(seed, i)`` and the sum is
    accumulated in unit-index order, so the result is bit-identical across
    runs.  Outage values are integer MW, so the accumulation is exact.
    """
    if not fleet.units:
        raise InvalidInputError("fleet has no units")
    total = np.zeros(n_hours, dtype=np.float64)
    for i, unit in enumerate(fleet.units):
        sim = simulate_unit(unit, n_hours, derive_seed(seed, i), start=start)
        total += sim.values_mw
    return HourlySeries(start=start, values_mw=total)


def simulation_metadata(fleet: Fleet, n_hours: int, seed: int, start: datetime) -> dict:
    """JSON-ready sidecar describing a fleet simulation run."""
    from .timeseries import format_utc

    return {
        "rng": RNG_NAME,
        "seed": seed,
        "seed_derivation": "numpy.random.SeedSequence((seed, unit_index))",
        "zone": fleet.zone,
        "n_units": len(fleet.units),
        "total_capacity_mw": fleet.total_capacity_mw,
        "n_hours": n_hours,
        "start": format_utc(start),
        "transition_model": "two-state chain, per-hour probabilities mu=1/MTTR, lambda=mu*(1/A-1), clamped to [0,1]",
    }
