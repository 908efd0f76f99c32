"""Time-sequential two-state Markov simulation of unit availability.

A unit is either in service or on outage.  With availability A and mean time
to repair MTTR (hours), the hourly repair and failure rates are

    mu = 1 / MTTR        lambda = mu * (1 / A - 1)

and the discrete-time chain uses these rates directly as per-hour transition
probabilities.  They are probabilities only when MTTR >= 1 h and
A >= 1/(1 + MTTR); ``GeneratorUnit`` and ``FuelParams`` reject any other
pair, so the chain runs on the rates as computed.  The stationary
distribution of the chain is "in service with probability A", which is
also used as the initial state so no burn-in is required.

Each hour consumes one uniform u.  An in-service unit fails when
u < lambda and an outaged unit is repaired when u < mu, so with
lo = min(lambda, mu) and hi = max(lambda, mu) every hour after the first
does one of three things whatever the state: u < lo toggles it,
lo <= u < hi sets it (to "in service" when lambda < mu), and any other u
keeps it.  The first hour is a set, to u < A.  The state is therefore the
value of the last set XOR the parity of the toggles since, which
``simulate_unit`` evaluates with array prefix operations instead of an
hour-by-hour loop.  The comparisons are the loop's own ``<`` tests on the
same floats and the rest is boolean algebra, so the series is bit-identical
to the loop's.

Randomness comes from numpy's default generator (PCG64).  Fleet simulations
derive one child seed per unit from ``(seed, unit_index)`` so per-unit
streams are independent and reproducible.  The seed follows the unit's
position, so reordering a fleet changes the simulated bytes; the fleet
series is invariant to unit order only in distribution.
"""

from __future__ import annotations

from datetime import datetime, timezone
from typing import NamedTuple

import numpy as np

from .errors import InvalidInputError
from .timeseries import HourlySeries, format_utc
from .types import Fleet, GeneratorUnit, _check_reliability

RNG_NAME = "numpy.random.default_rng (PCG64)"

#: Simulated series start at this hour unless the caller provides one; the
#: chain is stationary so the choice carries no statistical meaning.
DEFAULT_SIM_START = datetime(2000, 1, 1, tzinfo=timezone.utc)


class TransitionRates(NamedTuple):
    """Per-hour repair and failure transition probabilities."""

    repair_rate_mu: float
    failure_rate_lambda: float


def transition_rates(availability: float, mttr_hours: float) -> TransitionRates:
    """Repair/failure rates from availability and MTTR.

    A pair outside the chain's domain (see the module docstring) raises
    ``InvalidInputError``; any other gives 0 < mu <= 1 and 0 <= lambda <= 1.
    """
    _check_reliability(availability, mttr_hours)
    mu = 1.0 / mttr_hours
    lam = mu * (1.0 / availability - 1.0)
    return TransitionRates(repair_rate_mu=mu, failure_rate_lambda=lam)


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
    later hour applies the transition probabilities.  One
    ``rng.random(n_hours)`` draw drives all hours, and the chain is
    evaluated as toggle/set/keep steps over those uniforms (see the module
    docstring), so the output is fully determined by (unit, n_hours, seed)
    and equals an hour-by-hour simulation bit for bit.
    """
    if n_hours < 1:
        raise InvalidInputError(f"n_hours must be >= 1, got {n_hours}")
    rates = transition_rates(unit.availability, unit.mttr_hours)
    u = np.random.default_rng(seed).random(n_hours)
    up = _in_service(u, rates, unit.availability)
    values = np.where(up, 0.0, float(unit.capacity_mw))
    return HourlySeries(start=start, values_mw=values)


def _in_service(u: np.ndarray, rates: TransitionRates, availability: float) -> np.ndarray:
    """In-service flag of each hour of the chain driven by uniforms ``u``.

    ``parity`` is the XOR prefix of the toggles.  At each set hour s the
    state is the set value v(s), so the state at any hour t is
    ``parity[t] ^ offset[s]`` with ``offset[s] = v(s) ^ parity[s]`` and s
    the last set hour up to t.  ``offset`` is carried forward between sets
    as an XOR prefix of its changes, which are non-zero only at set hours.
    """
    lam = rates.failure_rate_lambda
    mu = rates.repair_rate_mu
    toggles = u < min(lam, mu)
    toggles[0] = False
    sets = u < max(lam, mu)
    sets ^= toggles  # now lo <= u < hi
    sets[0] = True
    parity = np.logical_xor.accumulate(toggles)
    set_hours = np.flatnonzero(sets)
    offset = parity[set_hours]
    offset ^= lam < mu
    offset[0] = u[0] < availability
    changes = np.zeros_like(sets)
    changes[set_hours] = offset
    changes[set_hours[1:]] ^= offset[:-1]
    up = np.logical_xor.accumulate(changes)
    up ^= parity
    return up


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
    return {
        "rng": RNG_NAME,
        "seed": seed,
        "seed_derivation": "numpy.random.SeedSequence((seed, unit_index))",
        "zone": fleet.zone,
        "n_units": len(fleet.units),
        "total_capacity_mw": fleet.total_capacity_mw,
        "n_hours": n_hours,
        "start": format_utc(start),
        "transition_model": "two-state chain, per-hour probabilities mu=1/MTTR, lambda=mu*(1/A-1)",
    }
