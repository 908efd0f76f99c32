"""Core domain types: fuels, generator units, fleets and per-fuel parameters.

Dispatchable fuels carry default availability / mean-time-to-repair values
shipped as a versioned built-in table (``FUEL_PARAMS``).  Renewable
technologies are modelled separately because their unavailability reports are
excluded from fleet aggregation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

from .errors import InvalidInputError


class Fuel(Enum):
    """Dispatchable fuel classes with built-in reliability parameters."""

    BIOMASS = "Biomass"
    COAL = "Coal"
    CCGT = "CCGT"
    OIL = "Oil"
    HYDRO = "Hydro"
    NUCLEAR = "Nuclear"
    CHP = "CHP"
    WASTE = "Waste"


class Renewable(Enum):
    """Renewable technology classes whose outage reports are dropped."""

    SOLAR = "Solar"
    WIND_ONSHORE = "WindOnshore"
    WIND_OFFSHORE = "WindOffshore"
    HYDRO_RUN_OF_RIVER = "HydroRunOfRiver"
    OTHER_RENEWABLE = "OtherRenewable"


def _check_reliability(availability: float, mttr_hours: float) -> None:
    """Reject an (availability, MTTR) pair the hourly two-state chain cannot hold.

    Availability must be in (0, 1] and the MTTR finite and > 0.  The chain
    uses the rates mu = 1/MTTR and lambda = mu * (1/A - 1) as per-hour
    probabilities, so both must be at most 1: MTTR >= 1 h and
    A >= 1/(1 + MTTR).  lambda is computed with the float expression
    ``markov.transition_rates`` uses, so no accepted pair gives lambda > 1.
    The comparisons are false for NaN, so NaN is rejected too.
    """
    if not 0.0 < availability <= 1.0:
        raise InvalidInputError(f"availability must be in (0, 1], got {availability}")
    if not 0.0 < mttr_hours < math.inf:
        raise InvalidInputError(f"mttr_hours must be finite and > 0, got {mttr_hours}")
    if mttr_hours < 1.0 or (1.0 / mttr_hours) * (1.0 / availability - 1.0) > 1.0:
        raise InvalidInputError(
            "mttr_hours must be >= 1 and availability >= 1/(1 + mttr_hours), so that"
            f" both hourly rates are at most 1, got availability {availability}"
            f" and mttr_hours {mttr_hours}"
        )


@dataclass(frozen=True)
class FuelParams:
    """Long-run availability and mean time to repair for one fuel class."""

    availability: float
    mttr_hours: float

    def __post_init__(self) -> None:
        _check_reliability(self.availability, self.mttr_hours)


# Built-in per-fuel parameter table.  Override via a JSON parameters file
# (see io.load_fuel_params); fuels absent from the active table are rejected
# rather than silently defaulted.
FUEL_PARAMS_VERSION = "builtin-1"

FUEL_PARAMS: dict[Fuel, FuelParams] = {
    Fuel.BIOMASS: FuelParams(availability=0.86, mttr_hours=40.0),
    Fuel.COAL: FuelParams(availability=0.86, mttr_hours=40.0),
    Fuel.CCGT: FuelParams(availability=0.90, mttr_hours=50.0),
    Fuel.OIL: FuelParams(availability=0.91, mttr_hours=50.0),
    Fuel.HYDRO: FuelParams(availability=0.90, mttr_hours=20.0),
    Fuel.NUCLEAR: FuelParams(availability=0.81, mttr_hours=150.0),
    Fuel.CHP: FuelParams(availability=0.90, mttr_hours=50.0),
    Fuel.WASTE: FuelParams(availability=0.86, mttr_hours=40.0),
}


@dataclass(frozen=True)
class GeneratorUnit:
    """A dispatchable unit on the 1 MW capacity grid.

    ``capacity_mw`` is an integer number of megawatts so that fleet outage
    distributions can be convolved exactly on a 1 MW grid.
    """

    id: str
    fuel: Fuel
    capacity_mw: int
    availability: float
    mttr_hours: float

    def __post_init__(self) -> None:
        if not isinstance(self.capacity_mw, int) or self.capacity_mw < 1:
            raise InvalidInputError(
                f"capacity_mw must be a positive integer, got {self.capacity_mw!r}"
            )
        _check_reliability(self.availability, self.mttr_hours)


@dataclass(frozen=True)
class FuelSizePool:
    """Empirical multiset of unit sizes for one fuel.

    Duplicates are kept on purpose: drawing from the pool is
    frequency-weighted, so a size that occurs twice is twice as likely.
    """

    fuel: Fuel
    sizes_mw: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.sizes_mw:
            raise InvalidInputError(f"size pool for {self.fuel.value} is empty")
        if any(s < 1 for s in self.sizes_mw):
            raise InvalidInputError(
                f"size pool for {self.fuel.value} contains non-positive sizes"
            )


@dataclass(frozen=True)
class Fleet:
    """A set of generator units belonging to one balancing zone."""

    zone: str
    units: tuple[GeneratorUnit, ...] = field(default_factory=tuple)

    @property
    def total_capacity_mw(self) -> int:
        return sum(u.capacity_mw for u in self.units)
