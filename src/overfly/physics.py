"""Rotor-craft energy model with altitude-dependent air density.

Energy for one flight segment splits into a translation term and a climb
term. Translation costs

    W^(3/2) * sqrt(g^3 / (2 * rho * zeta * n)) * dist3d / v

where ``W`` is the take-off mass (kg), ``g`` gravity, ``rho`` the
air density averaged over the segment's endpoint altitudes, ``zeta`` one
rotor's blade disc area, ``n`` the rotor count, ``dist3d`` the straight-line
3D distance and ``v`` the cruise speed. Climbing adds the potential energy
``W * g * max(climb, 0)``; descending adds nothing back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Empirical troposphere fit: relative density = (1 - LAPSE * H) ^ EXPONENT.
DENSITY_LAPSE_PER_M = 2.2558e-5
DENSITY_EXPONENT = 4.2577
MAX_MODEL_ALTITUDE_M = 1.0 / DENSITY_LAPSE_PER_M


@dataclass(frozen=True)
class DroneParams:
    """Physical parameters of the drone and atmosphere.

    Attributes:
        weight_kg: Take-off mass in kilograms.
        gravity: Gravitational acceleration in m/s^2.
        blade_disc_area_m2: Disc area swept by one rotor's blades.
        rotor_count: Number of rotors.
        speed_mps: Constant cruise speed in m/s.
        sea_level_density_kgm3: Air density at altitude zero.
    """

    weight_kg: float = 1.5
    gravity: float = 9.81
    blade_disc_area_m2: float = 0.2
    rotor_count: int = 4
    speed_mps: float = 10.0
    sea_level_density_kgm3: float = 1.225

    def __post_init__(self) -> None:
        for name in (
            "weight_kg",
            "gravity",
            "blade_disc_area_m2",
            "rotor_count",
            "speed_mps",
            "sea_level_density_kgm3",
        ):
            if not (0 < getattr(self, name) < math.inf):
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")

    @property
    def energy_coefficient(self) -> float:
        """W^(3/2) * sqrt(g^3 / (2 * zeta * n)).

        Divide by sqrt(air density) and multiply by 3D distance over speed to
        obtain the translation energy of a segment.
        """
        w = self.weight_kg
        return w * math.sqrt(w) * math.sqrt(
            self.gravity**3 / (2.0 * self.blade_disc_area_m2 * self.rotor_count)
        )


def air_density(altitude_m: float, params: DroneParams) -> float:
    """Air density in kg/m^3 at an altitude above sea level.

    Args:
        altitude_m: Altitude in metres; must lie in
            ``[0, MAX_MODEL_ALTITUDE_M)`` where the density fit is valid.
        params: Supplies the sea-level density scale.

    Returns:
        ``sea_level_density * (1 - 2.2558e-5 * H) ** 4.2577``.
    """
    if not (0.0 <= altitude_m < MAX_MODEL_ALTITUDE_M):
        raise ValueError(
            f"altitude {altitude_m} m outside the density model's domain "
            f"[0, {MAX_MODEL_ALTITUDE_M:.0f})"
        )
    return params.sea_level_density_kgm3 * (
        (1.0 - DENSITY_LAPSE_PER_M * altitude_m) ** DENSITY_EXPONENT
    )


def average_density(altitude_a_m: float, altitude_b_m: float, params: DroneParams) -> float:
    """Mean of the endpoint air densities of a segment."""
    return 0.5 * (air_density(altitude_a_m, params) + air_density(altitude_b_m, params))


def traversal_energy(
    horizontal_m: float,
    climb_m: float,
    density_kgm3: float,
    params: DroneParams,
) -> float:
    """Translation energy in joules: :func:`segment_energy` without the climb term."""
    if horizontal_m < 0.0:
        raise ValueError(f"horizontal distance must be non-negative, got {horizontal_m}")
    if not (density_kgm3 > 0.0):
        raise ValueError(f"air density must be positive, got {density_kgm3}")
    w = params.weight_kg
    dist3d = math.sqrt(horizontal_m * horizontal_m + climb_m * climb_m)
    return (
        w
        * math.sqrt(w)
        * math.sqrt(
            params.gravity**3
            / (2.0 * density_kgm3 * params.blade_disc_area_m2 * params.rotor_count)
        )
        * dist3d
        / params.speed_mps
    )


def climb_energy(climb_m: float, params: DroneParams) -> float:
    """Potential-energy cost of a signed altitude change (zero when descending)."""
    return params.weight_kg * params.gravity * climb_m if climb_m > 0.0 else 0.0


def segment_energy(
    horizontal_m: float,
    climb_m: float,
    density_kgm3: float,
    params: DroneParams,
) -> float:
    """Energy in joules to fly one segment.

    Args:
        horizontal_m: Ground distance of the move (non-negative).
        climb_m: Signed altitude change; positive climbs, negative descends.
        density_kgm3: Air density along the segment (use
            :func:`average_density` of the endpoint altitudes).
        params: Drone parameters.

    Returns:
        :func:`traversal_energy` plus, for climbs only, the potential energy
        ``W * g * climb`` (:func:`climb_energy`).
    """
    return traversal_energy(horizontal_m, climb_m, density_kgm3, params) + climb_energy(
        climb_m, params
    )
