"""Air density fit and per-segment energy model."""

import math

import numpy as np
import pytest

from overfly import DroneParams, air_density, average_density, climb_energy, segment_energy
from overfly.physics import DENSITY_EXPONENT, DENSITY_LAPSE_PER_M, MAX_MODEL_ALTITUDE_M

# Hand-computed oracle with round numbers:
#   weight 1 kg, gravity 10, disc area 1, rotors 2, speed 5.
#   coefficient = 1 * sqrt(1000 / (2*1*2)) = sqrt(250)
ORACLE = DroneParams(
    weight_kg=1.0,
    gravity=10.0,
    blade_disc_area_m2=1.0,
    rotor_count=2,
    speed_mps=5.0,
    sea_level_density_kgm3=1.225,
)


class TestDroneParams:
    def test_defaults(self):
        p = DroneParams()
        assert p.weight_kg == 1.5
        assert p.gravity == 9.81
        assert p.speed_mps == 10.0
        assert p.sea_level_density_kgm3 == 1.225

    @pytest.mark.parametrize(
        "field", ["weight_kg", "gravity", "blade_disc_area_m2", "rotor_count",
                  "speed_mps", "sea_level_density_kgm3"],
    )
    def test_positive_required(self, field):
        with pytest.raises(ValueError):
            DroneParams(**{field: 0})

    def test_infinite_value_rejected(self):
        with pytest.raises(ValueError, match="speed_mps"):
            DroneParams(speed_mps=math.inf)

    def test_energy_coefficient_oracle(self):
        assert ORACLE.energy_coefficient == pytest.approx(math.sqrt(250.0), rel=1e-15)

    def test_energy_coefficient_default(self):
        p = DroneParams()
        expected = 1.5 * math.sqrt(1.5) * math.sqrt(9.81**3 / (2 * 0.2 * 4))
        assert p.energy_coefficient == pytest.approx(expected, rel=1e-15)


class TestAirDensity:
    def test_sea_level_is_exact(self):
        p = DroneParams()
        assert air_density(0.0, p) == p.sea_level_density_kgm3

    def test_known_altitudes(self):
        p = DroneParams()
        # factor = (1 - 2.2558e-5 * H) ** 4.2577
        assert air_density(100.0, p) == pytest.approx(1.225 * 0.990430, rel=1e-5)
        assert air_density(1000.0, p) == pytest.approx(1.225 * 0.907420, rel=1e-5)

    def test_strictly_decreasing(self):
        p = DroneParams()
        rng = np.random.default_rng(0)
        pairs = rng.uniform(0.0, 10000.0, size=(10_000, 2))
        for a, b in pairs:
            lo, hi = sorted((a, b))
            if lo == hi:
                continue
            assert air_density(hi, p) < air_density(lo, p)

    def test_domain_enforced(self):
        p = DroneParams()
        with pytest.raises(ValueError):
            air_density(-1.0, p)
        with pytest.raises(ValueError):
            air_density(MAX_MODEL_ALTITUDE_M, p)

    def test_scales_with_sea_level_density(self):
        doubled = DroneParams(sea_level_density_kgm3=2.45)
        assert air_density(500.0, doubled) == pytest.approx(
            2.0 * air_density(500.0, DroneParams()), rel=1e-15
        )

    def test_average_density_is_endpoint_mean(self):
        p = DroneParams()
        expected = 0.5 * (air_density(10.0, p) + air_density(30.0, p))
        assert average_density(10.0, 30.0, p) == expected
        assert average_density(30.0, 10.0, p) == expected


class TestSegmentEnergy:
    def test_oracle_climb(self):
        # horizontal 3, climb 4, density 2:
        #   translation = sqrt(250/2) * 5 / 5 = sqrt(125)
        #   climb       = 1 * 10 * 4 = 40
        assert segment_energy(3.0, 4.0, 2.0, ORACLE) == pytest.approx(
            math.sqrt(125.0) + 40.0, rel=1e-15
        )

    def test_oracle_descent(self):
        assert segment_energy(3.0, -4.0, 2.0, ORACLE) == pytest.approx(
            math.sqrt(125.0), rel=1e-15
        )

    def test_climb_descent_asymmetry_is_potential_energy(self):
        p = DroneParams()
        rng = np.random.default_rng(1)
        for _ in range(200):
            d = rng.uniform(0.0, 50.0)
            dh = rng.uniform(0.1, 30.0)
            rho = rng.uniform(0.9, 1.3)
            up = segment_energy(d, dh, rho, p)
            down = segment_energy(d, -dh, rho, p)
            assert up - down == pytest.approx(p.weight_kg * p.gravity * dh, abs=1e-12 * up)

    def test_flat_segment_formula(self):
        p = DroneParams()
        rho = air_density(20.0, p)
        d = 10.0
        expected = p.energy_coefficient / math.sqrt(rho) * d / p.speed_mps
        assert segment_energy(d, 0.0, rho, p) == pytest.approx(expected, abs=1e-12 * expected)

    def test_vertical_only(self):
        e = segment_energy(0.0, 4.0, 2.0, ORACLE)
        assert e == pytest.approx(math.sqrt(250.0 / 2.0) * 4.0 / 5.0 + 40.0, rel=1e-15)

    def test_thinner_air_costs_more(self):
        p = DroneParams()
        assert segment_energy(10.0, 0.0, 1.0, p) > segment_energy(10.0, 0.0, 1.2, p)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            segment_energy(-1.0, 0.0, 1.0, ORACLE)
        with pytest.raises(ValueError):
            segment_energy(1.0, 0.0, 0.0, ORACLE)

    def test_climb_energy_helper(self):
        p = DroneParams()
        assert climb_energy(5.0, p) == pytest.approx(p.weight_kg * p.gravity * 5.0, rel=1e-15)
        assert climb_energy(-5.0, p) == 0.0
        assert climb_energy(0.0, p) == 0.0
