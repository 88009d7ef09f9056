"""Effective Rydberg/Bohr unit conversions."""
import pytest

from trionlab import EffectiveUnits, Environment, dimensionless_radius, \
    effective_units, to_physical_energy


def test_effective_units_scaling():
    u = effective_units(0.5, Environment(epsilon=2.0))
    assert u.rydberg == pytest.approx(13.6 * 0.5 / 4.0)
    assert u.bohr == pytest.approx(0.529 * 2.0 / 0.5)


def test_effective_units_vacuum_unit_mass():
    u = effective_units(1.0, Environment(epsilon=1.0))
    assert u.rydberg == pytest.approx(13.6)
    assert u.bohr == pytest.approx(0.529)


def test_dimensionless_radius_roundtrip():
    u = effective_units(0.0417, Environment(epsilon=3.5))
    r = dimensionless_radius(3.9, u)
    assert r * u.bohr == pytest.approx(3.9)
    with pytest.raises(ValueError):
        dimensionless_radius(0.0, u)


def test_to_physical_energy():
    u = effective_units(0.0417, Environment(epsilon=3.5))
    assert to_physical_energy(2.0, u) == pytest.approx(2.0 * u.rydberg)
    assert to_physical_energy(-1.0, u) == pytest.approx(-u.rydberg)


def test_validation():
    with pytest.raises(ValueError):
        Environment(epsilon=0.5)
    with pytest.raises(ValueError):
        effective_units(-0.1, Environment())


@pytest.mark.parametrize("epsilon", [float("nan"), float("inf"),
                                     -float("inf"), 0.5])
def test_environment_rejects_bad_epsilon(epsilon):
    with pytest.raises(ValueError, match="epsilon must be finite"):
        Environment(epsilon=epsilon)


@pytest.mark.parametrize("mu", [float("nan"), float("inf"), 0.0, -0.1])
def test_effective_units_reject_bad_mass(mu):
    with pytest.raises(ValueError, match="reduced mass must be finite"):
        effective_units(mu, Environment())


@pytest.mark.parametrize("rydberg, bohr", [
    (float("nan"), 1.0), (1.0, float("nan")), (float("inf"), 1.0),
    (1.0, float("inf")), (0.0, 1.0), (1.0, -1.0)])
def test_unit_scales_must_be_finite_and_positive(rydberg, bohr):
    with pytest.raises(ValueError, match="unit scales must be finite"):
        EffectiveUnits(rydberg, bohr)
