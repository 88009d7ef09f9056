"""Effective exciton units: Rydberg energy and Bohr length scales."""
import math
from dataclasses import dataclass

RYDBERG_EV = 13.6
BOHR_ANGSTROM = 0.529


@dataclass(frozen=True)
class Environment:
    epsilon: float = 3.5

    def __post_init__(self):
        if not 1 <= self.epsilon < math.inf:
            raise ValueError("dielectric constant epsilon must be finite "
                             f"and >= 1, got {self.epsilon}")


@dataclass(frozen=True)
class EffectiveUnits:
    rydberg: float   # eV
    bohr: float      # Angstrom

    def __post_init__(self):
        if not (0 < self.rydberg < math.inf and 0 < self.bohr < math.inf):
            raise ValueError("unit scales must be finite and positive")


def effective_units(mu, env):
    """Ry* = 13.6 mu / eps^2 eV and a_B* = 0.529 eps / mu Angstrom."""
    if not 0 < mu < math.inf:
        raise ValueError(
            f"reduced mass must be finite and positive, got {mu}")
    eps = env.epsilon
    return EffectiveUnits(RYDBERG_EV * mu / eps ** 2, BOHR_ANGSTROM * eps / mu)


def dimensionless_radius(r_angstrom, u):
    """Radius in units of the effective Bohr radius."""
    if r_angstrom <= 0:
        raise ValueError("radius must be positive")
    return r_angstrom / u.bohr


def to_physical_energy(e_rydberg, u):
    """Convert an energy in Ry* to eV."""
    return e_rydberg * u.rydberg
