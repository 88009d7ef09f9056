"""Variational basis on the cylinder and its closed-form kernels.

Axial factors are Gaussians exp(-a x^2) in the two electron-hole
separations and in the electron-electron separation; angular factors are
drawn from {1, |sin(theta/2)|} per relative angle plus the correlation
function |sin((theta1-theta2)/2)|.  Lengths are in effective Bohr radii
and energies in effective Rydbergs throughout.
"""
from dataclasses import dataclass
from enum import Enum

import numpy as np


class AngularSet(Enum):
    CONSTANT = "constant"        # angularly flat wave function (1D model)
    EXCITON_PAIR = "exciton"     # {1, |sin(theta/2)|}
    FULL4 = "full4"              # {1, |s(t1)|, |s(t2)|, |s(t1-t2)|}

    @property
    def size(self):
        return {"constant": 1, "exciton": 2, "full4": 4}[self.value]


@dataclass(frozen=True)
class AxialBasis:
    alphas_i: tuple
    alphas_j: tuple
    alphas_k: tuple

    def __post_init__(self):
        for al in (self.alphas_i, self.alphas_j, self.alphas_k):
            if len(al) == 0:
                raise ValueError("empty exponent list")
            if any(a <= 0 for a in al):
                raise ValueError("exponents must be positive")


@dataclass(frozen=True)
class BasisSpec:
    axial: AxialBasis
    angular: AngularSet
    model: str  # "1d" | "2d"
    r0: float = 0.1

    def __post_init__(self):
        if self.model not in ("1d", "2d"):
            raise ValueError(f"unknown model {self.model!r}")
        if (self.model == "1d") != (self.angular is AngularSet.CONSTANT):
            raise ValueError("1d model requires (and is defined by) the "
                             "constant angular set")

    @property
    def size(self):
        ax = self.axial
        return len(ax.alphas_i) * len(ax.alphas_j) * len(ax.alphas_k) \
            * self.angular.size


def check_inputs(r=None, sigma=None):
    """Raise ValueError naming the argument unless the radius r is finite
    and positive and the mass ratio sigma is finite and >= 0 (either may
    be left out)."""
    if r is not None and not (np.isfinite(r) and r > 0):
        raise ValueError(f"radius r must be finite and positive, got {r}")
    if sigma is not None and not (np.isfinite(sigma) and sigma >= 0):
        raise ValueError(f"sigma must be finite and >= 0, got {sigma}")


def coulomb_potential(x, theta, r):
    """Cylinder Coulomb potential 2/sqrt(x^2 + 4 r^2 sin^2(theta/2))."""
    check_inputs(r)
    x = np.asarray(x, float)
    theta = np.asarray(theta, float)
    d2 = x * x + 4.0 * r * r * np.sin(theta / 2.0) ** 2
    if np.any(d2 == 0):
        raise ValueError("potential is singular at x=0, theta=0 (mod 2 pi)")
    return 2.0 / np.sqrt(d2)


def axial_kernels(ai, aip, aj, ajp, ak, akp):
    """Closed-form axial overlap/kinetic kernels for one exponent tuple.

    Returns (S, K1, K2, KM): the Gaussian overlap, the kinetic forms for
    the first and the second separation coordinate, and the mixed-
    derivative kinetic form.  With A = ai+aip, B = aj+ajp, C = ak+akp and
    D = AB+AC+BC:
        S  = pi / sqrt(D)
        K1 = 2 pi [ai aip (B+C) + (ai akp + aip ak) B + ak akp (A+B)] / D^1.5
        K2 = K1 with (ai, aip, B) replaced by (aj, ajp, A)
        KM = -2 pi [ak akp (A+B) + ai aj akp + aip ajp ak] / D^1.5
    Both kinetic forms share D: recomputing it with i and j swapped
    (BA+BC+AC) rounds differently in the last bit.  KM sums its two cross
    terms first, so that every kernel is unchanged bit for bit when each
    exponent trades places with its primed partner.
    """
    A, B, C = ai + aip, aj + ajp, ak + akp
    D = A * B + A * C + B * C
    D32 = D ** 1.5

    def kinetic(a, ap, other):
        return 2.0 * np.pi * (a * ap * (other + C) + (a * akp + ap * ak)
                              * other + ak * akp * (A + B)) / D32

    cross = ai * aj * akp + aip * ajp * ak
    KM = -2.0 * np.pi * (ak * akp * (A + B) + cross) / D32
    return np.pi / np.sqrt(D), kinetic(ai, aip, B), kinetic(aj, ajp, A), KM


def pair_kernels(al):
    """Closed-form overlap and kinetic kernels of the 1D Gaussians
    exp(-a x^2) of one separation: with A = a + a',
        S = sqrt(pi / A),  K = 2 a a' sqrt(pi) / A^1.5.
    """
    al = np.asarray(al, float)
    A = al[:, None] + al[None, :]
    return (np.sqrt(np.pi / A),
            2.0 * al[:, None] * al[None, :] * np.sqrt(np.pi) / A ** 1.5)


# Normalized two-particle angular tables (labels 1..4 as in AngularSet.FULL4;
# all entries carry the 1/(2 pi)^2 measure).
_P = np.pi
ANGULAR_OVERLAP = np.array([
    [1.0, 2 / _P, 2 / _P, 2 / _P],
    [2 / _P, 0.5, 4 / _P**2, 4 / _P**2],
    [2 / _P, 4 / _P**2, 0.5, 4 / _P**2],
    [2 / _P, 4 / _P**2, 4 / _P**2, 0.5],
])
# Kinetic forms from the first-derivative quadratic form of each basis
# function: the single-angle factors cost 1/8 per acting derivative, and
# the relative-angle factor is hit by both one-particle derivatives.
ANGULAR_KINETIC = np.diag([0.0, 0.125, 0.125, 0.25])
ANGULAR_KINETIC_MIXED = np.diag([0.0, 0.0, 0.0, -0.125])


def angular_kernels(l, lp):
    """(overlap, kinetic, mixed-kinetic) angular kernels; labels 1-based."""
    if not (1 <= l <= 4 and 1 <= lp <= 4):
        raise ValueError("angular labels must be in 1..4")
    i, j = l - 1, lp - 1
    return (ANGULAR_OVERLAP[i, j], ANGULAR_KINETIC[i, j],
            ANGULAR_KINETIC_MIXED[i, j])


# --- presets ----------------------------------------------------------------
_EXCITON_ALPHAS = (0.143, 1.16, 4.98, 29.0, 250.0)
_TRION1D_ALPHAS = (0.0651, 0.145, 1.68, 9.65, 48.7)
_TRION2D_AIJ = (0.165, 1.68, 9.65, 48.7)
_TRION2D_AK = (0.0000171, 1.68, 9.98, 48.7)
_HF_ALPHAS = (0.0648, 0.195, 1.04, 5.28, 27.5, 99.3, 250.0)

_PRESET_GROUPS = {
    "exciton1d": (_EXCITON_ALPHAS,), "exciton2d": (_EXCITON_ALPHAS,),
    "trion1d": (_TRION1D_ALPHAS,), "trion2d": (_TRION2D_AIJ, _TRION2D_AK),
    "hf1d": (_HF_ALPHAS,), "hf2d": (_HF_ALPHAS,),
}


def tied_basis(problem, model, groups):
    """The basis of `problem` ("exciton", "trion" or "hf") in `model` from
    its tied exponent groups: one list for the pair coordinate of the
    exciton and the mean field and for all three trion coordinates in 1D;
    in 2D the trion's electron-hole pair shares one list and the
    electron-electron coordinate has the other."""
    if problem in ("exciton", "hf"):
        (al,) = groups
        ang = AngularSet.CONSTANT if model == "1d" else AngularSet.EXCITON_PAIR
        return BasisSpec(AxialBasis(al, (1.0,), (1.0,)), ang, model)
    if problem == "trion":
        if model == "1d":
            (al,) = groups
            return BasisSpec(AxialBasis(al, al, al), AngularSet.CONSTANT, "1d")
        aij, ak = groups
        return BasisSpec(AxialBasis(aij, aij, ak), AngularSet.FULL4, "2d")
    raise ValueError(f"unknown problem {problem!r}")


def preset_groups(kind):
    """Optimized tied exponent groups of preset `kind`, e.g. "trion2d"
    (reference radius r0 = 0.1)."""
    try:
        return _PRESET_GROUPS[kind]
    except KeyError:
        raise ValueError(f"unknown preset {kind!r}") from None


def preset_basis(kind):
    """Optimized exponent sets (reference radius r0 = 0.1)."""
    return tied_basis(kind[:-2], kind[-2:], preset_groups(kind))


def scale_exponents(basis, r):
    """Rescale every axial exponent by (r0/r)^2 for use at radius r."""
    check_inputs(r)
    f = (basis.r0 / r) ** 2
    ax = basis.axial
    scaled = AxialBasis(tuple(a * f for a in ax.alphas_i),
                        tuple(a * f for a in ax.alphas_j),
                        tuple(a * f for a in ax.alphas_k))
    return BasisSpec(scaled, basis.angular, basis.model, r0=basis.r0)
