"""Generalized eigensolver and the exciton/trion energy front ends.

Ground-state energies are reported as raw (negative) eigenvalues in Ry*;
the public `exciton_energy` returns the positive binding energy, and
binding energies are differences of the raw ground energies.

Calls without an explicit basis use the preset bases through
`preset_family`, which assembles each preset once per process and
quadrature; an explicit basis is scaled, assembled and solved at r.
"""
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .assembly import (assemble_exciton, assemble_kinetic, assemble_overlap,
                       assemble_potential, assemble_trion, mixing_weight,
                       repulsion_tensor)
from .basis import BasisSpec, check_inputs, preset_basis, scale_exponents
from .quadrature import DEFAULT_QUAD

DROP_TOL = 1e-10
# Below R_MIN the preset energies stop falling as r shrinks (trion2d below
# r = 0.013, trion1d 0.0094, exciton 0.0074, hf 0.007): they are wrong.
R_MIN = 0.02


@dataclass(frozen=True)
class Spectrum:
    energies: np.ndarray       # ascending, Ry*
    coefficients: np.ndarray   # columns c with c^T S c = 1
    retained_dim: int


@dataclass(frozen=True)
class TrionResult:
    E_T: float       # raw ground energy, Ry*
    E_X: float       # raw exciton ground energy, Ry*
    E_B: float       # E_X - E_T > 0 for a stable trion
    model: str
    sigma: float
    charge: str
    r: float


def _check_symmetric(*mats):
    if not all(np.allclose(M, M.T) for M in mats):
        raise ValueError("H and S must be symmetric")


def _orthogonalizer(S):
    """Canonical orthogonalization X of S (X^T S X = 1).

    Overlap modes with eigenvalue below DROP_TOL * max are discarded to
    tame near-linear-dependence.
    """
    evals, evecs = np.linalg.eigh(S)
    keep = evals > DROP_TOL * evals.max()
    if not np.any(keep):
        raise ValueError("overlap matrix has no retained modes")
    return evecs[:, keep] / np.sqrt(evals[keep])


def solve_generalized(H, S):
    """Solve H c = E S c by canonical orthogonalization.

    Eigenvectors are back-transformed and S-normalized.
    """
    H = np.asarray(H, float)
    S = np.asarray(S, float)
    if H.shape != S.shape or H.shape[0] != H.shape[1]:
        raise ValueError("H and S must be square matrices of equal shape")
    _check_symmetric(H, S)
    X = _orthogonalizer(S)
    e, c = np.linalg.eigh(X.T @ H @ X)
    return Spectrum(e, X @ c, X.shape[1])


# --- preset families --------------------------------------------------------
@dataclass(frozen=True, eq=False)
class PresetFamily:
    """One preset basis assembled at its reference radius r0.

    At radius r the preset exponents are scaled by (r0/r)^2, which
    leaves every Coulomb argument q = 4 r^2 D/E unchanged.  With
    x = r/r0 each matrix is its r0 value times a power of x:
        trion:       S = x^2 S0,  K = Ka + w Km,  U = x U0
        exciton/hf:  S = x S0,    K = K0 / x,     U = U0,  V4 = x V4_0
    (w = `mixing_weight(sigma, charge)`).  So one eigenproblem in the
    retained modes X0 of S0 solves each (r, sigma, charge) point, and the
    coefficients in the scaled basis are X0 v / x (trion) or
    X0 v / sqrt(x) (exciton).
    """
    basis: BasisSpec        # the preset at r0
    S: np.ndarray           # S0
    parts: tuple            # (Ka, Km, U0) for a trion, (K0, U0) otherwise
    X: np.ndarray           # X0, from `_orthogonalizer(S0)`
    reduced: tuple          # X0^T M X0 for each M in parts
    V4: np.ndarray = None   # repulsion tensor at r0 (hf presets only)

    def hf_matrices(self, x):
        """(h, S, V4) of the single-orbital mean field at x = r/r0."""
        K0, U0 = self.parts
        return K0 / x + U0, x * self.S, x * self.V4


@lru_cache(maxsize=None)
def preset_family(kind, quad):
    """The PresetFamily of a preset, assembled on first use.

    One entry per (kind, quad) lives for the whole process: six preset
    kinds times the quadratures in use, at most about 4 MB each (2D trion).
    """
    basis = preset_basis(kind)
    r0 = basis.r0
    V4 = None
    if kind.startswith("trion"):
        S = assemble_overlap(basis)
        Ka = assemble_kinetic(basis, 0.0, r0)
        parts = (Ka, assemble_kinetic(basis, 1.0, r0) - Ka,
                 assemble_potential(basis, r0, quad))
    else:
        t = assemble_exciton(basis, r0, quad)
        S, parts = t.S, (t.K, t.U)
        if kind.startswith("hf"):
            V4 = repulsion_tensor(basis.axial.alphas_i, r0,
                                  basis.angular.size, quad)
    _check_symmetric(S, *parts)
    X = _orthogonalizer(S)
    family = PresetFamily(basis, S, parts, X,
                          tuple(X.T @ M @ X for M in parts), V4)
    for M in (S, X, V4, *parts, *family.reduced):
        if M is not None:
            M.flags.writeable = False   # shared by every later caller
    return family


def preset_at(kind, r, quad=DEFAULT_QUAD):
    """(family, x = r/r0) of a preset; r is checked before any assembly."""
    check_inputs(r)
    if r < R_MIN:
        raise ValueError(f"radius r={r} is below R_MIN={R_MIN}, the "
                         "smallest radius the preset bases resolve")
    family = preset_family(kind, quad)
    return family, r / family.basis.r0


def check_bound(e, r):
    """A preset ground energy at or above 0 means r lies so far outside
    the presets' range that the basis holds no bound state."""
    if not e < 0:
        raise ValueError(f"preset basis has no bound state at r={r} "
                         f"(ground energy {e:.4g} Ry*)")
    return e


def _lowest(h):
    """Lowest eigenvalue of a symmetric matrix."""
    from scipy.linalg import eigh   # off the import path of the package
    return float(eigh(h, eigvals_only=True, subset_by_index=(0, 0))[0])


def _preset_spectrum(family, h, x, p, r):
    """Spectrum and scaled basis at x = r/r0 from h = X0^T H(r) X0.

    With S(r) = x^p S0, H c = E S c becomes h v = x^p E v for
    c = X0 v / x^(p/2).
    """
    e, v = np.linalg.eigh(h)
    e = e / x ** p
    check_bound(e[0], r)
    return (Spectrum(e, family.X @ v / x ** (p / 2), len(e)),
            scale_exponents(family.basis, r))


def _preset_trion(r, sigma, charge, model, quad):
    """(family, x, reduced Hamiltonian) of the preset trion at one point."""
    family, x = preset_at("trion" + model, r, quad)
    ka, km, u = family.reduced
    return family, x, ka + mixing_weight(sigma, charge) * km + x * u


# --- front ends -------------------------------------------------------------
def exciton_spectrum(r, model="2d", basis=None, quad=DEFAULT_QUAD):
    if basis is None:
        family, x = preset_at("exciton" + model, r, quad)
        k, u = family.reduced
        return _preset_spectrum(family, k / x + u, x, 1, r)
    basis = scale_exponents(basis, r)
    t = assemble_exciton(basis, r, quad)
    return solve_generalized(t.H, t.S), basis


def exciton_ground(r, model="2d", basis=None, quad=DEFAULT_QUAD):
    """Raw (negative) exciton ground energy in Ry*."""
    spec, _ = exciton_spectrum(r, model, basis, quad)
    return float(spec.energies[0])


def exciton_energy(r, model="2d", basis=None, quad=DEFAULT_QUAD):
    """Exciton binding energy (positive magnitude of the ground state)."""
    return -exciton_ground(r, model, basis, quad)


def trion_spectrum(r, sigma, charge="-", model="2d", basis=None,
                   quad=DEFAULT_QUAD):
    if basis is None:
        family, x, h = _preset_trion(r, sigma, charge, model, quad)
        return _preset_spectrum(family, h, x, 2, r)
    basis = scale_exponents(basis, r)
    t = assemble_trion(basis, r, sigma, charge, quad)
    return solve_generalized(t.H, t.S), basis


def trion_energy(r, sigma, charge="-", model="2d", basis=None,
                 quad=DEFAULT_QUAD):
    """Raw (negative) trion ground energy in Ry*."""
    if basis is None:
        _, x, h = _preset_trion(r, sigma, charge, model, quad)
        return check_bound(_lowest(h) / x ** 2, r)
    spec, _ = trion_spectrum(r, sigma, charge, model, basis, quad)
    return float(spec.energies[0])


def binding_energy(r, sigma, charge="-", model="2d", trion_basis=None,
                   exciton_basis=None, quad=DEFAULT_QUAD):
    """Trion binding energy E_B = E_X - E_T, both within the same model."""
    e_t = trion_energy(r, sigma, charge, model, trion_basis, quad)
    e_x = exciton_ground(r, model, exciton_basis, quad)
    return TrionResult(e_t, e_x, e_x - e_t, model, sigma, charge, r)
