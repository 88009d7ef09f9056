"""Generalized eigensolver and the exciton/trion energy front ends.

Ground-state energies are reported as raw (negative) eigenvalues in Ry*;
the public `exciton_energy` returns the positive binding energy, and
binding energies are differences of the raw ground energies.
"""
from dataclasses import dataclass

import numpy as np

from .assembly import assemble_exciton, assemble_trion
from .basis import preset_basis, scale_exponents
from .quadrature import DEFAULT_QUAD

DROP_TOL = 1e-10


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


def solve_generalized(H, S):
    """Solve H c = E S c by canonical orthogonalization.

    Overlap modes with eigenvalue below DROP_TOL * max are discarded to
    tame near-linear-dependence; eigenvectors are back-transformed and
    S-normalized.
    """
    H = np.asarray(H, float)
    S = np.asarray(S, float)
    if H.shape != S.shape or H.shape[0] != H.shape[1]:
        raise ValueError("H and S must be square matrices of equal shape")
    if not (np.allclose(H, H.T) and np.allclose(S, S.T)):
        raise ValueError("H and S must be symmetric")
    evals, evecs = np.linalg.eigh(S)
    keep = evals > DROP_TOL * evals.max()
    if not np.any(keep):
        raise ValueError("overlap matrix has no retained modes")
    X = evecs[:, keep] / np.sqrt(evals[keep])
    e, c = np.linalg.eigh(X.T @ H @ X)
    return Spectrum(e, X @ c, int(keep.sum()))


def exciton_spectrum(r, model="2d", basis=None, quad=DEFAULT_QUAD):
    if basis is None:
        basis = preset_basis("exciton" + model)
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
        basis = preset_basis("trion" + model)
    basis = scale_exponents(basis, r)
    t = assemble_trion(basis, r, sigma, charge, quad)
    return solve_generalized(t.H, t.S), basis


def trion_energy(r, sigma, charge="-", model="2d", basis=None,
                 quad=DEFAULT_QUAD):
    """Raw (negative) trion ground energy in Ry*."""
    spec, _ = trion_spectrum(r, sigma, charge, model, basis, quad)
    return float(spec.energies[0])


def binding_energy(r, sigma, charge="-", model="2d", trion_basis=None,
                   exciton_basis=None, quad=DEFAULT_QUAD):
    """Trion binding energy E_B = E_X - E_T, both within the same model."""
    e_t = trion_energy(r, sigma, charge, model, trion_basis, quad)
    e_x = exciton_ground(r, model, exciton_basis, quad)
    return TrionResult(e_t, e_x, e_x - e_t, model, sigma, charge, r)
