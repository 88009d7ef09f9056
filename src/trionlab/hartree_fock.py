"""Mean-field (Hartree) treatment of the two-electron trion at sigma = 0.

Both electrons occupy one spatial orbital chi (spin singlet); each feels
the static hole attraction plus the Hartree potential of its single
partner.  The total energy removes the double-counted interaction:
E_T = 2 eps0 - <chi|V_H|chi>.
"""
from dataclasses import dataclass

import numpy as np

from .quadrature import DEFAULT_QUAD
from .solver import (TrionResult, _check_symmetric, _orthogonalizer,
                     exciton_ground, family_at)


@dataclass(frozen=True)
class HFState:
    orbital_coeffs: np.ndarray
    epsilon0: float         # orbital energy, Ry*
    E_T_HF: float           # total two-electron energy, Ry*
    iterations: int
    converged: bool
    history: tuple          # epsilon0 per iteration


def hartree_matrix(rho, V4):
    """<a|V_H|b> of the density matrix rho (chi chi^T for one orbital chi)."""
    return np.einsum("abcd,cd->ab", V4, rho)


def scf(r, model="2d", basis=None, mixing=0.5, tol=1e-8, max_iter=200,
        quad=DEFAULT_QUAD):
    """Self-consistent single-orbital solution at radius r."""
    if not 0 < mixing <= 1:
        raise ValueError("mixing must be in (0, 1]")
    fam, x, bound = family_at("hf", model, r, basis, quad)
    h, S, V4 = fam.hf_matrices(x)
    _check_symmetric(S)
    X, _ = _orthogonalizer(S)        # S is the same in every iteration

    def lowest(F):
        _check_symmetric(F)
        e, c = np.linalg.eigh(X.T @ F @ X)
        return float(e[0]), (X @ c)[:, 0]

    eps0, chi = lowest(h)          # V_H = 0 start: exciton-like orbital
    history = [eps0]
    rho = np.outer(chi, chi)
    converged = False
    for _ in range(max_iter):
        F = h + hartree_matrix(rho, V4)
        eps0, chi = lowest(F)
        history.append(eps0)
        rho = mixing * np.outer(chi, chi) + (1.0 - mixing) * rho
        if abs(history[-1] - history[-2]) < tol:
            converged = True
            break
    VH = hartree_matrix(np.outer(chi, chi), V4)
    e_total = bound(2.0 * history[-1] - chi @ VH @ chi)
    return HFState(chi, history[-1], float(e_total), len(history) - 1,
                   converged, tuple(history))


def hf_binding_energy(r, model="2d", basis=None, exciton_basis=None,
                      quad=DEFAULT_QUAD):
    """E_B within the mean-field approximation, exciton reference exact.

    The exciton energy comes from the exact variational solver in the
    same model (recorded convention; sigma is fixed at 0).
    """
    state = scf(r, model, basis, quad=quad)
    if not state.converged:
        raise RuntimeError(f"SCF did not converge at r={r} ({model})")
    e_x = exciton_ground(r, model, exciton_basis, quad)
    return TrionResult(state.E_T_HF, e_x, e_x - state.E_T_HF, model, 0.0,
                       "-", r), state
