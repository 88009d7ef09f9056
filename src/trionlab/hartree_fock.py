"""Mean-field (Hartree) treatment of the two-electron trion at sigma = 0.

Both electrons occupy one spatial orbital chi (spin singlet); each feels
the static hole attraction plus the Hartree potential of its single
partner.  The total energy removes the double-counted interaction:
E_T = 2 eps0 - <chi|V_H|chi>.
"""
from dataclasses import dataclass

import numpy as np

from .quadrature import DEFAULT_QUAD
from .solver import TrionResult, exciton_ground, family_at

ROOTHAAN_STEPS = 1     # undamped Roothaan steps before Newton takes over
RESIDUAL_TOL = 1e-12   # |g| of a converged orbital
EPS_TOL = 1e-10        # and the last change of eps0, Ry*


@dataclass(frozen=True)
class HFState:
    orbital_coeffs: np.ndarray
    epsilon0: float         # orbital energy, Ry*
    E_T_HF: float           # total two-electron energy, Ry*
    iterations: int
    converged: bool
    history: tuple          # epsilon0 per iteration
    residual: float         # |F y - eps0 y| of the returned orbital, in the
                            # retained modes


def scf(r, model="2d", basis=None, max_iter=200, quad=DEFAULT_QUAD):
    """Self-consistent single-orbital solution at radius r.

    Solves F y = eps y, |y| = 1, in the family's retained modes, where
    F = h + J, h = (k/x + u)/x, J = T y, T_abc = sum V~0_abcd y_d / x and
    chi = X0 y / sqrt(x): ROOTHAAN_STEPS undamped Roothaan steps from the
    lowest orbital of h, then Newton steps on [[F + 2K - eps, y], [y^T, 0]]
    (K = y^T T by V~0's a <-> b symmetry) until |g| = |F y - eps y| <=
    RESIDUAL_TOL and eps moved by less than EPS_TOL, at most max_iter steps.
    history holds eps of h alone, then eps = y^T F y of each iterate; eps0,
    the residual and E_T_HF are those of the returned orbital, converged or
    not.  Raises unless a converged eps is the lowest eigenvalue of its F.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    fam, x, bound = family_at("hf", model, r, basis, quad)
    k, u = fam.reduced
    h = (k / x + u) / x
    m = len(h)
    e, v = np.linalg.eigh(h)        # V_H = 0 start: exciton-like orbital
    y, history = v[:, 0], [float(e[0])]
    A, b = np.zeros((m + 1, m + 1)), np.zeros(m + 1)   # [[H, y], [y^T, 0]]
    for step in range(max_iter + 1):
        T = fam.V.reshape(m ** 3, m) @ (y / x)
        F = h + (T.reshape(m * m, m) @ y).reshape(m, m)
        eps = float(y @ F @ y)
        g = F @ y - eps * y
        res = np.linalg.norm(g)
        history.append(eps)
        converged = res <= RESIDUAL_TOL and abs(eps - history[-2]) < EPS_TOL
        if converged or step == max_iter:
            break
        if step < ROOTHAAN_STEPS:
            y = np.linalg.eigh(F)[1][:, 0]
        else:
            A[:m, :m] = F + 2.0 * (y @ T.reshape(m, m * m)).reshape(m, m)
            A[:m, :m].flat[::m + 1] -= eps
            A[:m, m] = A[m, :m] = y
            b[:m] = -g
            y = y + np.linalg.solve(A, b)[:m]
            y /= np.linalg.norm(y)
    if converged and np.argmin(np.abs(np.linalg.eigvalsh(F) - eps)) != 0:
        raise RuntimeError(f"SCF at r={r} ({model}) converged to an excited "
                           f"orbital: eps0 = {eps:.6g} Ry* is not the lowest "
                           "eigenvalue of its Fock matrix")
    e_total = bound(2.0 * eps - y @ (F - h) @ y)
    return HFState(fam.X @ y / np.sqrt(x), eps, float(e_total),
                   len(history) - 1, converged, tuple(history), float(res))


def hf_binding_energy(r, model="2d", quad=DEFAULT_QUAD):
    """E_B within the mean-field approximation, exciton reference exact.

    The exciton energy comes from the exact variational solver in the
    same model (recorded convention; sigma is fixed at 0).
    """
    state = scf(r, model, quad=quad)
    if not state.converged:
        raise RuntimeError(f"SCF did not converge at r={r} ({model})")
    e_x = exciton_ground(r, model, quad=quad)
    return TrionResult(state.E_T_HF, e_x, e_x - state.E_T_HF, model, 0.0,
                       "-", r), state
