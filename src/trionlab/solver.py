"""Generalized eigensolver and the exciton/trion energy front ends.

Ground-state energies are reported as raw (negative) eigenvalues in Ry*;
the public `exciton_energy` returns the positive binding energy, and
binding energies are differences of the raw ground energies.

Every basis is assembled once at its own reference radius r0 into a
`Family`, and each (r, sigma, charge) point is one reduced eigenproblem
of that family.  Calls without a basis use the preset families, cached
per process and quadrature (`preset_family`); an explicit basis gets a
family of its own for each call.

The trion problem is the singlet one.  For a trion basis symmetric under
exchange of its two identical carriers (`angular.exchange_factors`) the
family keeps only the retained modes of the exchange-symmetric (singlet)
sector, which the Hamiltonian does not couple to the triplet one.

Energy-only calls solve for the lowest eigenvalue alone: `trion_energy`
by one dsyevr call (`_lowest`), `exciton_ground` by numpy's eigh.
"""
import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .angular import exchange_factors
from .assembly import (assemble_exciton, assemble_potential, axial_matrices,
                       mixing_weight, repulsion_tensor)
from .basis import (ANGULAR_KINETIC, ANGULAR_KINETIC_MIXED, ANGULAR_OVERLAP,
                    BasisSpec, check_inputs, pair_kernels, preset_basis,
                    scale_exponents)
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


def _sectors(M, perm, signs=(1.0, -1.0)):
    """{sign: (e, V)}, the eigenpairs of M in each non-empty sector of the
    involution perm with a sign in `signs`: (e_a + sign e_perm[a])/sqrt(2)
    for a < perm[a], and e_a = e_perm[a] for +1.  Without perm, M is +1."""
    if perm is None:
        return {1.0: np.linalg.eigh(M)}
    out, a = {}, np.arange(len(perm))
    for sign in signs:
        i = a[(a < perm) | ((a == perm) & (sign > 0))]
        if len(i):
            j, c = perm[i], np.where(i == perm[i], 0.5, np.sqrt(0.5))[:, None]
            G = M[:, i] + sign * M[:, j]
            e, v = np.linalg.eigh(c * (G[i] + sign * G[j]) * c.T)
            V = np.zeros((len(M), len(e)))
            V[i] = c * v
            V[j] += sign * c * v
            out[sign] = e, V
    return out


def _orthogonalizer(s_ax, ang, p_ax=None, m=None):
    """Canonical orthogonalization X0 of S = s_ax (x) ang (X0^T S X0 = 1)
    from the factors' eigenpairs (e, u), (f, w): S has u (x) w with e f.
    With the exchange involutions p_ax and m, only the products of two
    even or two odd modes (kept by P = p_ax (x) m); products below DROP_TOL
    times the largest are dropped.  Returns (X0, A, W): X0[:, c] is
    A[:, c] (x) W[:, c], so X0^T (M (x) N) X0 = A^T M A * W^T N W."""
    ang = _sectors(ang, m)
    ax = _sectors(s_ax, p_ax, list(ang))
    prods = {s: np.outer(ax[s][0], ang[s][0]) for s in ax}
    top = DROP_TOL * max(P.max(initial=-np.inf) for P in prods.values())
    kept = [(ax[s], ang[s], np.nonzero(P > top)) for s, P in prods.items()]
    A = np.hstack([U[:, p] / np.sqrt(e[p]) for (e, U), _, (p, _) in kept])
    W = np.hstack([V[:, q] / np.sqrt(f[q]) for _, (f, V), (_, q) in kept])
    if A.shape[1] == 0:
        raise ValueError("overlap matrix has no retained modes")
    return (A[:, None] * W).reshape(-1, A.shape[1]), A, W


def solve_generalized(H, S):
    """Solve H c = E S c by canonical orthogonalization.

    Eigenvectors are back-transformed and S-normalized.
    """
    H = np.asarray(H, float)
    S = np.asarray(S, float)
    if H.shape != S.shape or H.shape[0] != H.shape[1]:
        raise ValueError("H and S must be square matrices of equal shape")
    if not (np.allclose(H, H.T) and np.allclose(S, S.T)):
        raise ValueError("H and S must be symmetric")
    X = _orthogonalizer(S, np.ones((1, 1)))[0]
    e, c = np.linalg.eigh(X.T @ H @ X)
    return Spectrum(e, X @ c, X.shape[1])


# --- families ---------------------------------------------------------------
@dataclass(frozen=True, eq=False)
class Family:
    """One basis assembled at its own reference radius r0.

    At radius r the exponents are scaled by (r0/r)^2, which leaves every
    Coulomb argument q = 4 r^2 D/E unchanged.  With x = r/r0 each matrix
    is its r0 value times a power of x:
        trion:       S = x^2 S0,  K = Ka + w Km,  U = x U0
        exciton/hf:  S = x S0,    K = K0 / x,     U = U0,  V4 = x V4_0
    (w = `mixing_weight(sigma, charge)`).  So one eigenproblem in the
    retained modes X0 of S0 solves each (r, sigma, charge) point, and the
    coefficients in the scaled basis are X0 v / x (trion) or
    X0 v / sqrt(x) (exciton and hf).  The hf family keeps V~0, V4_0 with
    each index reduced by X0 and averaged over its 8-fold symmetry (the
    reduction alone keeps it to about 1e-10 relative on hf2d), as
    Vj[(a, b), (c, d)] = Vk[(a, c), (b, d)].

    For a trion basis with exchange symmetry P, X0 spans the exchange-
    symmetric (singlet) sector alone: P commutes with S0, Ka, Km and U0,
    so the antisymmetric (triplet) sector, which holds no singlet state,
    decouples.  Any other basis keeps every retained mode of S0.  Ka and
    Km are reduced factor by factor (`assembly.axial_matrices`), U0 whole.

    The assembled factors (S_ax, K_ax, KM_ax, U0; s_ax, K0, U0) are
    symmetric bit for bit, the axial ones by construction, and `family`
    checks each.  `reduced` is symmetric only to rounding, max |M - M^T|
    / max |M|: trion1d U0 1.5e-9, trion2d U0 6.2e-10, Ka and Km <= 8.1e-11,
    exciton and hf <= 1.1e-14.  Every eigensolve reads its lower triangle.
    """
    basis: BasisSpec        # the basis at r0
    X: np.ndarray           # X0, from `_orthogonalizer`
    reduced: tuple          # X0^T M X0 for M in (Ka, Km, U0) or (K0, U0)
    Vj: np.ndarray = None   # V~0 in the (a, b), (c, d) layout (hf only)
    Vk: np.ndarray = None   # V~0 in the (a, c), (b, d) layout (hf only)


def family(problem, basis, quad):
    """The Family of `basis` for problem "trion", "exciton" or "hf"."""
    r0 = basis.r0
    V4 = Vj = Vk = None
    if problem == "trion":
        L = basis.angular.size
        S, K, KM, U = checked = (*axial_matrices(basis),
                                 assemble_potential(basis, r0, quad))
        X, A, W = _orthogonalizer(S, ANGULAR_OVERLAP[:L, :L],
                                  *exchange_factors(basis) or ())
        o, t, tm = (W.T @ M[:L, :L] @ W for M in (
            ANGULAR_OVERLAP, ANGULAR_KINETIC, ANGULAR_KINETIC_MIXED))
        s = A.T @ S @ A / r0 ** 2 if L > 1 else 0.0   # 1D: t = tm = 0
        reduced = (s * t + (A.T @ K @ A) * o, s * tm + (A.T @ KM @ A) * o,
                   X.T @ U @ X)
    else:
        L = min(basis.angular.size, 2)   # {1} or {1, |sin(theta/2)|}
        t = assemble_exciton(basis, r0, quad)
        checked = (pair_kernels(basis.axial.alphas_i)[0], t.K, t.U)
        X = _orthogonalizer(checked[0], ANGULAR_OVERLAP[:L, :L])[0]
        reduced = (X.T @ t.K @ X, X.T @ t.U @ X)
        if problem == "hf":
            V4 = repulsion_tensor(basis.axial.alphas_i, r0, L, quad)
    if not all(np.array_equal(M, M.T) for M in checked):
        raise ValueError(f"{problem} matrices must be exactly symmetric")
    if V4 is not None:
        V4 = np.einsum("abcd,aA,bB,cC,dD->ABCD", V4, X, X, X, X, optimize=True)
        V4 = V4 + V4.transpose(1, 0, 2, 3)    # average over a <-> b,
        V4 = V4 + V4.transpose(0, 1, 3, 2)    # c <-> d and pair exchange
        V4 = (V4 + V4.transpose(2, 3, 0, 1)) / 8.0
        m2 = X.shape[1] ** 2
        Vj, Vk = V4.reshape(m2, m2), V4.transpose(0, 2, 1, 3).reshape(m2, m2)
    fam = Family(basis, X, reduced, Vj, Vk)
    for M in (X, Vj, Vk, *fam.reduced):
        if M is not None:
            M.flags.writeable = False   # a preset family is shared
    return fam


@lru_cache(maxsize=None)
def preset_family(kind, quad):
    """The Family of a preset, assembled on first use.

    One entry per (kind, quad) lives for the whole process: six preset
    kinds times the quadratures in use, at most about 4 MB each (2D trion).
    """
    return family(kind[:-2], preset_basis(kind), quad)


def check_bound(e, r):
    """A preset ground energy at or above 0 means r lies so far outside
    the presets' range that the basis holds no bound state."""
    if not e < 0:
        raise ValueError(f"preset basis has no bound state at r={r} "
                         f"(ground energy {e:.4g} Ry*)")
    return e


def family_at(problem, model, r, basis, quad):
    """(family, x = r/r0, bound) of one point; r is checked, x finite.

    Without a basis this is the cached preset family of `model`, for
    r >= R_MIN, and bound(e) is `check_bound(e, r)`.  An explicit basis
    gets an uncached family, is not bounded, and bound(e) returns e.
    """
    check_inputs(r)
    if basis is None and r < R_MIN:
        raise ValueError(f"radius r={r} is below R_MIN={R_MIN}, the "
                         "smallest radius the preset bases resolve")
    fam = (preset_family(problem + model, quad) if basis is None
           else family(problem, basis, quad))
    x = r / fam.basis.r0
    if not np.isfinite(x):
        raise ValueError(f"radius r={r} overflows r/r0 (r0={fam.basis.r0})")
    return fam, x, ((lambda e: check_bound(e, r)) if basis is None
                    else (lambda e: e))


def _flapack_file():
    """Path of scipy's LAPACK extension module `linalg/_flapack`, or None
    if this scipy keeps it elsewhere."""
    spec = importlib.util.find_spec("scipy")
    for root in (spec and spec.submodule_search_locations) or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "linalg", "_flapack" + suffix)
            if os.path.isfile(path):
                return path
    return None


def _lapack():
    """scipy's (dsyevr, dsyevr_lwork), from `_flapack` loaded by its file
    path: neither `scipy` nor `scipy.linalg` runs its __init__ (3 ms
    instead of about 280 ms after numpy).  The module goes into
    sys.modules under its own name, so a later `import scipy.linalg`
    reuses it.  Without the file, `get_lapack_funcs` gives the same
    functions."""
    path = _flapack_file()
    if path is None:
        from scipy.linalg import get_lapack_funcs
        return get_lapack_funcs(("syevr", "syevr_lwork"), dtype=np.float64)
    module = sys.modules.get("scipy.linalg._flapack")
    if module is None:
        spec = importlib.util.spec_from_file_location("scipy.linalg._flapack",
                                                      path)
        module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module.dsyevr, module.dsyevr_lwork


@lru_cache(maxsize=None)
def _syevr(n):
    """dsyevr and the workspace sizes scipy's eigh queries, once per n;
    the functions come from `_lapack`, without importing scipy.linalg."""
    drv, query = _lapack()
    lwork, liwork, _ = query(n=n, lower=1)
    return drv, int(lwork), int(liwork)


def _lowest(h):
    """Lowest eigenvalue of a symmetric matrix (lower triangle): the value
    of scipy's eigh with subset_by_index=(0, 0), without its wrapper."""
    drv, lwork, liwork = _syevr(len(h))
    w, _, _, _, info = drv(h, compute_v=0, range="I", il=1, iu=1, lower=1,
                           lwork=lwork, liwork=liwork)
    if info != 0 or not np.isfinite(w[0]):
        raise ValueError(f"eigensolve failed: dsyevr info={info}, e={w[0]}")
    return float(w[0])


def _spectrum(fam, h, x, p, bound, r):
    """Spectrum and scaled basis at x = r/r0 from h = X0^T H(r) X0.

    With S(r) = x^p S0, H c = E S c becomes h v = x^p E v for
    c = X0 v / x^(p/2).
    """
    e, v = np.linalg.eigh(h)
    e = e / x ** p
    bound(e[0])
    return (Spectrum(e, fam.X @ v / x ** (p / 2), len(e)),
            scale_exponents(fam.basis, r))


def _trion(r, sigma, charge, model, basis, quad):
    """(family, x, bound, h) of the trion at one point: h = X0^T H(r) X0."""
    fam, x, bound = family_at("trion", model, r, basis, quad)
    ka, km, u = fam.reduced
    return fam, x, bound, ka + mixing_weight(sigma, charge) * km + x * u


# --- front ends -------------------------------------------------------------
def exciton_spectrum(r, model="2d", basis=None, quad=DEFAULT_QUAD):
    fam, x, bound = family_at("exciton", model, r, basis, quad)
    k, u = fam.reduced
    return _spectrum(fam, k / x + u, x, 1, bound, r)


def exciton_ground(r, model="2d", basis=None, quad=DEFAULT_QUAD):
    """Raw (negative) exciton ground energy in Ry*: `exciton_spectrum`'s
    lowest eigenvalue alone, by numpy (exciton and hf load no scipy)."""
    fam, x, bound = family_at("exciton", model, r, basis, quad)
    k, u = fam.reduced
    return float(bound(np.linalg.eigh(k / x + u)[0][0] / x))


def exciton_energy(r, model="2d", basis=None, quad=DEFAULT_QUAD):
    """Exciton binding energy (positive magnitude of the ground state)."""
    return -exciton_ground(r, model, basis, quad)


def trion_spectrum(r, sigma, charge="-", model="2d", basis=None,
                   quad=DEFAULT_QUAD):
    """Singlet spectrum and the scaled basis: the family's retained modes,
    the exchange-symmetric sector of a basis with exchange symmetry."""
    fam, x, bound, h = _trion(r, sigma, charge, model, basis, quad)
    return _spectrum(fam, h, x, 2, bound, r)


def trion_energy(r, sigma, charge="-", model="2d", basis=None,
                 quad=DEFAULT_QUAD):
    """Raw (negative) singlet trion ground energy in Ry*."""
    _, x, bound, h = _trion(r, sigma, charge, model, basis, quad)
    return bound(_lowest(h) / x ** 2)


def binding_energy(r, sigma, charge="-", model="2d", quad=DEFAULT_QUAD):
    """Trion binding energy E_B = E_X - E_T in the model's preset bases."""
    e_t = trion_energy(r, sigma, charge, model, quad=quad)
    e_x = exciton_ground(r, model, quad=quad)
    return TrionResult(e_t, e_x, e_x - e_t, model, sigma, charge, r)
