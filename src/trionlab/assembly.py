"""Assembly of the overlap, kinetic and potential matrices.

Axial Gaussian integrals are closed forms; Coulomb elements reduce to a
single outer integral of closed-form angular weights (see `angular` and
`quadrature`).  Angular factors carry the measure d(theta)/(2 pi) per
particle, matching the normalized angular kernel tables in `basis`.
"""
from dataclasses import dataclass

import numpy as np

from . import angular
from .basis import (ANGULAR_KINETIC, ANGULAR_KINETIC_MIXED, ANGULAR_OVERLAP,
                    AngularSet, axial_kernels, check_inputs, pair_kernels)
from .quadrature import DEFAULT_QUAD, outer_rule

SQPI = np.sqrt(np.pi)


@dataclass(frozen=True)
class MatrixTriple:
    S: np.ndarray
    K: np.ndarray
    U: np.ndarray


def mixing_weight(sigma, charge):
    """Mass-fraction weight of the mixed kinetic terms: 2 sigma/(1+sigma).

    charge '+' applies sigma -> 1/sigma, giving 2/(1+sigma).
    """
    check_inputs(sigma=sigma)
    if charge == "-":
        return 2.0 * sigma / (1.0 + sigma)
    if charge == "+":
        if sigma == 0:
            raise ValueError("positive trion requires sigma > 0")
        return 2.0 / (1.0 + sigma)
    raise ValueError(f"unknown charge {charge!r}")


def _axial_arrays(basis):
    ax = basis.axial
    ai = np.asarray(ax.alphas_i, float)
    aj = np.asarray(ax.alphas_j, float)
    ak = np.asarray(ax.alphas_k, float)
    return ai, aj, ak


def _axial_tensors(basis):
    """Exponents broadcast to the axes (i, i', j, j', k, k'), in that order."""
    ai, aj, ak = _axial_arrays(basis)
    out = []
    for axis, v in enumerate((ai, ai, aj, aj, ak, ak)):
        shape = [1] * 6
        shape[axis] = len(v)
        out.append(v.reshape(shape))
    return out


def _flatten(T):
    """(i,i',j,j',k,k',l,l') tensor -> (N, N) matrix, row index (i,j,k,l)."""
    N = int(np.prod(T.shape[::2]))
    M = T.transpose(0, 2, 4, 6, 1, 3, 5, 7)
    return np.ascontiguousarray(M.reshape(N, N))


def assemble_overlap(basis):
    """Full overlap matrix S (axial Gaussian overlap x angular table)."""
    ST, _, _, _ = axial_kernels(*_axial_tensors(basis))
    L = basis.angular.size
    return _flatten(ST[..., None, None] * ANGULAR_OVERLAP[:L, :L])


def assemble_kinetic(basis, sigma, r, charge="-"):
    """Full kinetic matrix, including the 1/r^2 angular factor and the
    mass-fraction-weighted mixed terms."""
    check_inputs(r)
    w = mixing_weight(sigma, charge)
    ST, KT1, KT2, KTM = axial_kernels(*_axial_tensors(basis))
    L = basis.angular.size
    ang = (ANGULAR_KINETIC + w * ANGULAR_KINETIC_MIXED)[:L, :L] / r ** 2
    K = ST[..., None, None] * ang \
        + (KT1 + KT2 + w * KTM)[..., None, None] * ANGULAR_OVERLAP[:L, :L]
    return _flatten(K)


# Third-axis pair sums per pass of `assemble_potential`: the presets have
# at most 15 and run in one pass; larger bases (11 or more k exponents)
# are split so the kernel temporaries stay bounded.
_CHUNK = 64


def _unique_pairs(al):
    """Unordered pair sums of one exponent list plus the scatter index."""
    n = len(al)
    iu, ju = np.triu_indices(n)
    sums = al[iu] + al[ju]
    back = np.empty((n, n), dtype=int)
    back[iu, ju] = np.arange(len(iu))
    back[ju, iu] = back[iu, ju]
    return sums, back


def assemble_potential(basis, r, quad=DEFAULT_QUAD):
    """Full Coulomb matrix U: two attraction channels plus repulsion.

    Elements depend on the exponents only through the three pair sums,
    so the kernels are evaluated once per unordered pair combination and
    scattered to the full matrix.  Chunking over the third pair axis
    bounds memory for large bases.
    """
    check_inputs(r)
    ai, aj, ak = _axial_arrays(basis)
    n1, n2, n3 = len(ai), len(aj), len(ak)
    L = basis.angular.size
    _, wts, sinh2 = outer_rule(quad)
    Au, ia = _unique_pairs(ai)
    Bu, ib = _unique_pairs(aj)
    Cu, ic = _unique_pairs(ak)
    p1, p2, p3 = len(Au), len(Bu), len(Cu)
    Ap = Au[:, None, None]
    Bp = Bu[None, :, None]
    norm = 1.0 / (4.0 * np.pi ** 2)
    Uu = np.zeros((p1, p2, p3, L, L))
    for c0 in range(0, p3, _CHUNK):
        Cs = Cu[None, None, c0:c0 + _CHUNK]
        sl = slice(c0, c0 + Cs.shape[2])
        D = Ap * Bp + (Ap + Bp) * Cs
        for channel, E, sgn in ((0, Bp + Cs, -1.0), (1, Ap + Cs, -1.0),
                                (2, (Ap + Bp) * np.ones_like(Cs), +1.0)):
            q = (4.0 * r * r * D / E)[..., None] * sinh2
            pref = sgn * norm * (4.0 / SQPI) * np.pi / np.sqrt(E)
            for l in range(L):
                for lp in range(l, L):
                    J = angular.pair_weight(channel, l, lp, q) @ wts
                    Uu[:, :, sl, l, lp] += pref * J
                    if lp != l:
                        Uu[:, :, sl, lp, l] += pref * J
    U = Uu[np.ix_(ia.ravel(), ib.ravel(), ic.ravel())]
    U = U.reshape(n1, n1, n2, n2, n3, n3, L, L)
    return _flatten(U)


# --- single-particle (electron-hole pair) problem ---------------------------
_EX_PROFILES = {(0, 0): angular.flat_weight, (0, 1): angular.sin_weight,
                (1, 1): angular.sin2_weight}


def assemble_exciton(basis, r, quad=DEFAULT_QUAD):
    """Matrices of the relative electron-hole problem.

    Basis: Gaussians (from alphas_i) x angular {1, |sin(theta/2)|}
    (constant set only for the 1D model).
    """
    check_inputs(r)
    al = np.asarray(basis.axial.alphas_i, float)
    L = 1 if basis.angular is AngularSet.CONSTANT else 2
    A = al[:, None] + al[None, :]
    s_ax, k_ax = pair_kernels(al)
    S = np.kron(s_ax, ANGULAR_OVERLAP[:L, :L])
    K = np.kron(k_ax, ANGULAR_OVERLAP[:L, :L]) \
        + np.kron(s_ax, ANGULAR_KINETIC[:L, :L]) / r ** 2
    _, wts, sinh2 = outer_rule(quad)
    q = (4.0 * r * r * A)[..., None] * sinh2
    n = len(al)
    U = np.zeros((n, L, n, L))
    for l in range(L):
        for lp in range(l, L):
            W = _EX_PROFILES[(l, lp)](q)
            J = W @ wts
            blk = -(2.0 / np.pi) * J
            U[:, l, :, lp] = blk
            U[:, lp, :, l] = blk
    return MatrixTriple(S, K, U.reshape(n * L, n * L))


# --- two-particle mean-field repulsion tensor -------------------------------
def repulsion_tensor(alphas, r, n_ang, quad=DEFAULT_QUAD):
    """<a c| V(x1-x2, t1-t2) |b d> over the single-particle basis.

    Orbitals a, b live on particle 1 and c, d on particle 2; returned
    with composite indices [(a,la), (b,lb), (c,lc), (d,ld)].
    """
    check_inputs(r)
    al = np.asarray(alphas, float)
    n = len(al)
    Q = al[:, None] + al[None, :]
    _, wts, sinh2 = outer_rule(quad)
    norm = 1.0 / (4.0 * np.pi ** 2)
    N = n * n_ang
    V = np.zeros((n, n_ang, n, n_ang, n, n_ang, n, n_ang))  # a,la,b,lb,c,lc,d,ld
    for a in range(n):
        for b in range(n):
            P = al[a] + al[b]
            D = P * Q
            E = P + Q
            q = (4.0 * r * r * D / E)[..., None] * sinh2
            pref = norm * (4.0 / SQPI) * np.pi / np.sqrt(E)
            for la in range(n_ang):
                for lb in range(n_ang):
                    for lc in range(n_ang):
                        for ld in range(n_ang):
                            W = angular.power_corr_weight(la + lb, lc + ld, q)
                            V[a, la, b, lb, :, lc, :, ld] = pref * (W @ wts)
    return V.reshape(N, N, N, N)
