"""Assembly of the overlap, kinetic and potential matrices.

Axial Gaussian integrals are closed forms; a Coulomb element is a
prefactor times `angular.outer_sum` of an angular weight at t = 4 r^2 D/E,
one table lookup per distinct weight on each grid of t.  Angular factors
carry the measure d(theta)/(2 pi) per particle, matching the normalized
angular kernel tables in `basis`.
"""
from collections import namedtuple
from functools import lru_cache

import numpy as np

from . import angular
from .basis import (ANGULAR_KINETIC, ANGULAR_KINETIC_MIXED, ANGULAR_OVERLAP,
                    AngularSet, axial_kernels, check_inputs, pair_kernels)
from .quadrature import DEFAULT_QUAD

# Angular measure 1/(2 pi)^2 times the (4/sqrt(pi)) pi of the outer integral.
_PREF = 1.0 / (4.0 * np.pi ** 2) * (4.0 / np.sqrt(np.pi)) * np.pi


MatrixTriple = namedtuple("MatrixTriple", "S K U")


def mixing_weight(sigma, charge):
    """Mass-fraction weight 2 rho/(1+rho) of the mixed kinetic terms, rho
    the mass ratio of the identical carriers to the third: sigma for charge
    '-', 1/sigma for '+', so S+ at sigma is S- at 1/sigma."""
    check_inputs(sigma=sigma)
    if charge == "+":
        if sigma == 0:
            raise ValueError("positive trion requires sigma > 0")
        sigma = 1.0 / sigma
    elif charge != "-":
        raise ValueError(f"unknown charge {charge!r}")
    return 2.0 * sigma / (1.0 + sigma)


def _axial_arrays(basis):
    ax = basis.axial
    return tuple(np.asarray(a, float)
                 for a in (ax.alphas_i, ax.alphas_j, ax.alphas_k))


@lru_cache(maxsize=1)   # a trion family reads one basis's kernels 3 times
def _axial_kernels(basis):
    """`axial_kernels` on the axes (i, i', j, j', k, k'), in that order."""
    ai, aj, ak = _axial_arrays(basis)
    return axial_kernels(*np.ix_(ai, ai, aj, aj, ak, ak))


def _flatten(T):
    """(i,i',j,j',k,k',l,l') tensor -> (N, N) matrix, row index (i,j,k,l)."""
    N = int(np.prod(T.shape[::2]))
    M = T.transpose(0, 2, 4, 6, 1, 3, 5, 7)
    return np.ascontiguousarray(M.reshape(N, N))


def assemble_overlap(basis):
    """Full overlap matrix S (axial Gaussian overlap x angular table)."""
    ST = _axial_kernels(basis)[0]
    L = basis.angular.size
    return _flatten(ST[..., None, None] * ANGULAR_OVERLAP[:L, :L])


def assemble_kinetic(basis, sigma, r, charge="-"):
    """Full kinetic matrix, including the 1/r^2 angular factor and the
    mass-fraction-weighted mixed terms."""
    check_inputs(r)
    w = mixing_weight(sigma, charge)
    ST, KT1, KT2, KTM = _axial_kernels(basis)
    L = basis.angular.size
    ang = (ANGULAR_KINETIC + w * ANGULAR_KINETIC_MIXED)[:L, :L] / r ** 2
    K = ST[..., None, None] * ang \
        + (KT1 + KT2 + w * KTM)[..., None, None] * ANGULAR_OVERLAP[:L, :L]
    return _flatten(K)


def _unique_pairs(al):
    """Unordered pair sums of one exponent list plus the scatter index."""
    iu, ju = np.triu_indices(len(al))
    back = np.empty((len(al), len(al)), dtype=int)
    back[iu, ju] = back[ju, iu] = np.arange(len(iu))
    return al[iu] + al[ju], back


def _outer_sums(profs, t, quad, r, exponents):
    """{profile: angular.outer_sum(profile, t, quad)} for the distinct
    `profs`; a t outside the tables names the exponents and r behind it."""
    try:
        return {prof: angular.outer_sum(prof, t, quad) for prof in profs}
    except ValueError as err:
        raise ValueError(f"{exponents} at r={r}: {err}") from None


def _channel(channel, Au, Bu, Cu, r, L, quad, exponents):
    """Signed, normalized integrals of one Coulomb channel on the grid of
    unique pair sums, shape (p1, p2, p3, L, L): one outer sum per distinct
    angular profile, on t = 4 r^2 D/E."""
    A, B, C = Au[:, None, None], Bu[None, :, None], Cu[None, None, :]
    D = A * B + (A + B) * C
    E = (B + C, A + C, A + B)[channel]
    entries = {(l, lp): angular.pair_entry(channel, l, lp)
               for l in range(L) for lp in range(l, L)}
    G = _outer_sums({prof for _, prof in entries.values()},
                    4.0 * r * r * D / E, quad, r, exponents)
    pref = (1.0 if channel == 2 else -1.0) * _PREF / np.sqrt(E)
    out = np.empty(D.shape + (L, L))
    for (l, lp), (coef, prof) in entries.items():
        out[..., l, lp] = out[..., lp, l] = pref * coef * G[prof]
    return out


def assemble_potential(basis, r, quad=DEFAULT_QUAD):
    """Full Coulomb matrix U: two attraction channels plus repulsion.

    Elements depend on the exponents only through the three pair sums,
    so the kernels are evaluated once per unordered pair combination and
    scattered to the full matrix.  Channel 1 is channel 0 with the first
    two pair axes swapped when the basis is exchange symmetric
    (`angular.exchange_permutation`); its t grid is then bit-identical
    and so is U.  Channel 2 is minus channel 0 with the first and third
    axes swapped when alphas_i == alphas_k; that reuse rounds the
    pair-sum product D in another order, so U moves in the last bits (up
    to about 4e-16 relative).  Both relabel the angular factors by
    `angular.CHANNEL_LABELS`.
    """
    check_inputs(r)
    ai, aj, ak = _axial_arrays(basis)
    L = basis.angular.size
    (Au, ia), (Bu, ib), (Cu, ic) = map(_unique_pairs, (ai, aj, ak))
    exps = f"exponents i {ai.tolist()}, j {aj.tolist()}, k {ak.tolist()}"
    U = [_channel(0, Au, Bu, Cu, r, L, quad, exps)]
    swap_ik = np.array_equal(ai, ak) and angular.keeps_labels(2, L)
    for channel, reuse, axes, sgn in (
            (1, angular.exchange_permutation(basis) is not None,
             (1, 0, 2, 3, 4), 1.0),
            (2, swap_ik, (2, 1, 0, 3, 4), -1.0)):
        m = np.array(angular.CHANNEL_LABELS[channel][:L])
        U.append(sgn * U[0].transpose(axes)[..., m[:, None], m] if reuse
                 else _channel(channel, Au, Bu, Cu, r, L, quad, exps))
    Uu = U[0] + U[1] + U[2]
    return _flatten(Uu[ia[:, :, None, None, None, None], ib[:, :, None, None],
                       ic])


# --- single-particle (electron-hole pair) problem ---------------------------
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
    # labels 0, 1 of channel 0 are this pair's {1, |sin(theta/2)|}
    profs = {(l, lp): angular.pair_entry(0, l, lp)[1]
             for l in range(L) for lp in range(l, L)}
    G = _outer_sums(set(profs.values()), 4.0 * r * r * A, quad, r,
                    f"exponents {al.tolist()}")
    n = len(al)
    U = np.zeros((n, L, n, L))
    for (l, lp), prof in profs.items():
        U[:, l, :, lp] = U[:, lp, :, l] = -(2.0 / np.pi) * G[prof]
    return MatrixTriple(S, K, U.reshape(n * L, n * L))


# --- two-particle mean-field repulsion tensor -------------------------------
def repulsion_tensor(alphas, r, n_ang, quad=DEFAULT_QUAD):
    """<a c| V(x1-x2, t1-t2) |b d> over the single-particle basis.

    Orbitals a, b live on particle 1 and c, d on particle 2; returned
    with composite indices [(a,la), (b,lb), (c,lc), (d,ld)].  An element
    depends on (a, b) and (c, d) only through the pair sums P and Q and
    on the angular labels only through la+lb and lc+ld, so each profile
    is evaluated once on the grid of unique (P, Q) and scattered.
    """
    check_inputs(r)
    al = np.asarray(alphas, float)
    Pu, ip = _unique_pairs(al)
    P, Q = Pu[:, None], Pu[None, :]
    E = P + Q
    ns = 2 * n_ang - 1
    terms = {(s1, s2): angular.power_corr_terms(s1, s2)
             for s1 in range(ns) for s2 in range(s1, ns)}
    G = _outer_sums({prof for ts in terms.values() for _, prof in ts},
                    4.0 * r * r * (P * Q) / E, quad, r,
                    f"exponents {al.tolist()}")
    pref = _PREF / np.sqrt(E)
    J = np.empty((ns, ns, len(Pu), len(Pu)))
    for (s1, s2), ts in terms.items():
        J[s1, s2] = J[s2, s1] = pref * sum(c * G[prof] for c, prof in ts)
    pair = ip[:, None, :, None]                      # (a, ., b, .)
    lsum = np.add.outer(np.arange(n_ang), np.arange(n_ang))[None, :, None, :]
    ex = (Ellipsis,) + (None,) * 4
    V = J[lsum[ex], lsum, pair[ex], pair]            # a,la,b,lb,c,lc,d,ld
    N = len(alphas) * n_ang
    return V.reshape(N, N, N, N)
