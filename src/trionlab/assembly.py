"""Assembly of the overlap, kinetic and potential matrices.

Axial Gaussian integrals are closed forms; a Coulomb element is a
prefactor times the outer sum of an angular weight at t = 4 r^2 D/E,
one `angular.outer_sums` call per grid of t (`_coulomb`).  Angular factors
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
    if charge not in ("-", "+"):
        raise ValueError(f"unknown charge {charge!r}")
    if charge == "+" and sigma == 0:
        raise ValueError("positive trion requires sigma > 0")
    rho = 1.0 / sigma if charge == "+" else sigma
    w = 2.0 * rho / (1.0 + rho)
    if not np.isfinite(w):
        raise ValueError(f"sigma={sigma} overflows the mixing weight: {w}")
    return w


def _axial_arrays(basis):
    ax = basis.axial
    return tuple(np.asarray(a, float)
                 for a in (ax.alphas_i, ax.alphas_j, ax.alphas_k))


def _flatten(T):
    """(i,i',j,j',k,k',l,l') tensor -> (N, N) matrix, row index (i,j,k,l)."""
    N = int(np.prod(T.shape[::2]))
    M = T.transpose(0, 2, 4, 6, 1, 3, 5, 7)
    return np.ascontiguousarray(M.reshape(N, N))


@lru_cache(maxsize=8)
def _triangle(n):
    """Rows and columns of the upper triangle of an n x n matrix, and the
    (n, n) map of entry (a, b) to the place of (min, max) in them."""
    iu, ju = np.triu_indices(n)
    back = np.empty((n, n), dtype=np.intp)
    back[iu, ju] = back[ju, iu] = np.arange(len(iu))
    iu.flags.writeable = ju.flags.writeable = back.flags.writeable = False
    return iu, ju, back


def axial_matrices(basis):
    """Axial factors (S, K, KM) of the trion matrices, row index (i, j, k):
    the overlap, K1 + K2 and the mixed form of `axial_kernels`.  The primed
    swap leaves each kernel unchanged bit for bit, so they are evaluated on
    the upper triangle and mirrored: symmetric by construction.  The full
    matrices are their Kronecker products with the angular tables."""
    f = [g.ravel() for g in np.meshgrid(*_axial_arrays(basis), indexing="ij")]
    iu, ju, back = _triangle(f[0].size)
    S, K1, K2, KM = axial_kernels(*(g[idx] for g in f for idx in (iu, ju)))
    return S.take(back), (K1 + K2).take(back), KM.take(back)


def assemble_overlap(basis):
    """Full overlap matrix S = S_ax (x) ANGULAR_OVERLAP."""
    L = basis.angular.size
    return np.kron(axial_matrices(basis)[0], ANGULAR_OVERLAP[:L, :L])


def assemble_kinetic(basis, sigma, r, charge="-"):
    """Full kinetic matrix, including the 1/r^2 angular factor and the
    mass-fraction-weighted mixed terms."""
    check_inputs(r)
    w = mixing_weight(sigma, charge)
    S, K, KM = axial_matrices(basis)
    L = basis.angular.size
    ang = (ANGULAR_KINETIC + w * ANGULAR_KINETIC_MIXED)[:L, :L] / r ** 2
    return np.kron(S, ang) + np.kron(K + w * KM, ANGULAR_OVERLAP[:L, :L])


def _unique_pairs(al):
    """Unordered pair sums of one exponent list plus the scatter index."""
    iu, ju, back = _triangle(len(al))
    return al[iu] + al[ju], back


@lru_cache(maxsize=2)
def _scatter(ni, nj, nk, L):
    """Flat index into the (p1, p2, p3, L, L) pair-sum table of
    `assemble_potential` of each entry of U, in U's C order."""
    ia, ib, ic = (_triangle(n)[2] for n in (ni, nj, nk))
    p = ((ia[:, :, None, None] * (ib.max() + 1) + ib)[..., None, None]
         * (ic.max() + 1) + ic)                      # (i, i', j, j', k, k')
    return _flatten(p[..., None, None] * L * L
                    + np.arange(L * L).reshape(L, L))


def _coulomb(n, entry, t, quad, what):
    """Table T of shape (n, n) + t.shape, symmetric in its first two axes:
    T[a, b] = scale * sum(c * G[prof] for c, prof in terms), where
    (scale, terms) = entry(a, b) and G holds the outer sums of every
    profile on t from one `angular.outer_sums` call.  A t outside the
    tables names `what`, the exponents and r behind it."""
    entries = {(a, b): entry(a, b) for a in range(n) for b in range(a, n)}
    profs = list(dict.fromkeys(prof for _, terms in entries.values()
                               for _, prof in terms))
    try:
        G = dict(zip(profs, angular.outer_sums(profs, t, quad)))
    except ValueError as err:
        raise ValueError(f"{what}: {err}") from None
    T = np.empty((n, n) + t.shape)
    for (a, b), (scale, terms) in entries.items():
        T[a, b] = T[b, a] = scale * sum(c * G[prof] for c, prof in terms)
    return T


def _channel(channel, Au, Bu, Cu, r, L, quad, what):
    """Signed, normalized integrals of one Coulomb channel on the grid of
    unique pair sums, shape (p1, p2, p3, L, L), on t = 4 r^2 D/E."""
    A, B, C = Au[:, None, None], Bu[None, :, None], Cu[None, None, :]
    D = A * B + (A + B) * C
    E = (B + C, A + C, A + B)[channel]
    pref = (1.0 if channel == 2 else -1.0) * _PREF / np.sqrt(E)

    def entry(l, lp):
        coef, prof = angular.pair_entry(channel, l, lp)
        return pref * coef, ((1.0, prof),)
    T = _coulomb(L, entry, 4.0 * r * r * D / E, quad, what)
    return np.moveaxis(T, (0, 1), (-2, -1))


def assemble_potential(basis, r, quad=DEFAULT_QUAD):
    """Full Coulomb matrix U: two attraction channels plus repulsion.

    Elements depend on the exponents only through the three pair sums,
    so the kernels are evaluated once per unordered pair combination and
    scattered to the full matrix.  Channel 1 is channel 0 with the first
    two pair axes swapped when the basis is exchange symmetric
    (`angular.exchange_factors`); its t grid is then bit-identical
    and so is U.  Channel 2 is minus channel 0 with the first and third
    axes swapped when alphas_i == alphas_k; that reuse rounds the
    pair-sum product D in another order, so U moves in the last bits (up
    to about 4e-16 relative).  Both relabel the angular factors by
    `angular.CHANNEL_LABELS`.
    """
    check_inputs(r)
    ai, aj, ak = _axial_arrays(basis)
    L = basis.angular.size
    Au, Bu, Cu = (_unique_pairs(a)[0] for a in (ai, aj, ak))
    exps = (f"exponents i {ai.tolist()}, j {aj.tolist()}, k {ak.tolist()} "
            f"at r={r}")
    U = [_channel(0, Au, Bu, Cu, r, L, quad, exps)]
    swap_ik = np.array_equal(ai, ak) and angular.keeps_labels(2, L)
    for channel, reuse, axes, sgn in (
            (1, angular.exchange_factors(basis) is not None,
             (1, 0, 2, 3, 4), 1.0),
            (2, swap_ik, (2, 1, 0, 3, 4), -1.0)):
        m = np.array(angular.CHANNEL_LABELS[channel][:L])
        U.append(sgn * U[0].transpose(axes)[..., m[:, None], m] if reuse
                 else _channel(channel, Au, Bu, Cu, r, L, quad, exps))
    return (U[0] + U[1] + U[2]).take(_scatter(len(ai), len(aj), len(ak), L))


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
    U = _coulomb(L, lambda l, lp: (
        -2.0 / np.pi, ((1.0, angular.pair_entry(0, l, lp)[1]),)),
        4.0 * r * r * A, quad, f"exponents {al.tolist()} at r={r}")
    return MatrixTriple(S, K, U.transpose(2, 0, 3, 1).reshape(S.shape))


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
    pref = _PREF / np.sqrt(E)
    J = _coulomb(2 * n_ang - 1, lambda s1, s2: (
        pref, angular.power_corr_terms(s1, s2)),
        4.0 * r * r * (P * Q) / E, quad, f"exponents {al.tolist()} at r={r}")
    pair = ip[:, None, :, None]                      # (a, ., b, .)
    lsum = np.add.outer(np.arange(n_ang), np.arange(n_ang))[None, :, None, :]
    ex = (Ellipsis,) + (None,) * 4
    V = J[lsum[ex], lsum, pair[ex], pair]            # a,la,b,lb,c,lc,d,ld
    N = len(alphas) * n_ang
    return V.reshape(N, N, N, N)
