"""Independent numerical oracles used by the test suite.

Everything here is deliberately brute-force: direct scipy quadrature of
the defining integrals, with none of the closed-form reductions used by
the package itself, a band-edge scan of every subband, band-edge masses
from extended-precision finite differences, solves of
matrices assembled at the radius of each point (the path that the
families of `trionlab.solver` replaced), the Coulomb kernels as plain
loops with one angular weight call per channel and label pair, and the
exchange sectors of a trion basis built by loops, and the layouts that
assembly replaced by in-order reads: a fancy-index scatter of the Coulomb
pair-sum table and a point-major gather of the outer-sum coefficients.
"""
import numpy as np
from scipy.integrate import quad
from scipy.special import k0e

from trionlab import angular
from trionlab.assembly import (MatrixTriple, assemble_exciton,
                               assemble_kinetic, assemble_overlap,
                               assemble_potential, repulsion_tensor)
from trionlab.basis import AngularSet, scale_exponents
from trionlab.quadrature import DEFAULT_QUAD, outer_rule
from trionlab.solver import solve_generalized
from trionlab.tightbinding import (DEFAULT_PARAMS, EffectiveMasses, _fold,
                                   _translation, graphene_band,
                                   is_semiconducting, radius)

# Two-particle angular basis functions, 0-based labels.
ANGULAR_FUNCS = [
    lambda t1, t2: 1.0,
    lambda t1, t2: abs(np.sin(t1 / 2.0)),
    lambda t1, t2: abs(np.sin(t2 / 2.0)),
    lambda t1, t2: abs(np.sin((t1 - t2) / 2.0)),
]


def gauss_axial(p):
    """integral exp(-p x^2) dx over the real line."""
    return np.sqrt(np.pi / p)


def coulomb_axial(p, a2):
    """integral 2 exp(-p x^2) / sqrt(x^2 + a^2) dx over the real line.

    Bessel identity: equals 2 exp(z) K0(z) with z = p a^2 / 2; the a -> 0
    limit is logarithmically divergent, so callers keep a^2 > 0.
    """
    z = 0.5 * p * a2
    return 2.0 * k0e(z)


def _nested_quad(f, singular_inner=None, tol=1e-9):
    """integral of f(t1, t2) over [-pi, pi]^2 by nested adaptive quad.

    singular_inner(t2) optionally lists inner (t1) break points.
    """
    def inner(t2):
        pts = None
        if singular_inner is not None:
            pts = [p for p in singular_inner(t2) if -np.pi < p < np.pi]
        val, _ = quad(lambda t1: f(t1, t2), -np.pi, np.pi, points=pts,
                      limit=200, epsabs=tol, epsrel=tol)
        return val

    val, _ = quad(inner, -np.pi, np.pi, limit=200, epsabs=tol, epsrel=tol)
    return val


def brute_trion_element(l, lp, A, B, C, r):
    """One full Coulomb matrix element by brute-force quadrature.

    A, B, C are the Gaussian pair sums of the three axial separations;
    l, lp are 0-based angular labels.  Channels: attraction on each
    electron-hole separation plus electron-electron repulsion.
    """
    D = A * B + A * C + B * C
    phi, phip = ANGULAR_FUNCS[l], ANGULAR_FUNCS[lp]
    norm = 1.0 / (4.0 * np.pi ** 2)
    total = 0.0
    for channel, E, sgn in ((0, B + C, -1.0), (1, A + C, -1.0),
                            (2, A + B, +1.0)):
        p = D / E

        def f(t1, t2, channel=channel, p=p):
            t = (t1, t2, t1 - t2)[channel]
            a2 = 4.0 * r * r * np.sin(t / 2.0) ** 2
            return phi(t1, t2) * phip(t1, t2) * coulomb_axial(p, a2)

        if channel == 0:
            sing = lambda t2: [0.0]
        elif channel == 1:
            def f_swapped(t1, t2, f=f):
                return f(t2, t1)
            # integrate with the singular angle innermost
            total += sgn * norm * gauss_axial(E) \
                * _nested_quad(f_swapped, lambda t2: [0.0])
            continue
        else:
            sing = lambda t2: [t2, t2 - 2.0 * np.pi, t2 + 2.0 * np.pi]
        total += sgn * norm * gauss_axial(E) * _nested_quad(f, sing)
    return total


def brute_repulsion_element(pa, pb, P, Q, r):
    """<a c|V|b d> with angular powers |sin(t/2)|^pa, |sin(t/2)|^pb on the
    two particles and axial Gaussian pair sums P (particle 1), Q (2)."""
    D = P * Q
    E = P + Q
    p = D / E

    def f(t1, t2):
        a2 = 4.0 * r * r * np.sin((t1 - t2) / 2.0) ** 2
        return (abs(np.sin(t1 / 2.0)) ** pa * abs(np.sin(t2 / 2.0)) ** pb
                * coulomb_axial(p, a2))

    norm = 1.0 / (4.0 * np.pi ** 2)
    sing = lambda t2: [t2, t2 - 2.0 * np.pi, t2 + 2.0 * np.pi]
    return norm * gauss_axial(E) * _nested_quad(f, sing)


def brute_effective_masses(ch, p=None, scan_points=2001, fd_step=1e-3):
    """Band-edge masses from a dense scan of every one of the N subbands.

    The all-subband search that `effective_masses` replaced: a scan of
    every line at 2,001 points, golden-section refinement (edge to about
    sqrt(eps)) and Richardson-extrapolated second differences.
    """
    from scipy.optimize import minimize_scalar

    p = DEFAULT_PARAMS if p is None else p
    if not is_semiconducting(ch):
        raise ValueError(f"({ch.n},{ch.m}) is metallic")
    K1, K2h, N, Tlen = _fold(ch, p)

    def band(mu_idx, kpar, branch):
        return graphene_band(mu_idx * K1 + kpar * K2h, p, branch)

    ks = np.linspace(-np.pi / Tlen, np.pi / Tlen, scan_points)
    kk = (np.arange(N)[:, None, None] * K1[None, None, :]
          + ks[None, :, None] * K2h[None, None, :])
    g = graphene_band(kk, p, "conduction") - graphene_band(kk, p, "valence")
    mu_idx, i = np.unravel_index(int(np.argmin(g)), g.shape)
    mu_idx = int(mu_idx)
    if 0 < i < len(ks) - 1:
        res = minimize_scalar(
            lambda kp: band(mu_idx, kp, "conduction")
            - band(mu_idx, kp, "valence"),
            bracket=(ks[i - 1], ks[i], ks[i + 1]))
        k0, gap = float(res.x), float(res.fun)
    else:
        k0, gap = float(ks[i]), float(g[mu_idx, i])
    if gap <= 0:
        raise RuntimeError("band-edge search failed to find a positive gap")

    def curvature(branch):
        def d2(h):
            return (band(mu_idx, k0 + h, branch)
                    - 2.0 * band(mu_idx, k0, branch)
                    + band(mu_idx, k0 - h, branch)) / h ** 2
        c1, c2 = d2(fd_step), d2(fd_step / 2.0)
        return (4.0 * c2 - c1) / 3.0

    m_e = p.a ** 2 / abs(curvature("conduction"))
    m_h = p.a ** 2 / abs(curvature("valence"))
    mu = 1.0 / (1.0 / m_e + 1.0 / m_h)
    return EffectiveMasses(m_e, m_h, mu, m_e / m_h, gap, mu_idx, k0)


def extended_masses(ch, p, subband, k_edge):
    """Band-edge gap and masses on line `subband` in np.longdouble.

    The lattice, reciprocal vectors and bands are built afresh in 64-bit
    mantissa arithmetic; the edge is refined from k_edge by Newton's
    method on Richardson-extrapolated central differences of the gap, and
    each band's curvature there is the Richardson table of central second
    differences at the five steps 2^-j / (20 r), j = 0..4.  The table
    converges to about 1e-13 relative on the 3-15 A species.
    """
    LD = np.longdouble
    two_pi, r3 = 2 * np.arccos(LD(-1)), np.sqrt(LD(3))
    a = LD(p.a)
    a1, a2 = a * np.array([r3 / 2, LD(0.5)]), a * np.array([r3 / 2, LD(-0.5)])
    b1 = two_pi / a * np.array([1 / r3, LD(1)])
    b2 = two_pi / a * np.array([1 / r3, LD(-1)])
    t1, t2, N = _translation(ch)
    K1 = (-t2 * b1 + t1 * b2) / N
    K2 = (ch.m * b1 - ch.n * b2) / N
    K2h = K2 / np.sqrt(K2 @ K2)
    # the line's base phases are reduced once, so that rounding of the
    # large phases k.a does not vary with kpar
    base = [np.fmod(subband * K1 @ d, two_pi) for d in (a1, a2)]
    slope = [K2h @ d for d in (a1, a2)]
    t, s, e2p = LD(p.t), LD(p.s), LD(p.e2p)

    def band(kpar, branch):
        w = abs(1 + np.exp(1j * (base[0] + kpar * slope[0]))
                + np.exp(1j * (base[1] + kpar * slope[1])))
        if branch == "conduction":
            return (e2p - t * w) / (1 - s * w)
        return (e2p + t * w) / (1 + s * w)

    def gap(kpar):
        return band(kpar, "conduction") - band(kpar, "valence")

    def richardson(diff, f, k):
        h0 = 1 / (20 * LD(radius(ch, p)))
        prev = []
        for j in range(5):
            row = [diff(f, k, h0 / 2 ** j)]
            for i in range(1, j + 1):
                row.append(row[-1] + (row[-1] - prev[i - 1]) / (4 ** i - 1))
            prev = row
        return prev[-1]

    def d1(f, k, h):
        return (f(k + h) - f(k - h)) / (2 * h)

    def d2(f, k, h):
        return (f(k + h) - 2 * f(k) + f(k - h)) / (h * h)

    k = LD(k_edge)
    for _ in range(4):
        k -= richardson(d1, gap, k) / richardson(d2, gap, k)
    m_e, m_h = [float(a * a / abs(richardson(d2, lambda x: band(x, b), k)))
                for b in ("conduction", "valence")]
    return EffectiveMasses(m_e, m_h, m_e * m_h / (m_e + m_h), m_e / m_h,
                           float(gap(k)), subband, float(k))


# --- solves assembled at r, without the families -----------------------------
def assemble_trion(basis, r, sigma, charge="-", quad=DEFAULT_QUAD):
    """Overlap, kinetic and Coulomb matrices of the three-body problem."""
    return MatrixTriple(assemble_overlap(basis),
                        assemble_kinetic(basis, sigma, r, charge),
                        assemble_potential(basis, r, quad))


def general_trion(r, sigma, charge, basis, quad=DEFAULT_QUAD):
    """(Spectrum, scaled basis) of the trion: scale the exponents to r,
    assemble at r and solve the generalized eigenproblem."""
    b = scale_exponents(basis, r)
    t = assemble_trion(b, r, sigma, charge, quad)
    return solve_generalized(t.K + t.U, t.S), b


def exchange_sectors(basis):
    """(T_sym, T_anti): orthonormal columns (e_a + e_b)/sqrt(2), or e_a
    when b = a, and (e_a - e_b)/sqrt(2), with b the image of basis
    function a = (i, j, k, l) under exchange of the two identical
    carriers: (j, i, k, l') with the labels of |sin(t1/2)| and
    |sin(t2/2)| swapped.  Built by loops; the exponent lists of the two
    carrier separations must be equal."""
    ax, L = basis.axial, basis.angular.size
    assert tuple(ax.alphas_i) == tuple(ax.alphas_j)
    n, nk = len(ax.alphas_i), len(ax.alphas_k)
    N = n * n * nk * L

    def index(i, j, k, l):
        return ((i * n + j) * nk + k) * L + l

    sym, anti = [], []
    for i in range(n):
        for j in range(n):
            for k in range(nk):
                for l in range(L):
                    a, b = index(i, j, k, l), index(j, i, k, (0, 2, 1, 3)[l])
                    if a > b:
                        continue
                    plus, minus = np.zeros(N), np.zeros(N)
                    plus[a] = minus[a] = 1.0
                    plus[b] += 1.0
                    minus[b] -= 1.0
                    sym.append(plus / np.linalg.norm(plus))
                    if a < b:
                        anti.append(minus / np.linalg.norm(minus))
    return np.array(sym).T, np.array(anti).T


def general_exciton(r, basis, quad=DEFAULT_QUAD):
    """(Spectrum, scaled basis) of the exciton assembled at r."""
    b = scale_exponents(basis, r)
    t = assemble_exciton(b, r, quad)
    return solve_generalized(t.K + t.U, t.S), b


def general_scf(r, basis, mixing=0.5, tol=1e-8, max_iter=200,
                quad=DEFAULT_QUAD):
    """(E_T_HF, orbital, iterations) of the single-orbital mean field on
    matrices assembled at r, one generalized solve per iteration."""
    b = scale_exponents(basis, r)
    t = assemble_exciton(b, r, quad)
    h = t.K + t.U
    n_ang = 1 if b.angular is AngularSet.CONSTANT else 2
    V4 = repulsion_tensor(b.axial.alphas_i, r, n_ang, quad)

    def lowest(F):
        spec = solve_generalized(F, t.S)
        return float(spec.energies[0]), spec.coefficients[:, 0]

    eps, chi = lowest(h)
    rho = np.outer(chi, chi)
    for it in range(1, max_iter + 1):
        prev = eps
        eps, chi = lowest(h + hartree_matrix(rho, V4))
        rho = mixing * np.outer(chi, chi) + (1.0 - mixing) * rho
        if abs(eps - prev) < tol:
            break
    VH = hartree_matrix(np.outer(chi, chi), V4)
    return 2.0 * eps - chi @ VH @ chi, chi, it


def hartree_matrix(rho, V4):
    """<a|V_H|b> of the density matrix rho (chi chi^T for one orbital chi)."""
    return np.einsum("abcd,cd->ab", V4, rho)


# --- Coulomb kernels as plain loops ------------------------------------------
def pair_weight(channel, l, lp, q):
    """Two-particle angular integral of one Coulomb channel at q, from
    `angular.pair_entry` (raw, over [-pi, pi]^2)."""
    coef, prof = angular.pair_entry(channel, l, lp)
    return coef * prof(q)


def power_corr_weight(p1, p2, q):
    """integral over (t1, t2) of |s(t1)|^p1 |s(t2)|^p2 exp(-q sin^2((t1-t2)/2)),
    from `angular.power_corr_terms`."""
    return sum(c * prof(q) for c, prof in angular.power_corr_terms(p1, p2))


def _pair_sums(al):
    """Sums al[i] + al[j] for i <= j and the (n, n) index into them."""
    n = len(al)
    idx = np.zeros((n, n), dtype=int)
    sums = []
    for i in range(n):
        for j in range(i, n):
            idx[i, j] = idx[j, i] = len(sums)
            sums.append(al[i] + al[j])
    return np.array(sums), idx


def loop_potential(basis, r, quad=DEFAULT_QUAD):
    """The Coulomb matrix U of `assemble_potential`, one `pair_weight`
    call per (channel, l, l') on the whole grid of unique pair sums: no
    chunks, no cached profiles and no channel taken from another."""
    ax = basis.axial
    L = basis.angular.size
    (Au, ia), (Bu, ib), (Cu, ic) = (_pair_sums(np.asarray(a, float))
                                    for a in (ax.alphas_i, ax.alphas_j,
                                              ax.alphas_k))
    _, wts, sinh2 = outer_rule(quad)
    A, B, C = Au[:, None, None], Bu[None, :, None], Cu[None, None, :]
    D = A * B + (A + B) * C
    norm = 1.0 / (4.0 * np.pi ** 2)
    Uu = np.zeros((len(Au), len(Bu), len(Cu), L, L))
    for channel, E, sgn in ((0, B + C, -1.0), (1, A + C, -1.0),
                            (2, (A + B) * np.ones_like(C), +1.0)):
        q = (4.0 * r * r * D / E)[..., None] * sinh2
        pref = sgn * norm * (4.0 / np.sqrt(np.pi)) * np.pi / np.sqrt(E)
        for l in range(L):
            for lp in range(L):
                J = pair_weight(channel, l, lp, q) @ wts
                Uu[..., l, lp] += pref * J
    n1, n2, n3 = len(ax.alphas_i), len(ax.alphas_j), len(ax.alphas_k)
    U = Uu[np.ix_(ia.ravel(), ib.ravel(), ic.ravel())]
    U = U.reshape(n1, n1, n2, n2, n3, n3, L, L)
    N = n1 * n2 * n3 * L
    return U.transpose(0, 2, 4, 6, 1, 3, 5, 7).reshape(N, N)


def loop_repulsion_tensor(alphas, r, n_ang, quad=DEFAULT_QUAD):
    """The tensor of `repulsion_tensor`, one `power_corr_weight` call per
    (a, b) and (la, lb, lc, ld)."""
    al = np.asarray(alphas, float)
    n = len(al)
    Q = al[:, None] + al[None, :]
    _, wts, sinh2 = outer_rule(quad)
    norm = 1.0 / (4.0 * np.pi ** 2)
    N = n * n_ang
    V = np.zeros((n, n_ang, n, n_ang, n, n_ang, n, n_ang))
    for a in range(n):
        for b in range(n):
            P = al[a] + al[b]
            D = P * Q
            E = P + Q
            q = (4.0 * r * r * D / E)[..., None] * sinh2
            pref = norm * (4.0 / np.sqrt(np.pi)) * np.pi / np.sqrt(E)
            for la in range(n_ang):
                for lb in range(n_ang):
                    for lc in range(n_ang):
                        for ld in range(n_ang):
                            W = power_corr_weight(la + lb, lc + ld, q)
                            V[a, la, b, lb, :, lc, :, ld] = pref * (W @ wts)
    return V.reshape(N, N, N, N)


# --- layouts that assembly replaced by in-order reads -----------------------
def fancy_scatter(table, ni, nj, nk):
    """The (N, N) matrix of a (p1, p2, p3, L, L) pair-sum table, row index
    (i, j, k, l): an 8-D fancy index by the `np.triu_indices` pair number
    of (i, i'), (j, j') and (k, k'), then a transposed copy."""
    def pair_number(n):
        iu, ju = np.triu_indices(n)
        back = np.empty((n, n), dtype=int)
        back[iu, ju] = back[ju, iu] = np.arange(len(iu))
        return back
    ia, ib, ic = map(pair_number, (ni, nj, nk))
    T = table[ia[:, :, None, None, None, None], ib[:, :, None, None], ic]
    N = ni * nj * nk * table.shape[-1]
    return T.transpose(0, 2, 4, 6, 1, 3, 5, 7).reshape(N, N)


def point_major_outer_sums(profs, t, quad):
    """`angular.outer_sums` with the coefficient block gathered by a
    trailing fancy index, which lays it out point-major (not C order)."""
    x = np.clip((np.log(t) - angular.LN_T[0]) / angular._WIDTH, 0.0,
                angular._PANELS)
    k = np.minimum(x.astype(np.intp), angular._PANELS - 1)
    s2 = 4.0 * (x - k) - 2.0
    c = np.stack([angular._table(p, quad) for p in profs], axis=1)[:, :, k]
    assert t.ndim < 2 or not c.flags.c_contiguous
    b1 = b2 = 0.0
    for ck in c[:0:-1]:
        b1, b2 = ck + s2 * b1 - b2, b1
    return c[0] + 0.5 * s2 * b1 - b2
