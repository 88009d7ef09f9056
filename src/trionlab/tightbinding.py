"""Nearest-neighbour tight-binding bands of graphene with zone folding.

Non-orthogonal two-band model: E(k) = (e2p -/+ t w) / (1 -/+ s w) with
w(k) = |1 + e^{i k.a1} + e^{i k.a2}|, folded onto nanotube subbands via
the standard chiral/translation vector construction.  Band curvature is
converted to an effective mass in units of m0 using the dimensionless
wavevector k*a, i.e. m/m0 = a^2 / (d^2E/dk^2 [eV A^2]) with the energy
scale hbar^2/(m0 a^2) set to 1 eV (see README on conventions).
"""
from dataclasses import dataclass
from math import gcd

import numpy as np

EV_ANGSTROM_PER_HBAR = 1.602176634e-19 * 1e-10 / 1.054571817e-34  # m/s


@dataclass(frozen=True)
class TightBindingParams:
    t: float = -2.89      # hopping, eV
    s: float = 0.1        # overlap
    a: float = 2.46       # graphene lattice constant, Angstrom
    e2p: float = 0.0      # on-site energy, eV

    def __post_init__(self):
        if self.a <= 0:
            raise ValueError("lattice constant must be positive")
        if not 0 <= self.s < 1:
            raise ValueError("overlap s must be in [0, 1)")


@dataclass(frozen=True)
class ChiralIndex:
    n: int
    m: int

    def __post_init__(self):
        if self.n < self.m or self.m < 0 or self.n <= 0:
            raise ValueError("chiral index requires n >= m >= 0, n > 0")


@dataclass(frozen=True)
class EffectiveMasses:
    m_e: float
    m_h: float
    mu: float
    sigma: float
    gap: float          # eV
    subband: int
    k_edge: float       # 1/Angstrom along the subband


DEFAULT_PARAMS = TightBindingParams()


def is_semiconducting(ch):
    return (ch.n - ch.m) % 3 != 0


def radius(ch, p=DEFAULT_PARAMS):
    """Tube radius in Angstrom: a sqrt(n^2 + nm + m^2) / (2 pi)."""
    n, m = ch.n, ch.m
    return p.a * np.sqrt(n * n + n * m + m * m) / (2.0 * np.pi)


def _lattice(p):
    a1 = p.a * np.array([np.sqrt(3.0) / 2.0, 0.5])
    a2 = p.a * np.array([np.sqrt(3.0) / 2.0, -0.5])
    B = 2.0 * np.pi * np.linalg.inv(np.array([a1, a2]).T)
    return a1, a2, B[0], B[1]


def _w(k, a1, a2):
    f = 1.0 + np.exp(1j * (k @ a1)) + np.exp(1j * (k @ a2))
    return np.abs(f)


def graphene_band(k, p=DEFAULT_PARAMS, branch="conduction"):
    """Band energy at wavevector(s) k (shape (..., 2), 1/Angstrom)."""
    a1, a2, _, _ = _lattice(p)
    k = np.asarray(k, float)
    w = _w(k, a1, a2)
    if branch == "conduction":
        return (p.e2p - p.t * w) / (1.0 - p.s * w)
    if branch == "valence":
        return (p.e2p + p.t * w) / (1.0 + p.s * w)
    raise ValueError(f"unknown branch {branch!r}")


def _translation(ch):
    """(t1, t2, N): T = t1 a1 + t2 a2 and the number N of cutting lines."""
    n, m = ch.n, ch.m
    dR = gcd(2 * m + n, 2 * n + m)
    N = 2 * (n * n + n * m + m * m) // dR
    return (2 * m + n) // dR, -(2 * n + m) // dR, N


def _fold(ch, p):
    """Allowed-line construction: returns (K1, K2hat, N, Tlen)."""
    a1, a2, b1, b2 = _lattice(p)
    n, m = ch.n, ch.m
    t1, t2, N = _translation(ch)
    T = t1 * a1 + t2 * a2
    K1 = (-t2 * b1 + t1 * b2) / N
    K2 = (m * b1 - n * b2) / N
    return K1, K2 / np.linalg.norm(K2), N, np.linalg.norm(T)


def cutting_lines(ch, p=DEFAULT_PARAMS):
    """(N, Tlen): the number of cutting lines and the length of the
    translation vector; each line runs over kpar in [-pi/Tlen, pi/Tlen]."""
    _, _, N, Tlen = _fold(ch, p)
    return N, Tlen


def _line_k(K1, K2h, mu, kpar):
    """Wavevector mu K1 + kpar K2hat on cutting line(s) mu (broadcast)."""
    return np.asarray(mu)[..., None] * K1 + np.asarray(kpar)[..., None] * K2h


def _edge_lines(ch):
    """Cutting lines next to K and K' (at most 4 indices, ascending).

    The gap grows with |f(k)|, zero only at K and K'.  In the basis
    (K1, K2), K = (2 b1 + b2)/3 and K' = (b1 + 2 b2)/3 sit at 3 alpha =
    2n + m, n + 2m and 3 beta = 2 t1 + t2, t1 + 2 t2.  The reciprocal
    vector u b1 + v b2 with u t1 + v t2 = 1 moves (alpha, beta) by
    (u n + v m, 1); round(beta) such moves bring beta into the scanned
    window [-1/2, 1/2], between lines floor(alpha) and ceil(alpha) mod N.
    """
    n, m = ch.n, ch.m
    t1, t2, N = _translation(ch)
    u = pow(t1, -1, -t2)          # extended Euclid: u t1 = 1 mod |t2|
    v = (1 - u * t1) // t2
    lines = set()
    for a3, b3 in ((2 * n + m, 2 * t1 + t2), (n + 2 * m, t1 + 2 * t2)):
        a3 -= 3 * ((b3 + 1) // 3) * (u * n + v * m)   # round(b3 / 3)
        lines.update((a3 // 3 % N, -(-a3 // 3) % N))
    return np.array(sorted(lines))


def subband_energies(ch, mu_idx, kpar, p=DEFAULT_PARAMS):
    """Conduction/valence energies along allowed line mu_idx at kpar."""
    K1, K2h, N, _ = _fold(ch, p)
    if not 0 <= mu_idx < N:
        raise ValueError(f"subband index out of range 0..{N - 1}")
    k = _line_k(K1, K2h, mu_idx, np.asarray(kpar, float))
    return (graphene_band(k, p, "conduction"), graphene_band(k, p, "valence"))


def effective_masses(ch, p=DEFAULT_PARAMS, scan_points=2001, fd_step=1e-3):
    """Band-edge effective masses of a semiconducting tube.

    Scans the cutting lines next to K and K' (`_edge_lines`) for the
    direct gap, refines it by golden-section search, then extracts
    curvatures by Richardson-extrapolated central differences.
    """
    from scipy.optimize import minimize_scalar   # off the CLI import path

    if not is_semiconducting(ch):
        raise ValueError(f"({ch.n},{ch.m}) is metallic")
    K1, K2h, _, Tlen = _fold(ch, p)

    def band(mu_idx, kpar, branch):
        return graphene_band(_line_k(K1, K2h, mu_idx, kpar), p, branch)

    # dense scan of the candidate lines at once, then refine the winner
    lines = _edge_lines(ch)
    ks = np.linspace(-np.pi / Tlen, np.pi / Tlen, scan_points)
    kk = _line_k(K1, K2h, lines[:, None], ks)
    g = graphene_band(kk, p, "conduction") - graphene_band(kk, p, "valence")
    row, i = np.unravel_index(int(np.argmin(g)), g.shape)
    mu_idx = int(lines[row])
    if 0 < i < len(ks) - 1:
        res = minimize_scalar(
            lambda kp: band(mu_idx, kp, "conduction")
            - band(mu_idx, kp, "valence"),
            bracket=(ks[i - 1], ks[i], ks[i + 1]))
        k0, gap = float(res.x), float(res.fun)
    else:
        k0, gap = float(ks[i]), float(g[row, i])
    if gap <= 0:
        raise RuntimeError("band-edge search failed to find a positive gap")

    def curvature(branch):
        def d2(h):
            return (band(mu_idx, k0 + h, branch) - 2.0 * band(mu_idx, k0, branch)
                    + band(mu_idx, k0 - h, branch)) / h ** 2
        c1, c2 = d2(fd_step), d2(fd_step / 2.0)
        return (4.0 * c2 - c1) / 3.0

    m_e = p.a ** 2 / abs(curvature("conduction"))
    m_h = p.a ** 2 / abs(curvature("valence"))
    mu = 1.0 / (1.0 / m_e + 1.0 / m_h)
    return EffectiveMasses(m_e, m_h, mu, m_e / m_h, gap, mu_idx, k0)


def fermi_velocity(p=DEFAULT_PARAMS):
    """Graphene band slope at the gapless point, as a converged limit (m/s).

    At the K point w = 0, so the slope is sqrt(3) |t| a / 2 exactly; the
    Richardson sequence below confirms the limit numerically.  The default
    parameters give 9.354e5 m/s (see README, "Known limitation").
    """
    a1, a2, b1, b2 = _lattice(p)
    K = (2.0 * b1 + b2) / 3.0
    d = b1 / np.linalg.norm(b1)

    def slope(h):
        return (graphene_band(K + h * d, p, "conduction")
                - graphene_band(K, p, "conduction")) / h

    s1, s2, s4 = slope(1e-4), slope(2e-4), slope(4e-4)
    r1, r2 = 2.0 * s1 - s2, 2.0 * s2 - s4   # cancel the O(h) term
    refined = (4.0 * r1 - r2) / 3.0         # cancel the O(h^2) term
    return abs(refined) * EV_ANGSTROM_PER_HBAR


def enumerate_species(r_min, r_max, p=DEFAULT_PARAMS):
    """Semiconducting (n, m) with radius in [r_min, r_max] Angstrom.

    Canonical representatives n >= m >= 0; sorted by radius then (n, m).
    """
    # n^2 + nm + m^2 >= n^2 bounds n by 2 pi r_max / a; the +1 absorbs
    # rounding for a zigzag tube exactly at r_max
    n_max = int(2.0 * np.pi * r_max / p.a) + 1
    out = []
    for n in range(1, n_max + 1):
        for m in range(0, n + 1):
            ch = ChiralIndex(n, m)
            if not is_semiconducting(ch):
                continue
            r = radius(ch, p)
            if r_min <= r <= r_max:
                out.append(ch)
    out.sort(key=lambda c: (radius(c, p), c.n, c.m))
    return out
