"""Nearest-neighbour tight-binding bands of graphene with zone folding.

Non-orthogonal two-band model: E(k) = (e2p -/+ t w) / (1 -/+ s w) with
w(k) = |1 + e^{i k.a1} + e^{i k.a2}|, folded onto nanotube subbands via
the standard chiral/translation vector construction.  The band edge and
its exact curvature come from W = w^2 (`effective_masses`); curvature is
converted to an effective mass in units of m0 using the dimensionless
wavevector k*a, i.e. m/m0 = a^2 / (d^2E/dk^2 [eV A^2]) with the energy
scale hbar^2/(m0 a^2) set to 1 eV (see README on conventions).
"""
import cmath
import math
from dataclasses import dataclass
from math import gcd

EV_ANGSTROM_PER_HBAR = 1.602176634e-19 * 1e-10 / 1.054571817e-34  # m/s


@dataclass(frozen=True)
class TightBindingParams:
    t: float = -2.89      # hopping, eV
    s: float = 0.1        # overlap
    a: float = 2.46       # graphene lattice constant, Angstrom
    e2p: float = 0.0      # on-site energy, eV

    def __post_init__(self):
        for name in ("t", "s", "a", "e2p"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"tight-binding parameter {name} must be "
                                 f"finite, got {getattr(self, name)!r}")
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
    return p.a * math.sqrt(n * n + n * m + m * m) / (2.0 * math.pi)


def _lattice(p):
    import numpy as np   # the band helpers alone use numpy
    a1 = p.a * np.array([np.sqrt(3.0) / 2.0, 0.5])
    a2 = p.a * np.array([np.sqrt(3.0) / 2.0, -0.5])
    B = 2.0 * np.pi * np.linalg.inv(np.array([a1, a2]).T)
    return a1, a2, B[0], B[1]


def graphene_band(k, p=DEFAULT_PARAMS, branch="conduction"):
    """Band energy at wavevector(s) k (shape (..., 2), 1/Angstrom)."""
    import numpy as np
    a1, a2, _, _ = _lattice(p)
    k = np.asarray(k, float)
    w = np.abs(1.0 + np.exp(1j * (k @ a1)) + np.exp(1j * (k @ a2)))
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
    import numpy as np
    _, _, b1, b2 = _lattice(p)
    t1, t2, _ = _translation(ch)
    N, Tlen = cutting_lines(ch, p)
    K2 = (ch.m * b1 - ch.n * b2) / N
    return (-t2 * b1 + t1 * b2) / N, K2 / np.linalg.norm(K2), N, Tlen


def cutting_lines(ch, p=DEFAULT_PARAMS):
    """(N, Tlen): the number of cutting lines and the length |T| = a
    sqrt(t1^2 + t1 t2 + t2^2) of the translation vector; each line runs
    over kpar in [-pi/Tlen, pi/Tlen]."""
    t1, t2, N = _translation(ch)
    return N, p.a * math.sqrt(t1 * t1 + t1 * t2 + t2 * t2)


def subband_energies(ch, mu_idx, kpar, p=DEFAULT_PARAMS):
    """Conduction/valence energies along allowed line mu_idx at kpar."""
    import numpy as np
    K1, K2h, N, _ = _fold(ch, p)
    if not 0 <= mu_idx < N:
        raise ValueError(f"subband index out of range 0..{N - 1}")
    k = mu_idx * K1 + np.asarray(kpar, float)[..., None] * K2h
    return (graphene_band(k, p, "conduction"), graphene_band(k, p, "valence"))


def _edge_lines(ch):
    """The two cutting lines next to K, and 3 beta, K's offset along them.

    In the basis (K1, K2), K = (2 b1 + b2)/3 is at 3 alpha = 2n + m, 3 beta
    = 2 t1 + t2.  Subtracting round(beta) times u b1 + v b2 (u t1 + v t2 =
    1), which is (u n + v m, 1) in that basis, brings beta into [-1/2, 1/2]
    between lines floor(alpha) and ceil(alpha) mod N.  K1 is orthogonal to
    K2, so both lines pass closest to K at kpar = 2 pi beta / Tlen."""
    n, m = ch.n, ch.m
    t1, t2, N = _translation(ch)
    u = pow(t1, -1, -t2)          # extended Euclid: u t1 = 1 mod |t2|
    v = (1 - u * t1) // t2
    shift = (2 * t1 + t2 + 1) // 3          # round(beta)
    a3 = 2 * n + m - 3 * shift * (u * n + v * m)
    return (a3 // 3 % N, -(-a3 // 3) % N), 2 * t1 + t2 - 3 * shift


def _line_minimum(ch, mu, x):
    """(w, line, x, W'') at the minimum of W = |f|^2 on line mu, by
    Newton's method on W' = 0 from x = kpar Tlen / (2 pi); there k.a1 =
    2 pi (-t2 mu + m x) / N and k.a2 = 2 pi (t1 mu - n x) / N, integer
    parts mod N.  (line, x) is the smaller of (mu, x) and its time-
    reversed image (N - mu mod N, -x)."""
    t1, t2, N = _translation(ch)
    c = 2.0 * math.pi / N
    r1, r2, l1, l2 = -t2 * mu % N, t1 * mu % N, ch.m, -ch.n
    step = math.inf
    for _ in range(30):
        e1 = cmath.exp(1j * c * (r1 + l1 * x))
        e2 = cmath.exp(1j * c * (r2 + l2 * x))
        f = 1.0 + e1 + e2
        f1 = 1j * c * (l1 * e1 + l2 * e2)
        f2 = -c * c * (l1 * l1 * e1 + l2 * l2 * e2)
        W1 = 2.0 * (f.conjugate() * f1).real
        W2 = 2.0 * (abs(f1) ** 2 + (f.conjugate() * f2).real)
        if not W2 > 0.0:            # not at a minimum: give up
            break
        if abs(step) <= 1e-10:      # x is now off by O(step^2)
            return (abs(f), *min((mu, x), ((-mu) % N, -x)), W2)
        step = W1 / W2
        x -= step
    raise RuntimeError(f"band-edge Newton found no minimum on line {mu} of "
                       f"({ch.n},{ch.m}) (x={x!r}, W''={W2!r})")


def effective_masses(ch, p=DEFAULT_PARAMS):
    """Band-edge effective masses of a semiconducting tube.

    Both bands are monotone in w = |f(k)|, which vanishes only at K and
    K', so the direct gap E_c(w) - E_v(w) = 2 w (s e2p - t) / (1 - s^2 w^2)
    and the band edge sit at the minimum of W = w^2 on a cutting line next
    to K (`_edge_lines`).  On each of the two, Newton's method solves W' =
    0 from the point nearest K; the edge is on the one with the smaller W.
    As W' = 0 there, E'' = E_w W'' / (2 w) exactly, with E_w = (s e2p -
    t)/(1 - s w)^2 for the conduction and (t - s e2p)/(1 + s w)^2 for the
    valence band.

    K' = b1 + b2 - K is the time-reversed image of K, with its edge on
    line N - mu at -k; of the two images the smaller (line, k) is reported:
    the lower line, and on a line that is its own image k <= 0."""
    if not is_semiconducting(ch):
        raise ValueError(f"({ch.n},{ch.m}) is metallic")
    lines, b3 = _edge_lines(ch)
    w, line, x, W2 = min(_line_minimum(ch, mu, b3 / 3.0) for mu in lines)
    E_w = p.s * p.e2p - p.t
    gap = 2.0 * w * E_w / (1.0 - (p.s * w) ** 2)
    if not gap > 0:
        raise RuntimeError("band-edge search failed to find a positive gap")
    scale = cutting_lines(ch, p)[1] / (2.0 * math.pi)
    # |E''| (1 -/+ s w)^2 of either band, in kpar = x / scale
    curv = E_w * W2 * scale ** 2 / (2.0 * w)
    m_e, m_h = (p.a ** 2 * (1.0 + sg * p.s * w) ** 2 / curv for sg in (-1, 1))
    mu = 1.0 / (1.0 / m_e + 1.0 / m_h)
    return EffectiveMasses(m_e, m_h, mu, m_e / m_h, gap, line, x / scale)


def fermi_velocity(p=DEFAULT_PARAMS):
    """Band slope at the gapless point K (m/s): there w = 0, |grad w| =
    sqrt(3) a / 2 and |dE/dw| = |t - s e2p|, so the slope is sqrt(3) |t -
    s e2p| a / 2 eV*Angstrom, sqrt(3) |t| a / 2 at e2p = 0.  The defaults
    give 9.354e5 m/s (see README, "Known limitation")."""
    return math.sqrt(3.0) * abs(p.t - p.s * p.e2p) * p.a / 2.0 \
        * EV_ANGSTROM_PER_HBAR


def enumerate_species(r_min, r_max, p=DEFAULT_PARAMS):
    """Semiconducting (n, m) with radius in [r_min, r_max] Angstrom.

    Canonical representatives n >= m >= 0; sorted by radius then (n, m).
    """
    if not (math.isfinite(r_min) and math.isfinite(r_max) and r_min <= r_max):
        raise ValueError("species range needs finite r_min <= r_max, got "
                         f"r_min {r_min}, r_max {r_max}")
    # n^2 + nm + m^2 >= n^2 bounds n by 2 pi r_max / a; the +1 absorbs
    # rounding for a zigzag tube exactly at r_max
    n_max = int(2.0 * math.pi * r_max / p.a) + 1
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
