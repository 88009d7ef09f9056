"""Closed-form angular integrals on the ring.

All matrix elements of the cylinder Coulomb interaction reduce to 1D
outer integrals whose integrands are periodic integrals of the form

    integral over [-pi, pi] of  g(theta) * exp(-q sin^2(theta/2)) dtheta

for angular weights g built from the basis functions {1, |sin(theta/2)|}.
Every weight needed here has a closed form in terms of scaled Bessel
functions and the Dawson function, except one (the autocorrelation of
|sin(theta/2)|): its smooth remainder is piecewise Chebyshev in sqrt(q)
on q <= 200 and an asymptotic series in 1/q on the rest.  Assembly reads
the profiles' outer sums (`outer_sums`) from Chebyshev tables in ln t.
"""
import math
import pathlib
import sys
from functools import cache

import numpy as np

from .cache import source_digest
from .quadrature import DEFAULT_QUAD, outer_rule


def flat_weight(q):
    """integral exp(-q sin^2(t/2)) dt over [-pi, pi] = 2 pi e^{-q/2} I0(q/2)."""
    from scipy.special import i0e
    return 2.0 * np.pi * i0e(np.asarray(q, float) / 2.0)


def sin_weight(q):
    """integral |sin(t/2)| exp(-q sin^2(t/2)) dt = 4 F(sqrt(q)) / sqrt(q).

    F is the Dawson function; the q -> 0 limit is 4.
    """
    from scipy.special import dawsn
    q = np.asarray(q, float)
    small = q < 1e-12
    qs = np.where(small, 1.0, q)
    out = 4.0 * dawsn(np.sqrt(qs)) / np.sqrt(qs)
    return np.where(small, 4.0 * (1.0 - 2.0 * q / 3.0), out)


def sin2_weight(q):
    """integral sin^2(t/2) exp(-q sin^2(t/2)) dt = pi e^{-q/2} (I0 - I1)(q/2)."""
    from scipy.special import i0e, i1e
    q = np.asarray(q, float) / 2.0
    return np.pi * (i0e(q) - i1e(q))


def cos_weight(q):
    """integral cos(t) exp(-q sin^2(t/2)) dt (= flat - 2 sin2)."""
    return flat_weight(q) - 2.0 * sin2_weight(q)


# Autocorrelation of |sin(t/2)|: c(v) = 2 sin(|v|/2) + (pi - |v|) cos(v/2).
# The weighted integral splits into 2*sin_weight plus a smooth remainder
# 4 int_0^{pi/2} (pi - 2u) cos(u) exp(-q sin^2 u) du: on q <= 200, a
# degree-24 Chebyshev series in sqrt(q) on each panel between _Q_EDGES,
# fitted at Chebyshev points to a composite Gauss-Legendre rule (16 panels
# x 32 nodes on [0, pi/2]).
_Q_EDGES = np.array([0.0, 2.0, 8.0, 32.0, 200.0])


@cache     # fitted on first use: the shipped tables need no tail values
def _fit_tail(deg=24):
    """Centres, half-widths (in sqrt(q)) and coefficients of the panels."""
    from numpy.polynomial.chebyshev import chebfit, chebpts1
    from numpy.polynomial.legendre import leggauss
    x, w = leggauss(32)
    u = (np.arange(16)[:, None] + (x + 1.0) / 2.0).ravel() * (np.pi / 32.0)
    f = np.pi / 16.0 * (np.pi - 2.0 * u) * np.cos(u) * np.tile(w, 16)
    se, t = np.sqrt(_Q_EDGES), chebpts1(deg + 1)
    mid, half = (se[1:] + se[:-1]) / 2.0, (se[1:] - se[:-1]) / 2.0
    q = (mid[:, None, None] + half[:, None, None] * t[:, None]) ** 2
    vals = (np.exp(-q * np.sin(u) ** 2) * f).sum(axis=-1)
    return mid, half, chebfit(t, vals.T, deg).T


# Large-q asymptotics of the same remainder: substituting s = sin(u) gives
# 4 int_0^1 (pi - 2 asin s) exp(-q s^2) ds; the asin part expands into a
# series in 1/q whose terms fall off factorially fast for q > 200.
# polyval sums it by Horner's rule.
_ASY_C = np.array([math.comb(2 * k, k) / (4 ** k * (2 * k + 1))
                   * math.factorial(k) * 4.0 for k in range(13)])


def _sincorr_tail(q):
    """sincorr_weight - 2 sin_weight: the Chebyshev panels on q <= 200, the
    asymptotic series on the rest.  Every step is elementwise, so a value
    does not depend on the other points passed with it."""
    from numpy.polynomial.chebyshev import chebval
    from numpy.polynomial.polynomial import polyval
    q = np.asarray(q, float)
    mid, half, coefs = _fit_tail()
    panel = np.searchsorted(_Q_EDGES[1:], q)
    big = panel == len(coefs)       # q > 200
    tail = np.empty_like(q)
    for i, coef in enumerate(coefs):
        m = panel == i
        tail[m] = chebval((np.sqrt(q[m]) - mid[i]) / half[i], coef)
    x = 1.0 / q[big]
    tail[big] = 2.0 * np.pi ** 1.5 * np.sqrt(x) - x * polyval(x, _ASY_C)
    return tail


def sincorr_weight(q):
    """integral c(v) exp(-q sin^2(v/2)) dv with c the |sin| autocorrelation
    (= 2 sin + tail)."""
    return 2.0 * sin_weight(q) + _sincorr_tail(q)


# --- two-particle angular weight tables -------------------------------------
# Angular basis (0-based labels): 0 -> 1, 1 -> |sin(t1/2)|, 2 -> |sin(t2/2)|,
# 3 -> |sin((t1-t2)/2)|.  For a Coulomb factor carrying angle t1 the
# integral over (t1, t2) of phi_l phi_l' exp(-q sin^2(t1/2)) factorizes into
# the closed forms above; entries below give (coefficient, profile).
_T1 = {
    (0, 0): (2.0 * np.pi, flat_weight), (0, 1): (2.0 * np.pi, sin_weight),
    (0, 2): (4.0, flat_weight), (0, 3): (4.0, flat_weight),
    (1, 1): (2.0 * np.pi, sin2_weight), (1, 2): (4.0, sin_weight),
    (1, 3): (4.0, sin_weight), (2, 2): (np.pi, flat_weight),
    (2, 3): (1.0, sincorr_weight), (3, 3): (np.pi, flat_weight),
}
# Label maps that carry channel 0 (factor on t1) into each channel: channel
# 1 (factor on t2) swaps the particles, 1 <-> 2; channel 2 (factor on
# t1 - t2) substitutes t1 -> t1 - t2, t2 -> -t2, which maps 1 <-> 3.
CHANNEL_LABELS = ((0, 1, 2, 3), (0, 2, 1, 3), (0, 3, 2, 1))


def keeps_labels(channel, L):
    """Whether CHANNEL_LABELS[channel] maps the first L labels onto
    themselves."""
    return max(CHANNEL_LABELS[channel][:L]) < L


def exchange_factors(basis):
    """(P_ax, m): exchanging the identical carriers takes axial function
    (i, j, k) to P_ax of it, (j, i, k), and label l to m[l], with m =
    CHANNEL_LABELS[1].  None unless alphas_i == alphas_j and m keeps L."""
    ax, L = basis.axial, basis.angular.size
    if not (np.array_equal(ax.alphas_i, ax.alphas_j) and keeps_labels(1, L)):
        return None
    n, nk = len(ax.alphas_i), len(ax.alphas_k)
    a = np.arange(n * n * nk).reshape(n, n, nk)
    return a.transpose(1, 0, 2).ravel(), np.array(CHANNEL_LABELS[1][:L])


def exchange_permutation(basis):
    """P = P_ax (x) m on the flattened trion basis, (i, j, k, l) ->
    (j, i, k, m[l]); None without the symmetry."""
    f = exchange_factors(basis)
    return None if f is None else (f[0][:, None] * len(f[1]) + f[1]).ravel()


def pair_entry(channel, l, lp):
    """(coefficient, profile): coefficient * profile(q) is the raw integral
    over [-pi, pi]^2 of labels l, lp (0-based) for one Coulomb channel."""
    m = CHANNEL_LABELS[channel]
    return _T1[tuple(sorted((m[l], m[lp])))]


# --- single-particle convolution table (mean-field repulsion) ---------------
# Products of the one-particle angular set {1, |sin(t/2)|} give powers
# |sin(t/2)|^p with p in {0, 1, 2}.  The repulsion element needs the
# cross-correlation of two such powers against exp(-q sin^2(v/2)).
# Each is a + b cos v + c (|s| (*) |s|), with (a, b, c) below; for instance
# |s| (*) s^2 = 2 + (2/3) cos v and s^2 (*) s^2 = pi/2 + (pi/4) cos v.
_POWER_CORR = {(0, 0): (2.0 * np.pi, 0.0, 0.0), (0, 1): (4.0, 0.0, 0.0),
               (0, 2): (np.pi, 0.0, 0.0), (1, 1): (0.0, 0.0, 1.0),
               (1, 2): (2.0, 2.0 / 3.0, 0.0),
               (2, 2): (np.pi / 2.0, np.pi / 4.0, 0.0)}


def power_corr_terms(p1, p2):
    """(coefficient, profile) pairs: the sum of coefficient * profile(q) is
    the integral of |s(t1)|^p1 |s(t2)|^p2 exp(-q sin^2((t1-t2)/2))."""
    abc = _POWER_CORR.get((min(p1, p2), max(p1, p2)))
    if abc is None:
        raise ValueError(f"invalid angular powers ({p1}, {p2})")
    return tuple((c, prof) for c, prof in
                 zip(abc, (flat_weight, cos_weight, sincorr_weight)) if c)


# --- outer sums -------------------------------------------------------------
# The outer sum G(t) = sum_n w_n g(t sinh^2 u_n) of a profile g is tabulated
# on LN_T by a degree-_DEG Chebyshev series on each of _PANELS equal panels
# of ln t, interpolating at Chebyshev points.  The series are linear in g,
# so the tables of cos_weight and sincorr_weight are sums of base tables.
# Tables are keyed by profile name: a functools.wraps wrapper shares them.
# DEFAULT_QUAD's base tables ship in TABLE_FILE (`python -m trionlab.angular`
# writes it), read only while its digest matches _SOURCES.
LN_T, _PANELS, _DEG = (-20.0, 20.0), 40, 24
_WIDTH = (LN_T[1] - LN_T[0]) / _PANELS
_TABLES = {}
_BASE = ("flat_weight", "sin_weight", "sin2_weight", "_sincorr_tail")
TABLE_FILE = pathlib.Path(__file__).with_name("outer_tables.npz")
_SOURCES = ("__init__.py", "angular.py", "quadrature.py")   # with OUTER_ORDER


@cache
def _shipped():
    """The base tables in TABLE_FILE; {} if it is missing, corrupt or stale."""
    try:
        with np.load(TABLE_FILE) as f:
            if f["digest"] == source_digest(_SOURCES):
                return {name: f[name] for name in _BASE}
        problem = f"stale {TABLE_FILE}"
    except FileNotFoundError:
        return {}
    except Exception as exc:    # any unreadable file is refitted
        problem = f"corrupt {TABLE_FILE} ({type(exc).__name__}: {exc})"
    print(f"warning: ignoring {problem}; rewrite it with "
          "`PYTHONPATH=src python -m trionlab.angular`", file=sys.stderr)
    return {}


def _table(prof, quad):
    """Coefficients of G for (prof, quad), shape (_DEG + 1, _PANELS)."""
    key = (prof.__name__, quad)
    if key not in _TABLES:
        if key[0] == "cos_weight":
            c = _table(flat_weight, quad) - 2.0 * _table(sin2_weight, quad)
        elif key[0] == "sincorr_weight":
            c = 2.0 * _table(sin_weight, quad) + _table(_sincorr_tail, quad)
        elif quad == DEFAULT_QUAD and key[0] in _shipped():
            c = _shipped()[key[0]]
        else:   # numpy.polynomial loads only to fit a table
            from numpy.polynomial.chebyshev import chebfit, chebpts1
            _, wts, sinh2 = outer_rule(quad)
            s = chebpts1(_DEG + 1)
            ln_t = LN_T[0] + _WIDTH * (np.arange(_PANELS)[:, None]
                                       + (s + 1.0) / 2.0)
            G = prof(np.exp(ln_t)[..., None] * sinh2) @ wts
            c = chebfit(s, G.T, _DEG)
        _TABLES[key] = c
    return _TABLES[key]


def outer_sums(profs, t, quad):
    """G(t) = sum_n w_n prof(t sinh^2 u_n) over the outer rule of `quad` for
    each of `profs`, shape (len(profs),) + t.shape, by one Clenshaw
    recurrence on all profiles and points; t must lie in exp(LN_T)."""
    t = np.asarray(t, float)
    lo, hi = np.exp(LN_T)
    if not np.all((t >= lo) & (t <= hi)):
        raise ValueError(f"Coulomb argument t = 4 r^2 D/E reaches "
                         f"[{t.min():.4g}, {t.max():.4g}], outside the "
                         f"tabulated [{lo:.4g}, {hi:.4g}]")
    # panel coordinate, clipped against the rounding of log(t) at the ends
    x = np.clip((np.log(t) - LN_T[0]) / _WIDTH, 0.0, _PANELS)
    k = np.minimum(x.astype(np.intp), _PANELS - 1)
    s2 = 4.0 * (x - k) - 2.0                # twice the point in [-1, 1]
    # take, not [:, :, k]: C order, so each Clenshaw step reads in order
    c = np.take(np.stack([_table(p, quad) for p in profs], axis=1), k, -1)
    b1 = b2 = 0.0
    for ck in c[:0:-1]:
        b1, b2 = ck + s2 * b1 - b2, b1
    return c[0] + 0.5 * s2 * b1 - b2


if __name__ == "__main__":
    _shipped = dict     # fit every table, whatever TABLE_FILE holds
    np.savez(TABLE_FILE, digest=source_digest(_SOURCES),
             **{name: _table(globals()[name], DEFAULT_QUAD) for name in _BASE})
