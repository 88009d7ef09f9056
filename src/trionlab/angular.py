"""Closed-form angular integrals on the ring.

All matrix elements of the cylinder Coulomb interaction reduce to 1D
outer integrals whose integrands are periodic integrals of the form

    integral over [-pi, pi] of  g(theta) * exp(-q sin^2(theta/2)) dtheta

for angular weights g built from the basis functions {1, |sin(theta/2)|}.
Every weight needed here has a closed form in terms of scaled Bessel
functions and the Dawson function, except one (the autocorrelation of
|sin(theta/2)|): its smooth remainder is piecewise Chebyshev in sqrt(q)
on q <= 200 and an asymptotic series in 1/q on the rest.
"""
import math

import numpy as np
from numpy.polynomial.chebyshev import chebfit, chebpts1, chebval
from numpy.polynomial.legendre import leggauss
from numpy.polynomial.polynomial import polyval
from scipy.special import dawsn, i0e, i1e


def flat_weight(q):
    """integral exp(-q sin^2(t/2)) dt over [-pi, pi] = 2 pi e^{-q/2} I0(q/2)."""
    return 2.0 * np.pi * i0e(np.asarray(q, float) / 2.0)


def sin_weight(q):
    """integral |sin(t/2)| exp(-q sin^2(t/2)) dt = 4 F(sqrt(q)) / sqrt(q).

    F is the Dawson function; the q -> 0 limit is 4.
    """
    q = np.asarray(q, float)
    small = q < 1e-12
    qs = np.where(small, 1.0, q)
    out = 4.0 * dawsn(np.sqrt(qs)) / np.sqrt(qs)
    return np.where(small, 4.0 * (1.0 - 2.0 * q / 3.0), out)


def sin2_weight(q):
    """integral sin^2(t/2) exp(-q sin^2(t/2)) dt = pi e^{-q/2} (I0 - I1)(q/2)."""
    q = np.asarray(q, float) / 2.0
    return np.pi * (i0e(q) - i1e(q))


def cos_weight(q):
    """integral cos(t) exp(-q sin^2(t/2)) dt (= flat - 2 sin2)."""
    return shared_profile(cos_weight, q, {})


# Autocorrelation of |sin(t/2)|: c(v) = 2 sin(|v|/2) + (pi - |v|) cos(v/2).
# The weighted integral splits into 2*sin_weight plus a smooth remainder
# 4 int_0^{pi/2} (pi - 2u) cos(u) exp(-q sin^2 u) du: on q <= 200, a
# degree-24 Chebyshev series in sqrt(q) on each panel between _Q_EDGES,
# fitted at Chebyshev points to a composite Gauss-Legendre rule (16 panels
# x 32 nodes on [0, pi/2]).
_Q_EDGES = np.array([0.0, 2.0, 8.0, 32.0, 200.0])


def _fit_tail(deg=24):
    """Centres, half-widths (in sqrt(q)) and coefficients of the panels."""
    x, w = leggauss(32)
    u = (np.arange(16)[:, None] + (x + 1.0) / 2.0).ravel() * (np.pi / 32.0)
    f = np.pi / 16.0 * (np.pi - 2.0 * u) * np.cos(u) * np.tile(w, 16)
    se, t = np.sqrt(_Q_EDGES), chebpts1(deg + 1)
    mid, half = (se[1:] + se[:-1]) / 2.0, (se[1:] - se[:-1]) / 2.0
    q = (mid[:, None, None] + half[:, None, None] * t[:, None]) ** 2
    vals = (np.exp(-q * np.sin(u) ** 2) * f).sum(axis=-1)
    return mid, half, chebfit(t, vals.T, deg).T


_MID, _HALF, _TAIL_COEF = _fit_tail()


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
    q = np.asarray(q, float)
    panel = np.searchsorted(_Q_EDGES[1:], q)
    big = panel == len(_TAIL_COEF)  # q > 200
    tail = np.empty_like(q)
    for i, coef in enumerate(_TAIL_COEF):
        m = panel == i
        tail[m] = chebval((np.sqrt(q[m]) - _MID[i]) / _HALF[i], coef)
    x = 1.0 / q[big]
    tail[big] = 2.0 * np.pi ** 1.5 * np.sqrt(x) - x * polyval(x, _ASY_C)
    return tail


def sincorr_weight(q):
    """integral c(v) exp(-q sin^2(v/2)) dv with c the |sin| autocorrelation
    (= 2 sin + tail)."""
    return shared_profile(sincorr_weight, q, {})


def shared_profile(prof, q, memo):
    """prof(q), kept in `memo` (profile -> values on this q) so that each
    closed form is evaluated once per q.  cos_weight and sincorr_weight are
    the sums written here, of the profile values already in `memo`."""
    if prof not in memo:
        if prof is cos_weight:
            memo[prof] = shared_profile(flat_weight, q, memo) \
                - 2.0 * shared_profile(sin2_weight, q, memo)
        elif prof is sincorr_weight:
            memo[prof] = 2.0 * shared_profile(sin_weight, q, memo) \
                + _sincorr_tail(q)
        else:
            memo[prof] = prof(q)
    return memo[prof]


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


def exchange_permutation(basis):
    """Index map P of exchanging the two identical carriers on the
    flattened trion basis: basis function a = (i, j, k, l) goes to
    Pa = (j, i, k, m[l]) with m = CHANNEL_LABELS[1].  None unless the
    basis has that symmetry: alphas_i == alphas_j and m keeps the
    angular set.  P is an involution."""
    ax, L = basis.axial, basis.angular.size
    if not (np.array_equal(ax.alphas_i, ax.alphas_j) and keeps_labels(1, L)):
        return None
    n, nk = len(ax.alphas_i), len(ax.alphas_k)
    a = np.arange(n * n * nk * L).reshape(n, n, nk, L)
    return a.transpose(1, 0, 2, 3)[..., list(CHANNEL_LABELS[1][:L])].ravel()


def pair_entry(channel, l, lp):
    """(coefficient, profile) with pair_weight = coefficient * profile(q)."""
    m = CHANNEL_LABELS[channel]
    return _T1[tuple(sorted((m[l], m[lp])))]


def pair_weight(channel, l, lp, q):
    """Two-particle angular integral for one Coulomb channel.

    channel 0/1: attraction carrying angle theta_1 / theta_2;
    channel 2: repulsion carrying theta_1 - theta_2.
    Labels l, lp are 0-based.  Result is the raw integral over
    [-pi, pi]^2 (no 1/(2 pi)^2 normalization).
    """
    coef, prof = pair_entry(channel, l, lp)
    return coef * prof(q)


# --- single-particle convolution table (mean-field repulsion) ---------------
# Products of the one-particle angular set {1, |sin(t/2)|} give powers
# |sin(t/2)|^p with p in {0, 1, 2}.  The repulsion element needs the
# cross-correlation of two such powers against exp(-q sin^2(v/2)).
def power_corr_weight(p1, p2, q, memo=None):
    """integral over (t1, t2) of |s(t1)|^p1 |s(t2)|^p2 exp(-q sin^2((t1-t2)/2));
    calls that pass one `memo` share the profiles on q (`shared_profile`)."""
    key = (min(p1, p2), max(p1, p2))
    memo = {} if memo is None else memo
    if key == (1, 1):
        return shared_profile(sincorr_weight, q, memo)
    a0 = shared_profile(flat_weight, q, memo)
    if key == (0, 0):
        return 2.0 * np.pi * a0
    if key == (0, 1):
        return 4.0 * a0
    if key == (0, 2):
        return np.pi * a0
    if key == (1, 2):
        # |s| (*) s^2 = 2 + (2/3) cos v
        return 2.0 * a0 + (2.0 / 3.0) * shared_profile(cos_weight, q, memo)
    if key == (2, 2):
        # s^2 (*) s^2 = pi/2 + (pi/4) cos v
        return (np.pi / 2.0) * a0 \
            + (np.pi / 4.0) * shared_profile(cos_weight, q, memo)
    raise ValueError(f"invalid angular powers ({p1}, {p2})")
