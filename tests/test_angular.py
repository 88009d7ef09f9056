"""Closed-form angular integrals against direct adaptive quadrature."""
import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import i0e, i1e

from trionlab import angular
from trionlab.cache import source_digest
from trionlab.quadrature import DEFAULT_QUAD, QuadratureSpec, outer_rule

# The tail of sincorr_weight is a Chebyshev series on the q panels with
# edges 0, 2, 8, 32 and 200, and an asymptotic series for q > 200.
QVALS = [0.0, 1e-6, 0.01, 0.3, 1.0, 2.0, 4.7, 8.0, 25.0, 32.0, 199.0,
         float(np.nextafter(200.0, 0.0)), 200.0,
         float(np.nextafter(200.0, np.inf)), 400.0, 2.5e4]
# Each panel edge and its two floating-point neighbours.
EDGE_QVALS = [float(v) for e in (2.0, 8.0, 32.0, 200.0)
              for v in (np.nextafter(e, 0.0), e, np.nextafter(e, np.inf))]


def ring_integral(g, q):
    # break point at t = 0: for large q the weight is a narrow peak there
    val, _ = quad(lambda t: g(t) * np.exp(-q * np.sin(t / 2.0) ** 2),
                  -np.pi, np.pi, points=[0.0], limit=200,
                  epsabs=1e-13, epsrel=1e-12)
    return val


@pytest.mark.parametrize("q", QVALS)
def test_flat_weight(q):
    assert angular.flat_weight(q) == pytest.approx(
        ring_integral(lambda t: 1.0, q), rel=1e-10)


@pytest.mark.parametrize("q", QVALS)
def test_sin_weight(q):
    assert angular.sin_weight(q) == pytest.approx(
        ring_integral(lambda t: abs(np.sin(t / 2.0)), q), rel=1e-10)


@pytest.mark.parametrize("q", QVALS)
def test_sin2_weight(q):
    assert angular.sin2_weight(q) == pytest.approx(
        ring_integral(lambda t: np.sin(t / 2.0) ** 2, q), rel=1e-10)


@pytest.mark.parametrize("q", QVALS)
def test_cos_weight(q):
    assert angular.cos_weight(q) == pytest.approx(
        ring_integral(np.cos, q), rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("q", QVALS)
def test_sincorr_weight(q):
    def corr(v):
        av = abs(v)
        return 2.0 * np.sin(av / 2.0) + (np.pi - av) * np.cos(v / 2.0)

    assert angular.sincorr_weight(q) == pytest.approx(
        ring_integral(corr, q), rel=1e-10)



def mp_sincorr_tail(q):
    """4 int_0^{pi/2} (pi - 2u) cos(u) exp(-q sin^2 u) du to 30 digits,
    split where the peak at u = 0 (width 1/sqrt(q)) falls off."""
    with mpmath.workdps(30):
        q = mpmath.mpf(q)
        pts = [mpmath.mpf(0)]
        if q > 1:
            pts += [c / mpmath.sqrt(q) for c in (1, 3, 8)
                    if c / mpmath.sqrt(q) < mpmath.pi / 2]
        pts.append(mpmath.pi / 2)
        return 4 * mpmath.quad(lambda u: (mpmath.pi - 2 * u) * mpmath.cos(u)
                               * mpmath.exp(-q * mpmath.sin(u) ** 2), pts)


@pytest.mark.parametrize("q", [0.0, 1e-6, 0.5, 4.7, 25.0, 199.0]
                         + EDGE_QVALS + [350.0, 1e3, 1e6])
def test_sincorr_tail_against_mpmath(q):
    want = mp_sincorr_tail(q)
    got = angular._sincorr_tail(q)
    assert abs(float((got - want) / want)) < 5e-15

def dbl_ring_integral(g, carrier, q):
    """integral of g(t1,t2) exp(-q sin^2(carrier/2)) over [-pi, pi]^2."""
    def inner(t2):
        # break points at the kinks of |sin(./2)| factors
        pts = [p for p in (0.0, t2, t2 - 2.0 * np.pi, t2 + 2.0 * np.pi)
               if -np.pi < p < np.pi]
        val, _ = quad(lambda t1: g(t1, t2)
                      * np.exp(-q * np.sin(carrier(t1, t2) / 2.0) ** 2),
                      -np.pi, np.pi, points=pts,
                      limit=200, epsabs=1e-12, epsrel=1e-11)
        return val

    val, _ = quad(inner, -np.pi, np.pi, limit=200, epsabs=1e-12, epsrel=1e-11)
    return val


PHIS = [lambda t1, t2: 1.0,
        lambda t1, t2: abs(np.sin(t1 / 2.0)),
        lambda t1, t2: abs(np.sin(t2 / 2.0)),
        lambda t1, t2: abs(np.sin((t1 - t2) / 2.0))]
CARRIERS = [lambda t1, t2: t1, lambda t1, t2: t2, lambda t1, t2: t1 - t2]


def _pair_weight(channel, l, lp, q):
    coef, prof = angular.pair_entry(channel, l, lp)
    return coef * prof(q)


@pytest.mark.parametrize("channel", [0, 1, 2])
@pytest.mark.parametrize("l,lp", [(l, lp) for l in range(4)
                                  for lp in range(l, 4)])
def test_pair_weight(channel, l, lp):
    """The pair weight coefficient * profile(q) of `pair_entry`."""
    q = 1.7
    want = dbl_ring_integral(lambda t1, t2: PHIS[l](t1, t2) * PHIS[lp](t1, t2),
                             CARRIERS[channel], q)
    got = _pair_weight(channel, l, lp, np.array(q))
    assert got == pytest.approx(want, rel=1e-9)
    # the table is symmetric in the two labels
    assert _pair_weight(channel, lp, l, np.array(q)) \
        == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("p1", [0, 1, 2])
@pytest.mark.parametrize("p2", [0, 1, 2])
def test_power_corr_weight(p1, p2):
    """The sum of coefficient * profile(q) over `power_corr_terms`."""
    q = 2.3
    want = dbl_ring_integral(
        lambda t1, t2: abs(np.sin(t1 / 2.0)) ** p1
        * abs(np.sin(t2 / 2.0)) ** p2,
        CARRIERS[2], q)
    got = sum(c * prof(q) for c, prof in angular.power_corr_terms(p1, p2))
    assert got == pytest.approx(want, rel=1e-9)


def test_power_corr_weight_invalid():
    with pytest.raises(ValueError):
        angular.power_corr_terms(3, 0)


def test_weights_vectorized_shape():
    """Arrays, Python scalars, 0-d and empty arrays, on both sides of the
    sincorr_weight branch switch.  Every profile is evaluated elementwise,
    so a value is bit-identical whatever other points share the call."""
    q = np.linspace(0.0, 10.0, 7).reshape(7, 1) * np.ones((1, 3))
    qs = [0.5, 5.0, 20.0, 100.0, 200.0, 350.0]
    for fn in (angular.flat_weight, angular.sin_weight, angular.sin2_weight,
               angular.cos_weight, angular.sincorr_weight):
        assert fn(q).shape == q.shape
        ref = fn(np.array(qs))
        for i, qi in enumerate(qs):
            for arg in (qi, np.asarray(qi)):
                assert np.shape(fn(arg)) == ()
                assert fn(arg) == ref[i]
        for shape in ((0,), (2, 0)):
            assert fn(np.empty(shape)).shape == shape
        mixed = fn(np.array(qs[::-1] * 2).reshape(2, -1))
        np.testing.assert_array_equal(mixed, np.tile(ref[::-1], (2, 1)))


# --- outer sums ---------------------------------------------------------------
OUTER_QUADS = {"default": DEFAULT_QUAD,
               "order8": QuadratureSpec(outer_order=8),
               "refined": DEFAULT_QUAD.refined()}
LN_EDGES = np.linspace(*angular.LN_T, angular._PANELS + 1)
# Every panel edge (both domain ends included), a point just either side
# of each inner edge, and points scattered inside the panels.
OUTER_T = np.exp(np.concatenate([LN_EDGES, LN_EDGES[1:-1] - 1e-9,
                                 LN_EDGES[1:-1] + 1e-9,
                                 np.linspace(*angular.LN_T, 397)]))
OUTER_PROFILES = ("flat_weight", "sin_weight", "sin2_weight", "cos_weight",
                  "sincorr_weight", "_sincorr_tail")


@pytest.mark.parametrize("name", OUTER_PROFILES)
@pytest.mark.parametrize("quad_name", list(OUTER_QUADS))
def test_outer_sum_matches_the_direct_sum(quad_name, name):
    """The table against sum_n w_n g(t sinh^2 u_n), within 1e-14 of the
    size of the summed terms.  sin2_weight is pi (i0e - i1e)(q/2) and
    cos_weight is flat - 2 sin2: both cancel (sin2 at large q, cos at
    small q), so their size is that of the terms before the subtraction."""
    quad = OUTER_QUADS[quad_name]
    _, w, sinh2 = outer_rule(quad)
    q = OUTER_T[:, None] * sinh2
    prof = getattr(angular, name)
    direct = prof(q) @ w
    size = {"sin2_weight": np.pi * (i0e(q / 2.0) + i1e(q / 2.0)) @ w,
            "cos_weight": (angular.flat_weight(q)
                           + 2.0 * angular.sin2_weight(q)) @ w}
    size = size.get(name, np.abs(direct))
    got = angular.outer_sums((prof,), OUTER_T, quad)[0]
    assert got.shape == OUTER_T.shape
    assert np.max(np.abs(got - direct) / size) < 1e-14


@pytest.mark.parametrize("t", [np.exp(angular.LN_T[0]) * (1.0 - 1e-12),
                               np.exp(angular.LN_T[1]) * (1.0 + 1e-12),
                               0.0, -1.0, np.inf, np.nan])
def test_outer_sum_rejects_t_outside_its_table(t):
    with pytest.raises(ValueError, match="outside the tabulated"):
        angular.outer_sums((angular.flat_weight,), np.array([1.0, t]),
                           DEFAULT_QUAD)


@pytest.mark.parametrize("quad_name", list(OUTER_QUADS))
def test_outer_sums_of_all_profiles_match_one_profile_calls(quad_name):
    """One call over every base and composite profile stacks the tables and
    runs one recurrence; each row is bit for bit the one-profile call."""
    quad = OUTER_QUADS[quad_name]
    profs = [getattr(angular, name) for name in OUTER_PROFILES]
    t = OUTER_T.reshape(4, -1)
    got = angular.outer_sums(profs, t, quad)
    assert got.shape == (len(profs),) + t.shape
    for row, prof in zip(got, profs):
        np.testing.assert_array_equal(row,
                                      angular.outer_sums((prof,), t, quad)[0])


# --- tables shipped with the package ------------------------------------------
REGENERATE = "PYTHONPATH=src python -m trionlab.angular"


@pytest.fixture
def no_tables(monkeypatch):
    """Drop every table in memory; reload TABLE_FILE on the next miss."""
    monkeypatch.setattr(angular, "_TABLES", {})
    angular._shipped.cache_clear()
    yield
    angular._shipped.cache_clear()


def _tables(quad):
    return {n: angular._table(getattr(angular, n), quad)
            for n in angular._BASE}


def _fitted(quad, monkeypatch):
    """The base tables of `quad` fitted afresh, as the regenerate command
    fits them: nothing in memory and no file read."""
    with monkeypatch.context() as m:
        m.setattr(angular, "_TABLES", {})
        m.setattr(angular, "_shipped", dict)
        return _tables(quad)


def test_shipped_tables_are_a_fresh_fit_of_the_current_sources(no_tables,
                                                               monkeypatch):
    digest = source_digest(("__init__.py", "angular.py", "quadrature.py"))
    with np.load(angular.TABLE_FILE) as f:
        assert str(f["digest"]) == digest, \
            f"stale {angular.TABLE_FILE}: regenerate it with `{REGENERATE}`"
        for name, want in _fitted(DEFAULT_QUAD, monkeypatch).items():
            assert np.array_equal(f[name], want), \
                f"{name} differs from a fresh fit: `{REGENERATE}`"
    assert all(c is angular._shipped()[n]
               for n, c in _tables(DEFAULT_QUAD).items())


@pytest.mark.parametrize("kind", ["stale", "corrupt", "missing"])
def test_unusable_tables_file_is_refitted(kind, no_tables, tmp_path,
                                          monkeypatch, capsys):
    """A file of other sources (here zeros under a wrong digest), a file
    that is not an npz, and no file at all: each is refitted, and the
    first two say so on stderr."""
    path = tmp_path / "outer_tables.npz"
    if kind == "stale":
        zeros = np.zeros((angular._DEG + 1, angular._PANELS))
        np.savez(path, digest="0" * 64, **{n: zeros for n in angular._BASE})
    elif kind == "corrupt":
        path.write_bytes(b"PK\x03\x04 not an archive")
    monkeypatch.setattr(angular, "TABLE_FILE", path)
    got, want = _tables(DEFAULT_QUAD), _fitted(DEFAULT_QUAD, monkeypatch)
    assert all(np.array_equal(got[n], want[n]) for n in angular._BASE)
    err = capsys.readouterr().err
    if kind == "missing":
        assert err == ""
    else:
        assert f"ignoring {kind} {path}" in err and REGENERATE in err


@pytest.mark.parametrize("quad", [QuadratureSpec(outer_order=9),
                                  DEFAULT_QUAD.refined()])
def test_other_quadratures_never_read_the_tables_file(quad, no_tables,
                                                      tmp_path, monkeypatch,
                                                      capsys):
    path = tmp_path / "outer_tables.npz"
    path.write_bytes(b"not an archive")
    monkeypatch.setattr(angular, "TABLE_FILE", path)
    got, want = _tables(quad), _fitted(quad, monkeypatch)
    assert all(np.array_equal(got[n], want[n]) for n in angular._BASE)
    assert angular._shipped.cache_info().currsize == 0
    assert capsys.readouterr().err == ""
