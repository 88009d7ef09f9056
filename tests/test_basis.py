"""Basis definitions, closed-form kernels and the angular tables."""
import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad

from trionlab import basis as tb
from trionlab import AngularSet, AxialBasis, BasisSpec, coulomb_potential, \
    preset_basis, scale_exponents


# --- potential ---------------------------------------------------------------
def test_coulomb_potential_values():
    # theta = pi: distance^2 = x^2 + 4 r^2
    assert coulomb_potential(3.0, np.pi, 2.0) == pytest.approx(2.0 / 5.0)
    # theta = 0 reduces to the bare 1D form 2/|x|
    assert coulomb_potential(0.5, 0.0, 1.0) == pytest.approx(4.0)


def test_coulomb_potential_symmetry():
    rng = np.random.default_rng(7)
    x = rng.normal(size=50)
    th = rng.uniform(-np.pi, np.pi, 50)
    v = coulomb_potential(x, th, 0.3)
    assert np.allclose(v, coulomb_potential(-x, th, 0.3))
    assert np.allclose(v, coulomb_potential(x, -th, 0.3))
    assert np.allclose(v, coulomb_potential(x, th + 2.0 * np.pi, 0.3))


def test_coulomb_potential_singular():
    with pytest.raises(ValueError):
        coulomb_potential(0.0, 0.0, 0.5)
    with pytest.raises(ValueError):
        coulomb_potential(1.0, 0.0, -1.0)


# --- axial kernels -----------------------------------------------------------
def _axial_quad(f, exps, half=20.0, order=240):
    """integral of f(x1, x2) exp(-ai x1^2 - aj x2^2 - ak (x1-x2)^2)."""
    ai, aj, ak = exps
    x, w = leggauss(order)
    x = half * x
    w = half * w
    X1, X2 = np.meshgrid(x, x, indexing="ij")
    W = np.outer(w, w)
    g = np.exp(-ai * X1 ** 2 - aj * X2 ** 2 - ak * (X1 - X2) ** 2)
    return float(np.sum(W * f(X1, X2) * g))


@pytest.mark.parametrize("exps", [(1.0, 1.0, 1.0, 1.0, 1.0, 1.0),
                                  (0.7, 1.3, 0.4, 2.2, 0.9, 0.15),
                                  (3.0, 0.2, 1.1, 1.1, 0.05, 2.4)])
def test_axial_kernels_against_quadrature(exps):
    ai, aip, aj, ajp, ak, akp = exps
    S, K, K2, KM = tb.axial_kernels(*exps)
    sums = (ai + aip, aj + ajp, ak + akp)
    assert S == pytest.approx(_axial_quad(lambda x1, x2: 1.0, sums), rel=1e-10)

    # kinetic form for the first separation: integral of
    # (d/dx1 g)(d/dx1 g') over the product of the two Gaussian factors
    def k_form(x1, x2):
        d = (-2.0 * ai * x1 - 2.0 * ak * (x1 - x2)) \
            * (-2.0 * aip * x1 - 2.0 * akp * (x1 - x2))
        return d

    assert K == pytest.approx(_axial_quad(k_form, sums), rel=1e-10)

    def k2_form(x1, x2):
        return (-2.0 * aj * x2 + 2.0 * ak * (x1 - x2)) \
            * (-2.0 * ajp * x2 + 2.0 * akp * (x1 - x2))

    assert K2 == pytest.approx(_axial_quad(k2_form, sums), rel=1e-10)

    def km_form(x1, x2):
        return (-2.0 * ai * x1 - 2.0 * ak * (x1 - x2)) \
            * (-2.0 * ajp * x2 + 2.0 * akp * (x1 - x2))

    assert KM == pytest.approx(_axial_quad(km_form, sums), rel=1e-8,
                               abs=1e-10)


def test_axial_kernels_unit_exponents():
    S, K, K2, KM = tb.axial_kernels(*([0.5] * 6))
    # pair sums all 1 -> D = 3
    assert S == pytest.approx(np.pi / np.sqrt(3.0))
    assert KM == pytest.approx(-np.pi / np.sqrt(12.0))


# --- angular tables ----------------------------------------------------------
_PHIS = [lambda t1, t2: np.ones_like(t1),
         lambda t1, t2: np.abs(np.sin(t1 / 2.0)),
         lambda t1, t2: np.abs(np.sin(t2 / 2.0)),
         lambda t1, t2: np.abs(np.sin((t1 - t2) / 2.0))]
# gradients (d/dt1, d/dt2); the kink sign function drops out of products
_GRADS = [lambda t1, t2: (np.zeros_like(t1), np.zeros_like(t1)),
          lambda t1, t2: (0.5 * np.cos(t1 / 2.0) * np.sign(np.sin(t1 / 2.0)),
                          np.zeros_like(t1)),
          lambda t1, t2: (np.zeros_like(t1),
                          0.5 * np.cos(t2 / 2.0) * np.sign(np.sin(t2 / 2.0))),
          lambda t1, t2: (0.5 * np.cos((t1 - t2) / 2.0)
                          * np.sign(np.sin((t1 - t2) / 2.0)),
                          -0.5 * np.cos((t1 - t2) / 2.0)
                          * np.sign(np.sin((t1 - t2) / 2.0)))]


def _angular_quad(f):
    """integral of f over [-pi, pi]^2 / (2 pi)^2 by nested adaptive quad,
    with break points on the kink lines of the |sin| factors."""
    def inner(t2):
        pts = [p for p in (0.0, t2, t2 - 2.0 * np.pi, t2 + 2.0 * np.pi)
               if -np.pi < p < np.pi]
        val, _ = quad(lambda t1: f(np.asarray(t1), np.asarray(t2)),
                      -np.pi, np.pi, points=pts, limit=200,
                      epsabs=1e-13, epsrel=1e-12)
        return val

    val, _ = quad(inner, -np.pi, np.pi, points=[0.0], limit=200,
                  epsabs=1e-13, epsrel=1e-12)
    return val / (4.0 * np.pi ** 2)


@pytest.mark.parametrize("l", range(1, 5))
@pytest.mark.parametrize("lp", range(1, 5))
def test_angular_overlap_table(l, lp):
    want = _angular_quad(lambda t1, t2: _PHIS[l - 1](t1, t2)
                         * _PHIS[lp - 1](t1, t2))
    got, _, _ = tb.angular_kernels(l, lp)
    assert got == pytest.approx(want, abs=1e-10)


@pytest.mark.parametrize("l", range(1, 5))
@pytest.mark.parametrize("lp", range(1, 5))
def test_angular_kinetic_tables(l, lp):
    def kin(t1, t2):
        d1, d2 = _GRADS[l - 1](t1, t2)
        e1, e2 = _GRADS[lp - 1](t1, t2)
        return d1 * e1 + d2 * e2

    def mixed(t1, t2):
        d1, d2 = _GRADS[l - 1](t1, t2)
        e1, e2 = _GRADS[lp - 1](t1, t2)
        return 0.5 * (d1 * e2 + d2 * e1)

    _, got_k, got_m = tb.angular_kernels(l, lp)
    assert got_k == pytest.approx(_angular_quad(kin), abs=1e-10)
    assert got_m == pytest.approx(_angular_quad(mixed), abs=1e-10)


def test_angular_kernels_label_range():
    with pytest.raises(ValueError):
        tb.angular_kernels(0, 1)
    with pytest.raises(ValueError):
        tb.angular_kernels(1, 5)


def test_angular_overlap_positive_definite():
    evals = np.linalg.eigvalsh(tb.ANGULAR_OVERLAP)
    assert evals.min() > 0


# --- specs and presets -------------------------------------------------------
def test_axial_basis_validation():
    with pytest.raises(ValueError):
        AxialBasis((), (1.0,), (1.0,))
    with pytest.raises(ValueError):
        AxialBasis((1.0,), (-0.5,), (1.0,))


def test_basis_spec_model_invariant():
    ax = AxialBasis((1.0,), (1.0,), (1.0,))
    with pytest.raises(ValueError):
        BasisSpec(ax, AngularSet.FULL4, "1d")
    with pytest.raises(ValueError):
        BasisSpec(ax, AngularSet.CONSTANT, "2d")
    with pytest.raises(ValueError):
        BasisSpec(ax, AngularSet.CONSTANT, "3d")


def test_preset_sizes():
    assert preset_basis("exciton2d").size == 10
    assert preset_basis("trion1d").size == 125
    assert preset_basis("trion2d").size == 256
    assert preset_basis("hf2d").size == 14
    with pytest.raises(ValueError):
        preset_basis("nope")


def test_tied_groups_of_the_presets():
    """Each preset is its tied groups put into the lists they set."""
    for problem in ("exciton", "trion", "hf"):
        for model in ("1d", "2d"):
            groups = tb.preset_groups(problem + model)
            ax = preset_basis(problem + model).axial
            if problem + model == "trion2d":
                assert (ax.alphas_i, ax.alphas_j, ax.alphas_k) == \
                    (groups[0], groups[0], groups[1])
            elif problem == "trion":
                assert ax.alphas_i == ax.alphas_j == ax.alphas_k == groups[0]
            else:
                assert (ax.alphas_i, ax.alphas_j, ax.alphas_k) == \
                    (groups[0], (1.0,), (1.0,))
    with pytest.raises(ValueError, match="unknown problem 'plasmon'"):
        tb.tied_basis("plasmon", "2d", ((1.0,),))


def test_scale_exponents():
    b = preset_basis("trion2d")
    scaled = scale_exponents(b, 0.2)  # (0.1 / 0.2)^2 = 1/4
    assert scaled.axial.alphas_i == tuple(a / 4.0 for a in b.axial.alphas_i)
    assert scaled.axial.alphas_k == tuple(a / 4.0 for a in b.axial.alphas_k)
    assert scale_exponents(b, b.r0) == b
    with pytest.raises(ValueError):
        scale_exponents(b, 0.0)
