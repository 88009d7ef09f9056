"""Probability grids, power-law fits and sweep helpers."""
import re

import numpy as np
import pytest

from trionlab.analysis import ProbabilityGrid, binding_both_charges, \
    detectability_radius, exciton_probability, fit_power_law, hf_difference, \
    hf_pair_probability, sweep_radius, sweep_sigma, trion_probability
from trionlab.basis import preset_basis, scale_exponents
from trionlab.solver import exciton_spectrum, trion_spectrum


def _grid_integral_2d(g):
    th = g.theta
    dth = th[1] - th[0]
    # trapezoid on the periodic square
    w = np.full(len(th), dth)
    w[0] = w[-1] = dth / 2.0
    return float(w @ g.values @ w)


def _grid_integral_1d(g):
    dth = g.theta[1] - g.theta[0]
    w = np.full(len(g.theta), dth)
    w[0] = w[-1] = dth / 2.0
    return float(w @ g.values)


def test_trion_probability_normalized_and_symmetric():
    spec, basis = trion_spectrum(0.1, 0.9)
    g = trion_probability(spec, basis, grid_size=801, r=0.1)
    assert _grid_integral_2d(g) == pytest.approx(1.0, abs=1e-6)
    assert np.all(g.values >= -1e-12)
    # exchange symmetry and parity of the angular density
    assert np.allclose(g.values, g.values.T, atol=1e-10)
    assert np.allclose(g.values, g.values[::-1, ::-1], atol=1e-10)


def test_exciton_probability_normalized():
    spec, basis = exciton_spectrum(0.1)
    g = exciton_probability(spec, basis, grid_size=801, r=0.1)
    assert _grid_integral_1d(g) == pytest.approx(1.0, abs=1e-5)
    assert np.all(g.values >= -1e-12)
    # electron-hole attraction peaks the relative density at theta = 0
    assert g.values[len(g.theta) // 2] > g.values[0]


def test_exciton_probability_flattens_at_small_radius():
    """For a thin tube the angular structure costs too much kinetic
    energy: the density approaches uniform."""
    def spread(r):
        spec, basis = exciton_spectrum(r)
        g = exciton_probability(spec, basis, r=r)
        return g.values.max() - g.values.min()

    assert spread(0.02) < spread(0.1) < spread(0.3)


def test_hf_pair_probability_is_product_state():
    g = hf_pair_probability(0.1, grid_size=101)
    assert g.values.shape == (101, 101)
    # rank-1 by construction
    u, s, vt = np.linalg.svd(g.values)
    assert s[1] < 1e-10 * s[0]
    assert _grid_integral_2d(g) == pytest.approx(1.0, abs=1e-4)


def test_hf_difference_range_and_structure():
    """Mean-field error of the pair density at r = 0.1: a few percent,
    largest where the electrons coincide (the diagonal)."""
    spec, basis = trion_spectrum(0.1, 0.0)
    full = trion_probability(spec, basis, grid_size=101, r=0.1)
    hf = hf_pair_probability(0.1, grid_size=101)
    d = hf_difference(full, hf)
    assert -8.0 < d.min() and d.max() < 8.0
    n = d.shape[0]
    on_diag = np.abs(np.diag(d)).max()
    off_diag = np.abs(d[0, n // 2])
    assert on_diag > off_diag


def test_hf_difference_guard():
    a = ProbabilityGrid(np.array([0.0]), np.array([0.0]), 0.1, "2d", "full")
    b = ProbabilityGrid(np.array([0.0]), np.array([1.0]), 0.1, "2d", "hf")
    assert hf_difference(a, b) == pytest.approx(0.0)


def test_fit_power_law_recovers_synthetic():
    x = np.linspace(2.0, 5.0, 13)
    y = 0.37 * x ** -1.43 + 0.002
    fit = fit_power_law(x, y)
    assert fit.A == pytest.approx(0.37, rel=1e-6)
    assert fit.p == pytest.approx(-1.43, rel=1e-6)
    assert fit.C == pytest.approx(0.002, abs=1e-8)
    assert fit.residual < 1e-10
    assert fit(3.0) == pytest.approx(0.37 * 3.0 ** -1.43 + 0.002)


def test_fit_power_law_gradient_vanishes_on_noisy_data():
    """With a nonzero residual, the least-squares gradient in A, C and p
    (the projected gradient) vanishes at the returned constants: the
    residual is orthogonal to each derivative of the model."""
    x = np.linspace(2.0, 5.0, 13)
    rng = np.random.default_rng(5)
    y = 0.37 * x ** -1.43 + 0.002 + 1e-4 * rng.standard_normal(13)
    fit = fit_power_law(x, y)
    r = y - fit(x)
    assert fit.residual == pytest.approx(np.linalg.norm(r))
    assert fit.residual > 1e-4
    phi = x ** fit.p
    for direction in (phi, np.ones_like(x), fit.A * phi * np.log(x)):
        cosine = r @ direction / (np.linalg.norm(r)
                                  * np.linalg.norm(direction))
        assert abs(cosine) < 1e-10


def test_detectability_radius_interpolation():
    rows = [{"r_A": 4.0, "E_B_minus_2d_meV": 80.0},
            {"r_A": 8.0, "E_B_minus_2d_meV": 28.0},
            {"r_A": 10.0, "E_B_minus_2d_meV": 24.0}]
    # linear crossing of 26 meV between 8 and 10 Angstrom
    assert detectability_radius(rows) == pytest.approx(9.0)
    with pytest.raises(ValueError):
        detectability_radius(rows[:2])


def test_binding_both_charges_skips_plus_at_sigma_zero():
    out = binding_both_charges(0.1, 0.0)
    assert set(out) == {"-"}
    out = binding_both_charges(0.1, 0.9)
    assert set(out) == {"-", "+"}
    assert out["-"].E_X == out["+"].E_X


def test_sweep_radius_rejects_unknown_method():
    with pytest.raises(ValueError, match="unknown sweep method 'HF'"):
        sweep_radius([0.1], methods=("full", "HF"))


@pytest.mark.parametrize("models, message", [
    (("foo",), "unknown sweep model 'foo' (models are 1d, 2d)"),
    (("1d", "2D"), "unknown sweep model '2D' (models are 1d, 2d)"),
    (("1d", "1d"), "repeated sweep model in models 1d, 1d"),
    (("2d", "1d", "2d"), "repeated sweep model in models 2d, 1d, 2d")])
def test_sweep_radius_rejects_unknown_or_repeated_model(models, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        sweep_radius([0.1], models=models)


def test_sweep_radius_rejects_repeated_method():
    with pytest.raises(ValueError, match="repeated sweep method in methods "
                                         "full, hf, full"):
        sweep_radius([0.1], methods=("full", "hf", "full"))


def test_sweep_sigma_rows_deterministic():
    rows1 = sweep_sigma(r=0.1, sigmas=(0.0, 1.0))
    rows2 = sweep_sigma(r=0.1, sigmas=(0.0, 1.0))
    assert rows1 == rows2
    assert [row["sigma"] for row in rows1] == [0.0, 1.0, 1.0]
    assert {row["charge"] for row in rows1} == {"-", "+"}
