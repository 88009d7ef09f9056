"""End-to-end acceptance checks of the published anchor numbers.

The species sweep underlying the last three checks is computed once per
session; everything else is fast enough to recompute per test.
"""
import os
import subprocess
import sys

import numpy as np
import pytest

from oracle_utils import brute_trion_element
from trionlab import ChiralIndex, Environment, binding_energy, \
    dimensionless_radius, effective_masses, effective_units, fermi_velocity, \
    radius, scf, solve_generalized
from trionlab.analysis import detectability_radius, exciton_probability, \
    sweep_epsilon, sweep_species, trion_probability
from trionlab.assembly import assemble_potential
from trionlab.basis import AngularSet, AxialBasis, BasisSpec, preset_basis
from trionlab.hartree_fock import hf_binding_energy
from trionlab.solver import exciton_ground, exciton_spectrum, trion_spectrum


@pytest.fixture(scope="module")
def species_rows():
    return sweep_species()


@pytest.fixture(scope="module")
def pipeline_6_5():
    ch = ChiralIndex(6, 5)
    masses = effective_masses(ch)
    u = effective_units(masses.mu, Environment(epsilon=3.5))
    r = dimensionless_radius(radius(ch), u)
    return masses, u, r


# 1. worked example: (6,5) at epsilon = 3.5 ----------------------------------
def test_criterion_1_pipeline_6_5(pipeline_6_5):
    masses, u, r = pipeline_6_5
    assert masses.m_e == pytest.approx(0.0803, abs=0.002)
    assert masses.m_h == pytest.approx(0.0866, abs=0.002)
    assert masses.mu == pytest.approx(0.0417, abs=0.001)
    assert u.rydberg == pytest.approx(0.0462, abs=0.0005)
    assert u.bohr == pytest.approx(44.5, abs=0.5)
    assert r == pytest.approx(0.084, abs=0.001)
    res = binding_energy(r, sigma=0.0)
    assert res.E_B == pytest.approx(1.28, abs=0.03)
    assert res.E_B * u.rydberg * 1e3 == pytest.approx(59.0, abs=3.0)


# 2. angular structure gain over the flat model ------------------------------
def test_criterion_2_model_gap():
    def gap(r):
        e2 = binding_energy(r, sigma=0.0).E_B
        e1 = binding_energy(r, sigma=0.0, model="1d").E_B
        return 100.0 * (e2 - e1) / e2

    assert gap(0.1) == pytest.approx(13.0, abs=2.0)
    assert gap(0.3) == pytest.approx(42.0, abs=3.0)


# 3. insensitivity to the electron/hole mass ratio ---------------------------
def test_criterion_3_sigma_insensitivity():
    e0 = binding_energy(0.1, sigma=0.0).E_B
    devs = [abs(binding_energy(0.1, sigma=float(s)).E_B - e0) / e0
            for s in np.linspace(0.0, 1.0, 11)]
    assert max(devs) * 100.0 <= 3.2 + 1.0


# 4. mean-field underbinding ratio -------------------------------------------
def test_criterion_4_hartree_fock_ratio():
    ratios = {}
    for r in (0.05, 0.1, 0.2, 0.3):
        res, state = hf_binding_energy(r)
        assert state.converged
        ratios[r] = res.E_B / binding_energy(r, sigma=0.0).E_B
    assert ratios[0.3] == pytest.approx(0.60, abs=0.05)
    # ratio shrinks monotonically toward small radius
    assert ratios[0.05] < ratios[0.1] < ratios[0.2] < ratios[0.3]
    assert min(ratios.values()) == pytest.approx(0.4, abs=0.1)
    assert min(ratios.values()) >= 0.3


# 5. dielectric sweep and power-law fits -------------------------------------
def test_criterion_5_epsilon_sweep():
    rows, eb_fit, ex_fit = sweep_epsilon(ChiralIndex(6, 5))
    assert rows[0]["epsilon"] == 2.0 and rows[-1]["epsilon"] == 5.0
    assert rows[0]["E_B_eV"] * 1e3 == pytest.approx(132.0, abs=13.0)
    assert rows[-1]["E_B_eV"] * 1e3 == pytest.approx(36.0, abs=4.0)
    assert eb_fit.p == pytest.approx(-1.56, abs=0.08)
    assert ex_fit.p == pytest.approx(-1.4, abs=0.1)


# 6. species sweep: model improvement and detectability ----------------------
def test_criterion_6_species_improvement(species_rows):
    gaps = [row["model_gap_pct"] for row in species_rows]
    assert max(gaps) == pytest.approx(15.0, abs=2.0)
    assert np.mean(gaps) == pytest.approx(11.0, abs=2.0)
    assert detectability_radius(species_rows) == pytest.approx(8.0, abs=1.0)
    row_6_5 = [row for row in species_rows
               if (row["n"], row["m"]) == (6, 5)][0]
    assert row_6_5["detectable"]


# 7. mass-ratio range and band slope -----------------------------------------
def test_criterion_7_sigma_range(species_rows):
    sigmas = [row["sigma"] for row in species_rows]
    assert min(sigmas) >= 0.86
    assert max(sigmas) <= 1.02


def test_criterion_7_fermi_velocity():
    # The default model's cone slope at K is sqrt(3) |t| a / 2 in eV*A
    # (t = -2.89 eV, a = 2.46 A), converted to m/s with CODATA e and hbar.
    # It is 2.6% below the commonly quoted 9.6e5 m/s, and no (t, s) can
    # give both: at s = 0.1 the criterion-1 mass anchors hold only for
    # |t| in 2.87-2.92 eV, while 9.6e5 m/s +- 1% needs |t| in 2.94-2.99 eV.
    want = np.sqrt(3.0) * 2.89 * 2.46 / 2.0 \
        * 1.602176634e-19 * 1e-10 / 1.054571817e-34
    assert fermi_velocity() == pytest.approx(want, rel=1e-9)


# 8. property suites ---------------------------------------------------------
def test_criterion_8_angular_table_by_quadrature():
    """Overlap/kinetic angular tables against quadrature to 1e-10; see
    test_basis for the element-by-element version."""
    from scipy.integrate import quad

    from trionlab.basis import angular_kernels

    def corr_overlap(t2):
        val, _ = quad(lambda t1: abs(np.sin(t1 / 2.0))
                      * abs(np.sin((t1 - t2) / 2.0)),
                      -np.pi, np.pi, points=[0.0, t2],
                      epsabs=1e-13, epsrel=1e-12)
        return val

    want, _ = quad(corr_overlap, -np.pi, np.pi, points=[0.0],
                   epsabs=1e-13, epsrel=1e-12)
    got, _, _ = angular_kernels(2, 4)
    assert abs(got - want / (4.0 * np.pi ** 2)) < 1e-10
    assert abs(angular_kernels(4, 4)[1] - 0.25) < 1e-10
    assert abs(angular_kernels(4, 4)[2] + 0.125) < 1e-10


@pytest.mark.slow
def test_criterion_8_potential_entries_brute_force():
    """20 random Coulomb matrix entries against independent quadrature."""
    b = BasisSpec(AxialBasis((0.2, 1.9), (0.5, 2.4), (0.11, 1.4)),
                  AngularSet.FULL4, "2d")
    r = 0.09
    U = assemble_potential(b, r)
    ax = b.axial
    rng = np.random.default_rng(123)

    def flat(i, j, k, l):
        return ((i * 2 + j) * 2 + k) * 4 + l

    for _ in range(20):
        i, ip, j, jp, k, kp = rng.integers(2, size=6)
        l, lp = rng.integers(4, size=2)
        want = brute_trion_element(
            int(l), int(lp), ax.alphas_i[i] + ax.alphas_i[ip],
            ax.alphas_j[j] + ax.alphas_j[jp],
            ax.alphas_k[k] + ax.alphas_k[kp], r)
        got = U[flat(i, j, k, l), flat(ip, jp, kp, lp)]
        assert got == pytest.approx(want, rel=1e-6)


def test_criterion_8_variational_monotonicity():
    full = preset_basis("exciton2d")
    e_full = exciton_ground(0.1, basis=full)
    al = full.axial.alphas_i
    for drop in range(len(al)):
        sub = BasisSpec(
            AxialBasis(tuple(a for i, a in enumerate(al) if i != drop),
                       (1.0,), (1.0,)), AngularSet.EXCITON_PAIR, "2d")
        assert exciton_ground(0.1, basis=sub) >= e_full - 1e-12


def test_criterion_8_probability_normalization():
    spec, basis = trion_spectrum(0.1, 0.9)
    g = trion_probability(spec, basis, grid_size=801, r=0.1)
    th = g.theta
    w = np.full(len(th), th[1] - th[0])
    w[0] = w[-1] = w[0] / 2.0
    assert w @ g.values @ w == pytest.approx(1.0, abs=1e-6)
    spec1, basis1 = exciton_spectrum(0.1)
    g1 = exciton_probability(spec1, basis1, grid_size=801, r=0.1)
    assert w[: len(g1.theta)] @ g1.values == pytest.approx(1.0, abs=1e-6)


def test_criterion_8_exchange_symmetry():
    spec, basis = trion_spectrum(0.1, 0.9)
    ax = basis.axial
    c = spec.coefficients[:, 0].reshape(len(ax.alphas_i), len(ax.alphas_j),
                                        len(ax.alphas_k), 4)
    swapped = c.transpose(1, 0, 2, 3)[:, :, :, (0, 2, 1, 3)]
    assert np.allclose(c, swapped, atol=1e-6 * np.abs(c).max())


def test_criterion_8_rank_deficient_eigensolver():
    rng = np.random.default_rng(9)
    A = rng.normal(size=(6, 6))
    S0 = A @ A.T + 0.3 * np.eye(6)
    B = rng.normal(size=(6, 6))
    H0 = B + B.T
    ext = [0, 1, 2, 3, 4, 5, 2, 5]   # two duplicated basis vectors
    spec = solve_generalized(H0[np.ix_(ext, ext)], S0[np.ix_(ext, ext)])
    from scipy.linalg import eigh

    want = eigh(H0, S0, eigvals_only=True)
    assert spec.retained_dim == 6
    assert np.allclose(spec.energies, want, atol=1e-8)


def test_criterion_8_scf_residual():
    state = scf(0.15)
    assert state.converged
    assert abs(state.history[-1] - state.history[-2]) < 1e-8


def test_criterion_8_byte_identical_sweeps():
    """The same sweep run under 1 and 2 BLAS/OpenMP threads gives the same
    bytes.  Thread counts are read when BLAS loads, so each run needs its
    own interpreter."""
    argv = ["sweep-sigma", "--radius", "0.1", "--points", "3",
            "--model", "1d", "--no-cache"]
    code = ("import sys; from trionlab.cli import main; "
            f"sys.exit(main({argv!r}))")
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OMP_NUM_THREADS=threads,
                   OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, check=True, timeout=300)
        outs.append(proc.stdout)
    assert outs[0]
    assert outs[0] == outs[1]


def test_criterion_8_byte_identical_fit_constants():
    """The `sweep-epsilon` power-law fit constants printed under 1 and 2
    BLAS/OpenMP threads are the same bytes (one interpreter each)."""
    argv = ["sweep-epsilon", "--chirality", "6,5", "--points", "4",
            "--no-cache"]
    code = ("import sys; from trionlab.cli import main; "
            f"sys.exit(main({argv!r}))")
    fits = []
    for threads in ("1", "2"):
        env = dict(os.environ, OMP_NUM_THREADS=threads,
                   OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True,
                              timeout=300)
        fits.append([line for line in proc.stdout.splitlines()
                     if line.startswith(("# fit_A", "# fit_p", "# fit_C",
                                         "# exciton_fit_p"))])
    assert len(fits[0]) == 4
    assert fits[0] == fits[1]
