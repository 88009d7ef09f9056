"""Mean-field SCF solution of the two-electron trion."""
import numpy as np
import pytest

from trionlab import AngularSet, AxialBasis, BasisSpec, binding_energy, scf
from trionlab import hartree_fock
from trionlab.assembly import assemble_exciton, repulsion_tensor
from trionlab.basis import preset_basis, scale_exponents
from trionlab.hartree_fock import hf_binding_energy
from trionlab.quadrature import DEFAULT_QUAD
from trionlab.solver import exciton_ground, preset_family, solve_generalized

from oracle_utils import hartree_matrix

SMALL = BasisSpec(AxialBasis((0.07, 0.9, 6.0, 40.0), (1.0,), (1.0,)),
                  AngularSet.EXCITON_PAIR, "2d")


def test_hartree_matrix_zero_density():
    V4 = repulsion_tensor((0.4, 2.5), 0.13, 2)
    assert np.allclose(hartree_matrix(np.zeros((4, 4)), V4), 0.0)


def test_hartree_matrix_is_symmetric_psd_diagonal():
    V4 = repulsion_tensor((0.4, 2.5), 0.13, 2)
    rng = np.random.default_rng(3)
    chi = rng.normal(size=4)
    VH = hartree_matrix(np.outer(chi, chi), V4)
    assert np.allclose(VH, VH.T, atol=1e-12)
    # repulsion energy of any density with itself is positive
    assert chi @ VH @ chi > 0
    assert np.all(np.diag(VH) > 0)


def test_hartree_matrix_against_loop_contraction():
    """einsum contraction against an explicit double loop."""
    V4 = repulsion_tensor((0.4, 2.5), 0.13, 2)
    rng = np.random.default_rng(4)
    chi = rng.normal(size=4)
    VH = hartree_matrix(np.outer(chi, chi), V4)
    want = np.zeros((4, 4))
    for a in range(4):
        for b in range(4):
            for c in range(4):
                for d in range(4):
                    want[a, b] += V4[a, b, c, d] * chi[c] * chi[d]
    assert np.allclose(VH, want, atol=1e-12)


def test_scf_reduces_to_exciton_without_repulsion():
    """First iterate starts from the bare attraction problem: the first
    history entry is the exciton orbital energy in the same basis."""
    state = scf(0.15, basis=SMALL, max_iter=1)
    assert state.history[0] == pytest.approx(
        exciton_ground(0.15, basis=SMALL), rel=1e-12)


def test_scf_converges_with_small_residual():
    state = scf(0.2)
    assert state.converged
    assert abs(state.history[-1] - state.history[-2]) < 1e-8
    assert state.iterations <= 200
    # orbital is S-normalized
    basis = scale_exponents(preset_basis("hf2d"), 0.2)
    t = assemble_exciton(basis, 0.2)
    c = state.orbital_coeffs
    assert c @ t.S @ c == pytest.approx(1.0, rel=1e-8)


@pytest.mark.parametrize("model", ["1d", "2d"])
@pytest.mark.parametrize("r", [0.02, 0.1, 0.3, 1.0])
def test_scf_reports_its_final_residual(r, model):
    state = scf(r, model)
    assert state.converged
    assert 0.0 <= state.residual <= 1e-12


def test_unconverged_scf_reports_a_large_residual():
    state = scf(0.2, max_iter=1)
    assert not state.converged
    assert state.residual > 1e-6


def test_unconverged_scf_reports_its_returned_orbital():
    """Stopped after two steps, eps0, the residual and E_T_HF belong to
    the orbital returned: recomputed here from the family."""
    r = 0.2
    state = scf(r, "2d", max_iter=2)
    assert not state.converged
    fam = preset_family("hf2d", DEFAULT_QUAD)
    x = r / fam.basis.r0
    y = np.linalg.lstsq(fam.X, state.orbital_coeffs * np.sqrt(x),
                        rcond=None)[0]
    k, u = fam.reduced
    h = (k / x + u) / x
    F = h + (fam.Vj @ np.outer(y, y).ravel()).reshape(h.shape) / x
    eps = y @ F @ y
    assert state.epsilon0 == pytest.approx(eps, abs=1e-10)
    assert state.residual == pytest.approx(np.linalg.norm(F @ y - eps * y),
                                           rel=1e-8)
    assert state.E_T_HF == pytest.approx(2.0 * eps - y @ (F - h) @ y,
                                         abs=1e-10)


@pytest.mark.parametrize("kind", ["hf1d", "hf2d"])
def test_reduced_tensor_keeps_its_eightfold_symmetry(kind):
    """V~0 = X0^T(x)4 V4_0 is unchanged under a <-> b, c <-> d and pair
    exchange to round-off, and Vk is Vj with the middle indices swapped."""
    fam = preset_family(kind, DEFAULT_QUAD)
    m = fam.X.shape[1]
    V = fam.Vj.reshape(m, m, m, m)
    scale = np.abs(V).max()
    for axes in ((1, 0, 2, 3), (0, 1, 3, 2), (2, 3, 0, 1)):
        assert np.abs(V - V.transpose(axes)).max() <= 1e-15 * scale, axes
    np.testing.assert_array_equal(
        fam.Vk, V.transpose(0, 2, 1, 3).reshape(m * m, m * m))


def test_scf_deterministic():
    s1 = scf(0.1)
    s2 = scf(0.1)
    assert s1.E_T_HF == s2.E_T_HF
    assert np.array_equal(s1.orbital_coeffs, s2.orbital_coeffs)


def test_scf_energy_consistency():
    """E_T = 2 eps0 - <chi|V_H|chi> with the converged orbital."""
    r = 0.25
    state = scf(r)
    basis = scale_exponents(preset_basis("hf2d"), r)
    V4 = repulsion_tensor(basis.axial.alphas_i, r, 2)
    chi = state.orbital_coeffs
    VH = hartree_matrix(np.outer(chi, chi), V4)
    assert state.E_T_HF == pytest.approx(
        2.0 * state.epsilon0 - chi @ VH @ chi, rel=1e-9)


@pytest.mark.parametrize("model", ["1d", "2d"])
@pytest.mark.parametrize("r", [0.02, 0.1, 0.3, 1.0])
def test_scf_orbital_is_aufbau(r, model):
    """eps0 is the lowest eigenvalue of the Fock matrix of the converged
    orbital, assembled and solved at r."""
    state = scf(r, model)
    basis = scale_exponents(preset_basis("hf" + model), r)
    t = assemble_exciton(basis, r)
    n_ang = 1 if basis.angular is AngularSet.CONSTANT else 2
    V4 = repulsion_tensor(basis.axial.alphas_i, r, n_ang)
    chi = state.orbital_coeffs
    F = t.K + t.U + hartree_matrix(np.outer(chi, chi), V4)
    assert state.converged
    assert state.epsilon0 == pytest.approx(
        solve_generalized(F, t.S).energies[0], abs=1e-10)


def test_scf_rejects_an_excited_fixed_point(monkeypatch):
    """Newton from the exciton orbital, with no damped warm-up, ends on a
    stationary orbital that is not the lowest of its Fock matrix at 2D,
    r = 0.1; scf raises rather than report it."""
    monkeypatch.setattr(hartree_fock, "WARMUP_TOL", np.inf)
    with pytest.raises(RuntimeError, match="converged to an excited orbital"):
        scf(0.1, "2d")


def test_scf_max_iter_validation():
    with pytest.raises(ValueError, match="max_iter must be >= 1"):
        scf(0.1, max_iter=0)


def test_hf_underbinds_the_exact_trion():
    """Mean field misses correlation: E_B^HF below the variational E_B,
    but still positive (bound) at these radii."""
    for r in (0.1, 0.3):
        res, state = hf_binding_energy(r)
        exact = binding_energy(r, sigma=0.0).E_B
        assert state.converged
        assert 0.0 < res.E_B < exact


def test_hf_total_energy_above_exact_trion():
    """The single-determinant energy is variationally above the exact
    sigma = 0 trion ground energy."""
    from trionlab.solver import trion_energy

    r = 0.2
    res, _ = hf_binding_energy(r)
    assert res.E_T >= trion_energy(r, 0.0)
