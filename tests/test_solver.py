"""Eigensolver properties and energies against independent references."""
import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import eigsh

from trionlab import AngularSet, AxialBasis, BasisSpec, binding_energy, \
    exciton_energy, preset_basis, solve_generalized, trion_energy
from trionlab.basis import coulomb_potential
from trionlab.solver import exciton_ground, trion_spectrum


# --- generalized eigensolver ------------------------------------------------
def test_solve_generalized_identity_overlap():
    rng = np.random.default_rng(0)
    A = rng.normal(size=(6, 6))
    H = A + A.T
    spec = solve_generalized(H, np.eye(6))
    want = np.linalg.eigvalsh(H)
    assert np.allclose(spec.energies, want, atol=1e-12)
    assert spec.retained_dim == 6
    # S-normalization of eigenvectors
    assert np.allclose(spec.coefficients.T @ spec.coefficients, np.eye(6),
                       atol=1e-10)


def test_solve_generalized_matches_scipy():
    from scipy.linalg import eigh

    rng = np.random.default_rng(1)
    A = rng.normal(size=(8, 8))
    S = A @ A.T + 0.5 * np.eye(8)
    B = rng.normal(size=(8, 8))
    H = B + B.T
    spec = solve_generalized(H, S)
    want = eigh(H, S, eigvals_only=True)
    assert np.allclose(spec.energies, want, atol=1e-9)


def test_solve_generalized_rank_deficient():
    """A duplicated basis vector must not corrupt the spectrum: the result
    equals the eigenvalues of the independent sub-basis."""
    rng = np.random.default_rng(2)
    A = rng.normal(size=(5, 5))
    S0 = A @ A.T + 0.5 * np.eye(5)
    B = rng.normal(size=(5, 5))
    H0 = B + B.T
    # duplicate the last basis vector: rows/cols repeat
    ext = [0, 1, 2, 3, 4, 4]
    S = S0[np.ix_(ext, ext)]
    H = H0[np.ix_(ext, ext)]
    from scipy.linalg import eigh

    want = eigh(H0, S0, eigvals_only=True)
    spec = solve_generalized(H, S)
    assert spec.retained_dim == 5
    assert np.allclose(spec.energies, want, atol=1e-8)


def test_solve_generalized_validation():
    with pytest.raises(ValueError):
        solve_generalized(np.eye(3), np.eye(4))
    H = np.arange(9.0).reshape(3, 3)
    with pytest.raises(ValueError):
        solve_generalized(H, np.eye(3))
    with pytest.raises(ValueError):
        solve_generalized(np.zeros((2, 2)), np.zeros((2, 2)))


# --- exciton against a finite-difference grid --------------------------------
def _fd_exciton_1d(r, nx, L=10.0):
    """Finite-difference ground state of the angularly flat pair problem.

    The angle-averaged potential is computed by adaptive quadrature and
    the tridiagonal eigenproblem solved directly; the grid is staggered
    to avoid x = 0.
    """
    from scipy.integrate import quad
    from scipy.linalg import eigh_tridiagonal

    hx = 2.0 * L / nx
    x = -L + hx * (np.arange(nx) + 0.5)

    def veff(xx):
        val, _ = quad(lambda th: coulomb_potential(xx, th, r),
                      -np.pi, np.pi, points=[0.0], limit=200)
        return val / (2.0 * np.pi)

    d = 2.0 / hx ** 2 - np.array([veff(xx) for xx in x])
    e = np.full(nx - 1, -1.0 / hx ** 2)
    vals = eigh_tridiagonal(d, e, select="i", select_range=(0, 0))[0]
    return float(vals[0])


def test_exciton_against_finite_difference():
    """Independent full-problem oracle: the staggered-grid FD energy
    converges O(h); its two-grid extrapolation must lie slightly below
    the variational energy (upper-bound property) and agree to 0.3%."""
    r = 0.2
    var = exciton_ground(r, model="1d")
    e1 = _fd_exciton_1d(r, 4000)
    e2 = _fd_exciton_1d(r, 8000)
    limit = 2.0 * e2 - e1
    assert var >= limit - 1e-6
    assert var == pytest.approx(limit, rel=3e-3)


def test_exciton_energy_sign_conventions():
    r = 0.1
    assert exciton_ground(r) < 0
    assert exciton_energy(r) == pytest.approx(-exciton_ground(r))
    assert exciton_energy(r, model="1d") > 0


def test_exciton_energy_grows_as_radius_shrinks():
    es = [exciton_energy(r) for r in (0.3, 0.2, 0.1, 0.05)]
    assert all(b > a for a, b in zip(es, es[1:]))


# --- trion ------------------------------------------------------------------
def test_trion_charge_symmetry_at_equal_masses():
    """At sigma = 1 the two trion charges are the same problem."""
    em = trion_energy(0.1, 1.0, "-")
    ep = trion_energy(0.1, 1.0, "+")
    assert em == pytest.approx(ep, rel=1e-12)


def test_trion_charge_map_is_sigma_inversion():
    em = trion_energy(0.12, 0.7, "+")
    # S+ at sigma equals S- at 1/sigma up to the overall energy unit:
    # the mixed-term weight 2/(1+sigma) equals 2*(1/sigma)/(1+1/sigma)
    from trionlab.assembly import mixing_weight
    assert mixing_weight(0.7, "+") == pytest.approx(
        mixing_weight(1.0 / 0.7, "-"))
    assert em == pytest.approx(trion_energy(0.12, 1.0 / 0.7, "-"), rel=1e-12)


def test_binding_energy_positive_and_consistent():
    res = binding_energy(0.1, sigma=0.9)
    assert res.E_B > 0
    assert res.E_B == pytest.approx(res.E_X - res.E_T)
    assert res.E_T < res.E_X < 0


def test_ground_state_exchange_symmetric():
    """With identical exponent lists for both pair separations, the
    ground-state coefficients are invariant under particle exchange."""
    spec, basis = trion_spectrum(0.1, 0.9)
    ax = basis.axial
    n1, n2, n3 = len(ax.alphas_i), len(ax.alphas_j), len(ax.alphas_k)
    c = spec.coefficients[:, 0].reshape(n1, n2, n3, 4)
    swapped = c.transpose(1, 0, 2, 3)[:, :, :, (0, 2, 1, 3)]
    sign = np.sign(c.flat[np.argmax(np.abs(c))])
    assert np.allclose(c, swapped, atol=1e-6 * np.abs(c).max())
    assert sign != 0


def test_variational_monotonicity_under_basis_removal():
    """Removing basis functions can only raise the variational energy."""
    full = preset_basis("exciton2d")
    e_full = exciton_ground(0.1, basis=full)
    for drop in range(len(full.axial.alphas_i)):
        al = tuple(a for i, a in enumerate(full.axial.alphas_i) if i != drop)
        sub = BasisSpec(AxialBasis(al, (1.0,), (1.0,)),
                        AngularSet.EXCITON_PAIR, "2d")
        assert exciton_ground(0.1, basis=sub) >= e_full - 1e-12


def test_trion_variational_monotonicity():
    b = BasisSpec(AxialBasis((0.1, 1.7, 9.7), (0.1, 1.7, 9.7), (0.2, 2.0)),
                  AngularSet.FULL4, "2d")
    e_full = trion_energy(0.1, 0.9, basis=b)
    sub = BasisSpec(AxialBasis((0.1, 1.7), (0.1, 1.7), (0.2, 2.0)),
                    AngularSet.FULL4, "2d")
    assert trion_energy(0.1, 0.9, basis=sub) >= e_full - 1e-12


def test_model_gap_positive():
    """The angular-resolved model always binds at least as much as the
    angularly flat restriction of the same problem."""
    for r in (0.05, 0.1, 0.2, 0.3):
        e2 = binding_energy(r, sigma=0.9).E_B
        e1 = binding_energy(r, sigma=0.9, model="1d").E_B
        assert e2 > e1
