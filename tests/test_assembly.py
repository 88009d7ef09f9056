"""Matrix assembly against brute-force quadrature and exact symmetries."""
import functools
from collections import defaultdict

import numpy as np
import pytest

from oracle_utils import assemble_trion, brute_repulsion_element, \
    brute_trion_element, loop_potential, loop_repulsion_tensor
from trionlab import AngularSet, AxialBasis, BasisSpec, angular, \
    preset_basis, scale_exponents
from trionlab.assembly import assemble_exciton, assemble_kinetic, \
    assemble_overlap, assemble_potential, mixing_weight, repulsion_tensor
from trionlab.quadrature import DEFAULT_QUAD, outer_rule

SMALL = BasisSpec(AxialBasis((0.3, 2.1), (0.45, 1.7), (0.09, 1.2)),
                  AngularSet.FULL4, "2d")
# 66 third-axis pair sums: a t grid larger than any preset's.
CHUNKED = BasisSpec(AxialBasis((0.3, 2.1), (0.3, 2.1),
                               tuple(0.05 * 2.0 ** k for k in range(11))),
                    AngularSet.FULL4, "2d")
# alphas_i == alphas_k with four angular labels (no preset has both).
IK_EQUAL = BasisSpec(AxialBasis((0.3, 2.1), (0.45, 1.7, 6.0), (0.3, 2.1)),
                     AngularSet.FULL4, "2d")
# Two labels: the particle swap leaves the set, so no channel is reused.
TWO_LABELS = BasisSpec(AxialBasis((0.3, 2.1), (0.3, 2.1), (0.3, 2.1)),
                       AngularSet.EXCITON_PAIR, "2d")
KERNEL_BASES = {"trion1d": preset_basis("trion1d"),
                "trion2d": preset_basis("trion2d"), "small": SMALL,
                "chunked": CHUNKED, "ik_equal": IK_EQUAL,
                "two_labels": TWO_LABELS}
KERNEL_QUADS = {"default": DEFAULT_QUAD, "refined": DEFAULT_QUAD.refined()}


def _index(basis, i, j, k, l):
    ax = basis.axial
    L = basis.angular.size
    return ((i * len(ax.alphas_j) + j) * len(ax.alphas_k) + k) * L + l


def test_mixing_weight():
    assert mixing_weight(0.0, "-") == 0.0
    assert mixing_weight(1.0, "-") == pytest.approx(1.0)
    assert mixing_weight(1.0, "+") == pytest.approx(1.0)
    assert mixing_weight(0.5, "+") == pytest.approx(mixing_weight(2.0, "-"))
    with pytest.raises(ValueError):
        mixing_weight(0.0, "+")
    with pytest.raises(ValueError):
        mixing_weight(0.5, "x")
    with pytest.raises(ValueError):
        mixing_weight(-0.1, "-")


def test_matrices_symmetric():
    t = assemble_trion(SMALL, 0.12, 0.8)
    for M in (t.S, t.K, t.U):
        assert np.allclose(M, M.T, atol=1e-12)
    evals = np.linalg.eigvalsh(t.S)
    assert evals.min() > 0


def test_radius_validation():
    with pytest.raises(ValueError):
        assemble_potential(SMALL, -0.1)
    with pytest.raises(ValueError):
        assemble_kinetic(SMALL, 0.5, 0.0)


def test_exchange_symmetry_of_matrices():
    """Swapping the two identical particles (exponent lists are equal for
    both separations here) permutes rows/columns; S, K, U are invariant."""
    b = BasisSpec(AxialBasis((0.3, 2.1), (0.3, 2.1), (0.09, 1.2)),
                  AngularSet.FULL4, "2d")
    t = assemble_trion(b, 0.15, 0.7)
    n = len(b.axial.alphas_i)
    perm = np.array([_index(b, j, i, k, (0, 2, 1, 3)[l])
                     for i in range(n) for j in range(n)
                     for k in range(len(b.axial.alphas_k))
                     for l in range(4)])
    for M in (t.S, t.K, t.U):
        assert np.allclose(M, M[np.ix_(perm, perm)], atol=1e-10)


@pytest.mark.slow
def test_potential_entries_against_brute_force():
    """20 random entries of U against nested adaptive quadrature built on
    the axial Bessel identity (tolerance 1e-6 relative)."""
    r = 0.11
    U = assemble_potential(SMALL, r)
    ax = SMALL.axial
    rng = np.random.default_rng(42)
    n1, n2, n3 = (len(ax.alphas_i), len(ax.alphas_j), len(ax.alphas_k))
    for _ in range(20):
        i, ip = rng.integers(n1, size=2)
        j, jp = rng.integers(n2, size=2)
        k, kp = rng.integers(n3, size=2)
        l, lp = rng.integers(4, size=2)
        A = ax.alphas_i[i] + ax.alphas_i[ip]
        B = ax.alphas_j[j] + ax.alphas_j[jp]
        C = ax.alphas_k[k] + ax.alphas_k[kp]
        want = brute_trion_element(int(l), int(lp), A, B, C, r)
        got = U[_index(SMALL, i, j, k, l), _index(SMALL, ip, jp, kp, lp)]
        assert got == pytest.approx(want, rel=1e-6), (i, j, k, l, ip, jp, kp, lp)


def test_potential_self_convergence():
    """The default outer rule agrees with a strictly finer rule."""
    U0 = assemble_potential(SMALL, 0.08, DEFAULT_QUAD)
    U1 = assemble_potential(SMALL, 0.08, DEFAULT_QUAD.refined())
    scale = np.abs(U0).max()
    assert np.max(np.abs(U0 - U1)) / scale < 1e-8


def test_kinetic_sigma_dependence_only_in_mixed_term():
    """K(sigma) - K(0) must be linear in the mixing weight."""
    K0 = assemble_kinetic(SMALL, 0.0, 0.1)
    K1 = assemble_kinetic(SMALL, 1.0, 0.1)     # weight 1
    Kh = assemble_kinetic(SMALL, 1.0 / 3.0, 0.1)  # weight 1/2
    assert np.allclose(Kh, 0.5 * (K0 + K1), atol=1e-12)


def test_exciton_matrices_against_direct_quadrature():
    """Exciton S, K, U for one Gaussian pair against scipy quadrature of
    the defining (x, theta) integrals."""
    from scipy.integrate import quad

    al = (0.35, 3.0)
    b = BasisSpec(AxialBasis(al, (1.0,), (1.0,)), AngularSet.EXCITON_PAIR,
                  "2d")
    r = 0.21
    t = assemble_exciton(b, r)
    angular = [lambda th: 1.0, lambda th: abs(np.sin(th / 2.0))]
    from oracle_utils import coulomb_axial, gauss_axial

    for (a_i, l), (a_j, lp) in [((0, 0), (1, 1)), ((1, 0), (1, 1)),
                                ((0, 1), (1, 1)), ((0, 0), (0, 0))]:
        p = al[a_i] + al[a_j]
        row, col = 2 * a_i + l, 2 * a_j + lp

        ang, _ = quad(lambda th: angular[l](th) * angular[lp](th),
                      -np.pi, np.pi, points=[0.0])
        assert t.S[row, col] == pytest.approx(
            gauss_axial(p) * ang / (2.0 * np.pi), rel=1e-10)

        def u_int(th):
            a2 = 4.0 * r * r * np.sin(th / 2.0) ** 2
            return angular[l](th) * angular[lp](th) * coulomb_axial(p, a2)

        want, _ = quad(u_int, -np.pi, np.pi, points=[0.0], limit=200,
                       epsabs=1e-12, epsrel=1e-11)
        assert t.U[row, col] == pytest.approx(-want / (2.0 * np.pi), rel=1e-8)


def test_exciton_constant_set_is_1d_model():
    """With the constant angular factor the element reduces to the
    angle-averaged potential."""
    b1 = BasisSpec(AxialBasis((0.5,), (1.0,), (1.0,)), AngularSet.CONSTANT,
                   "1d")
    t = assemble_exciton(b1, 0.1)
    assert t.S.shape == (1, 1)
    assert t.U[0, 0] < 0


def test_repulsion_tensor_against_brute_force():
    al = (0.4, 2.5)
    r = 0.13
    V4 = repulsion_tensor(al, r, 2)
    rng = np.random.default_rng(5)
    for _ in range(6):
        a, b, c, d = rng.integers(2, size=4)
        la, lb, lc, ld = rng.integers(2, size=4)
        want = brute_repulsion_element(int(la + lb), int(lc + ld),
                                       al[a] + al[b], al[c] + al[d], r)
        got = V4[2 * a + la, 2 * b + lb, 2 * c + lc, 2 * d + ld]
        assert got == pytest.approx(want, rel=1e-7)


def test_repulsion_tensor_symmetries():
    V4 = repulsion_tensor((0.4, 2.5), 0.13, 2)
    # particle exchange and bra-ket symmetry
    assert np.allclose(V4, V4.transpose(2, 3, 0, 1), atol=1e-12)
    assert np.allclose(V4, V4.transpose(1, 0, 3, 2), atol=1e-12)


def test_scaling_identity():
    """Rescaling every exponent by 1/f^2 stretches both axial lengths by
    f: the two-coordinate overlap scales by f^2 while the axial kinetic
    form (overlap x 1/length^2) is exactly invariant."""
    b0 = preset_basis("trion2d")
    b = scale_exponents(b0, 0.2)
    f = 0.2 / b0.r0
    S0 = assemble_overlap(b0)
    S = assemble_overlap(b)
    assert np.allclose(S, S0 * f ** 2, rtol=1e-12)
    # sigma = 0 kinetic at huge radius: the angular 1/r^2 part vanishes
    K0 = assemble_kinetic(b0, 0.0, 1e6)
    K = assemble_kinetic(b, 0.0, 1e6)
    assert np.allclose(K, K0, rtol=1e-9)


def _rel(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


@pytest.mark.parametrize("quad", list(KERNEL_QUADS))
@pytest.mark.parametrize("r", [0.02, 0.1, 0.3])
@pytest.mark.parametrize("name", list(KERNEL_BASES))
def test_potential_matches_loop_oracle(name, r, quad):
    b, q = KERNEL_BASES[name], KERNEL_QUADS[quad]
    assert _rel(assemble_potential(b, r, q), loop_potential(b, r, q)) < 1e-12


@pytest.mark.parametrize("quad", list(KERNEL_QUADS))
@pytest.mark.parametrize("r", [0.02, 0.1, 0.3])
@pytest.mark.parametrize("name", ["hf1d", "hf2d", "small"])
def test_repulsion_tensor_matches_loop_oracle(name, r, quad):
    if name == "small":
        alphas, n_ang = SMALL.axial.alphas_i, 2
    else:
        b = preset_basis(name)
        alphas, n_ang = b.axial.alphas_i, b.angular.size
    q = KERNEL_QUADS[quad]
    assert _rel(repulsion_tensor(alphas, r, n_ang, q),
                loop_repulsion_tensor(alphas, r, n_ang, q)) < 1e-12


_PROFILES = ("flat_weight", "sin_weight", "sin2_weight", "cos_weight",
             "sincorr_weight", "_sincorr_tail")


def _count_profile_calls(monkeypatch):
    """Shapes of the arguments of every angular profile call, per profile,
    with every outer-sum table dropped.  The profiles are wrapped wherever
    the package looks one up: the module attributes and the channel table;
    the wrappers keep their names, which key the tables."""
    calls = defaultdict(list)
    wrapped = {}
    for name in _PROFILES:
        fn = getattr(angular, name)

        @functools.wraps(fn)
        def counted(q, fn=fn, name=name):
            calls[name].append(np.shape(q))
            return fn(q)
        wrapped[fn] = counted
        monkeypatch.setattr(angular, name, counted)
    for key, (coef, fn) in list(angular._T1.items()):
        monkeypatch.setitem(angular._T1, key, (coef, wrapped[fn]))
    monkeypatch.setattr(angular, "_TABLES", {})
    angular._shipped.cache_clear()
    return calls


@pytest.fixture
def profile_calls(monkeypatch, tmp_path):
    """`_count_profile_calls` with the shipped tables file missing, so
    every table of every quadrature is fitted."""
    monkeypatch.setattr(angular, "TABLE_FILE", tmp_path / "missing.npz")
    yield _count_profile_calls(monkeypatch)
    angular._shipped.cache_clear()


_BASE = ("flat_weight", "sin_weight", "sin2_weight", "_sincorr_tail")


def _fit_shape(quad):
    return (angular._PANELS, angular._DEG + 1, len(outer_rule(quad)[0]))


def test_potential_evaluates_each_profile_once_per_channel(profile_calls):
    """A profile runs only to fit its outer-sum table: once per quadrature,
    on the fitting grid, for the first channel that needs it.  trion2d
    needs all four base profiles (sincorr_weight is a sum of two tables);
    trion1d needs flat_weight alone.  Later potentials, and the other
    kernels, at that quadrature evaluate none."""
    quad = DEFAULT_QUAD
    assemble_potential(preset_basis("trion2d"), 0.1, quad)
    assert profile_calls == {name: [_fit_shape(quad)] for name in _BASE}
    profile_calls.clear()
    assemble_potential(preset_basis("trion2d"), 0.3, quad)
    assemble_potential(preset_basis("trion1d"), 0.3, quad)
    assemble_potential(CHUNKED, 0.02, quad)
    assemble_exciton(preset_basis("exciton2d"), 0.1, quad)
    repulsion_tensor(preset_basis("hf2d").axial.alphas_i, 0.1, 2, quad)
    assert profile_calls == {}
    quad = DEFAULT_QUAD.refined()
    assemble_potential(preset_basis("trion1d"), 0.1, quad)
    assert profile_calls == {"flat_weight": [_fit_shape(quad)]}


def test_shipped_tables_leave_default_potentials_without_profiles(
        monkeypatch):
    """With the shipped file, the first trion2d potential at DEFAULT_QUAD
    reads its four base tables and evaluates no profile."""
    calls = _count_profile_calls(monkeypatch)
    assert angular.TABLE_FILE.exists()
    U = assemble_potential(preset_basis("trion2d"), 0.1, DEFAULT_QUAD)
    assert calls == {}
    assert set(angular._TABLES) >= {(n, DEFAULT_QUAD) for n in _BASE}
    assert _rel(U, loop_potential(preset_basis("trion2d"), 0.1)) < 1e-12


def test_repulsion_tensor_evaluates_profiles_once_per_call(profile_calls):
    """The first hf2d repulsion tensor at a quadrature fits each base
    profile's table once, whatever the number of (a, b) pairs; later
    tensors, of seven exponents or two, and the potentials at that
    quadrature evaluate none."""
    quad = DEFAULT_QUAD.refined()
    repulsion_tensor(preset_basis("hf2d").axial.alphas_i, 0.1, 2, quad)
    assert profile_calls == {name: [_fit_shape(quad)] for name in _BASE}
    profile_calls.clear()
    repulsion_tensor((0.4, 2.5), 0.1, 2, quad)
    repulsion_tensor(preset_basis("hf2d").axial.alphas_i, 0.3, 2, quad)
    assemble_potential(preset_basis("trion2d"), 0.1, quad)
    assemble_exciton(preset_basis("exciton2d"), 0.1, quad)
    assert profile_calls == {}


def test_coulomb_argument_outside_the_tables_names_the_exponents():
    """t = 4 r^2 D/E beyond exp(LN_T) has no fallback: each kernel raises
    and names the exponents and the radius."""
    tiny = BasisSpec(AxialBasis((1e-9,), (1e-9,), (1e-9,)),
                     AngularSet.FULL4, "2d")
    with pytest.raises(ValueError, match=r"exponents i \[1e-09\], "
                       r"j \[1e-09\], k \[1e-09\] at r=0.1: Coulomb "
                       r"argument .* outside the tabulated"):
        assemble_potential(tiny, 0.1)
    big = BasisSpec(AxialBasis((0.3, 1e9), (1.0,), (1.0,)),
                    AngularSet.EXCITON_PAIR, "2d")
    message = r"exponents \[0.3, 1000000000.0\] at r=1.0: Coulomb argument"
    with pytest.raises(ValueError, match=message):
        assemble_exciton(big, 1.0)
    with pytest.raises(ValueError, match=message):
        repulsion_tensor((0.3, 1e9), 1.0, 2)
