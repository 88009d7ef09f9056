"""Families against solves assembled at r, the radius identities they
rest on, and the input and bound-state checks of every entry point."""
import importlib
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import trionlab
import trionlab.solver as solver
from oracle_utils import (assemble_trion, exchange_sectors, general_exciton,
                          general_scf, general_trion)
from trionlab import assembly
from trionlab.angular import exchange_factors, exchange_permutation
from trionlab.analysis import (binding_both_charges, exciton_probability,
                               hf_pair_probability, sweep_radius, sweep_sigma,
                               trion_probability)
from trionlab.assembly import (assemble_exciton, assemble_kinetic,
                               assemble_overlap, assemble_potential,
                               axial_matrices, mixing_weight, repulsion_tensor)
from trionlab.basis import (ANGULAR_OVERLAP, AngularSet, AxialBasis,
                            BasisSpec, axial_kernels, coulomb_potential,
                            preset_basis, preset_groups, scale_exponents,
                            tied_basis)
from trionlab.cli import main
from trionlab.hartree_fock import hf_binding_energy, scf
from trionlab.optimizer import GRAD_STEP, optimize
from trionlab.quadrature import DEFAULT_QUAD, QuadratureSpec
from trionlab.solver import (binding_energy, exciton_energy, exciton_ground,
                             exciton_spectrum, solve_generalized,
                             trion_energy, trion_spectrum)

CONTRACT_TOL = 1e-10    # Ry*, fast path against the path it replaces
POINTS = [(s, c) for s in (0.0, 0.93, 1 / 0.93) for c in ("-", "+")
          if not (c == "+" and s == 0.0)]


# --- the family against solves assembled at r -------------------------------
def _check_scf(state, r, basis):
    """E_T_HF and density of `scf` against the oracle's damped loop run
    to its fixed point."""
    e_ref, chi_ref, _ = general_scf(r, basis, tol=1e-15, max_iter=5000)
    assert state.E_T_HF == pytest.approx(e_ref, abs=1e-11)
    rho, rho_ref = (np.outer(c, c) for c in (state.orbital_coeffs, chi_ref))
    assert np.abs(rho - rho_ref).max() < 1e-9 * np.abs(rho_ref).max()


@pytest.mark.parametrize("model", ["1d", "2d"])
@pytest.mark.parametrize("r", [0.02, 0.084, 0.3, 0.6, 0.8, 1.0, 1.2])
def test_family_matches_general_path(r, model):
    """Preset calls, and one call with the preset passed as an explicit
    basis, against the preset assembled and solved at r, also above the
    presets' range (r0 = 0.1)."""
    trion = preset_basis("trion" + model)
    for sigma, charge in POINTS:
        ref = general_trion(r, sigma, charge, trion)[0].energies[0]
        assert trion_energy(r, sigma, charge, model) == pytest.approx(
            ref, abs=CONTRACT_TOL)
    # the preset passed as an explicit basis, at the last point
    assert trion_energy(r, sigma, charge, model, trion) == pytest.approx(
        ref, abs=CONTRACT_TOL)
    exciton = preset_basis("exciton" + model)
    ref = general_exciton(r, exciton)[0].energies[0]
    assert exciton_ground(r, model) == pytest.approx(ref, abs=CONTRACT_TOL)
    assert exciton_ground(r, model, exciton) == pytest.approx(
        ref, abs=CONTRACT_TOL)
    _check_scf(scf(r, model), r, preset_basis("hf" + model))


@pytest.mark.parametrize("model", ["1d", "2d"])
@pytest.mark.parametrize("r", [0.02, 0.3])
def test_family_spectra_match_general_path(r, model):
    """Back-transformed coefficients give the same scaled basis, ground
    energy and angular densities as the solve assembled at r."""
    spec, basis = trion_spectrum(r, 0.93, "-", model)
    ref, ref_basis = general_trion(r, 0.93, "-", preset_basis("trion" + model))
    assert basis == ref_basis
    assert spec.retained_dim == _singlet_dim(ref_basis)
    assert spec.energies[0] == pytest.approx(ref.energies[0],
                                             abs=CONTRACT_TOL)
    P = trion_probability(spec, basis, 41).values
    P_ref = trion_probability(ref, ref_basis, 41).values
    assert np.abs(P - P_ref).max() < 1e-9 * P_ref.max()
    spec, basis = exciton_spectrum(r, model)
    ref, ref_basis = general_exciton(r, preset_basis("exciton" + model))
    assert basis == ref_basis
    assert np.allclose(exciton_probability(spec, basis, 41).values,
                       exciton_probability(ref, ref_basis, 41).values,
                       rtol=0, atol=1e-12)


# --- exchange sectors --------------------------------------------------------
@pytest.mark.parametrize("model", ["1d", "2d"])
def test_exchange_leaves_preset_matrices_invariant(model):
    """P, the exchange of the two identical carriers, is the loop-built
    image of each basis function and leaves S0, Ka, Km and U0 invariant."""
    basis = preset_basis("trion" + model)
    r0 = basis.r0
    Ka = assemble_kinetic(basis, 0.0, r0)
    mats = (assemble_overlap(basis), Ka, assemble_kinetic(basis, 1.0, r0) - Ka,
            assemble_potential(basis, r0))
    P = exchange_permutation(basis)
    T_sym, T_anti = exchange_sectors(basis)
    a = np.arange(len(P))
    assert np.array_equal(P[P], a)
    assert np.array_equal(np.abs(T_anti[P]), np.abs(T_anti))
    assert np.array_equal(T_sym[P], T_sym)
    for M in mats:
        assert np.abs(M[np.ix_(P, P)] - M).max() <= 1e-15 * np.abs(M).max()


def _retained_in(T, S):
    """Orthogonalizer of the overlap S within the columns of T, with the
    modes below DROP_TOL times the largest eigenvalue of the whole S
    dropped."""
    e, v = np.linalg.eigh(T.T @ S @ T)
    keep = e > solver.DROP_TOL * np.linalg.eigvalsh(S).max()
    return T @ v[:, keep] / np.sqrt(e[keep])


def _singlet_dim(basis):
    """Retained modes of the oracle's exchange-symmetric sector."""
    T_sym = exchange_sectors(basis)[0]
    return _retained_in(T_sym, assemble_overlap(basis)).shape[1]


def _lowest_in(T, t):
    """Lowest energy of the assembled trion t within the columns of T."""
    X = _retained_in(T, t.S)
    return np.linalg.eigvalsh(X.T @ (t.K + t.U) @ X)[0]


@pytest.mark.parametrize("model", ["1d", "2d"])
@pytest.mark.parametrize("r", [0.02, 0.084, 0.3])
def test_singlet_sector_holds_the_ground_state(r, model):
    """On the contract grid the singlet E_T equals the whole-space solve
    assembled at r and its exchange-symmetric sector, and the lowest
    antisymmetric state of the solve at r lies well above it, so the
    family loses nothing by keeping the symmetric sector alone."""
    b = scale_exponents(preset_basis("trion" + model), r)
    T_sym, T_anti = exchange_sectors(b)
    for sigma, charge in POINTS:
        t = assemble_trion(b, r, sigma, charge)
        ref = solve_generalized(t.K + t.U, t.S).energies[0]
        e_t = trion_energy(r, sigma, charge, model)
        assert e_t == pytest.approx(ref, abs=CONTRACT_TOL)
        assert _lowest_in(T_sym, t) == pytest.approx(ref, abs=CONTRACT_TOL)
        assert _lowest_in(T_anti, t) > e_t + 0.4


def test_trion_energy_diagonalizes_the_singlet_sector_alone(monkeypatch):
    """trion_energy and trion_spectrum solve the singlet sector of the
    presets alone: 138 of the 246 retained modes in 2D, 66 of 110 in 1D,
    as many as the oracle's symmetric sector keeps."""
    dims, lowest = [], solver._lowest

    def counted(h):
        dims.append(h.shape)
        return lowest(h)
    monkeypatch.setattr(solver, "_lowest", counted)
    trion_energy(0.1, 0.5, "-", "2d")
    binding_energy(0.1, 0.5, "+", "1d")
    assert dims == [(138, 138), (66, 66)]
    for model, dim in (("2d", 138), ("1d", 66)):
        assert trion_spectrum(0.1, 0.5, "-", model)[0].retained_dim == dim
        fam = solver.preset_family("trion" + model, DEFAULT_QUAD)
        assert fam.X.shape[1] == dim == _singlet_dim(fam.basis)


@pytest.mark.parametrize("model", ["1d", "2d"])
def test_lowest_is_scipy_eigh_bit_for_bit(model):
    """`_lowest` returns the value of scipy's eigh in index range (0, 0)
    bit for bit: the preset blocks on the contract grid, and in 2D the
    family of a basis without exchange symmetry."""
    from scipy.linalg import eigh
    points = [(r, s, c, None) for r in (0.02, 0.084, 0.3) for s, c in POINTS]
    if model == "2d":
        points += [(0.05, 0.7, "-", UNEQUAL_IJ), (0.2, 0.93, "+", UNEQUAL_IJ)]
    for r, sigma, charge, basis in points:
        h = solver._trion(r, sigma, charge, model, basis, DEFAULT_QUAD)[3]
        want = eigh(h, eigvals_only=True, subset_by_index=(0, 0))[0]
        assert solver._lowest(h) == want, (r, sigma, charge)


@pytest.mark.parametrize("model", ["1d", "2d"])
def test_exciton_ground_is_the_spectrum_ground_bit_for_bit(model):
    """The eigenvalue-only exciton solve equals the ground energy of
    `exciton_spectrum` bit for bit, for the preset and explicit bases."""
    bases = [None, preset_basis("exciton" + model),
             _detuned("exciton" + model, 0.2)]
    for r in (0.02, 0.084, 0.3, 1.0):
        for basis in bases:
            spec, _ = exciton_spectrum(r, model, basis)
            assert exciton_ground(r, model, basis) == spec.energies[0]


def test_lowest_queries_the_workspace_once_per_dimension(monkeypatch):
    """The dsyevr workspace is queried once for each matrix size and
    reused by every later solve of that size."""
    sizes, load = [], solver._lapack

    def counted():
        drv, query = load()
        return drv, lambda n, **kw: sizes.append(n) or query(n=n, **kw)
    monkeypatch.setattr(solver, "_lapack", counted)
    solver._syevr.cache_clear()
    try:
        for r in (0.05, 0.1, 0.2):
            for model in ("2d", "1d"):
                binding_energy(r, 0.5, "-", model)
                trion_energy(r, 0.93, "+", model)
        assert sizes == [138, 66]
    finally:
        solver._syevr.cache_clear()


@pytest.mark.parametrize("model", ["1d", "2d"])
def test_lowest_without_the_flapack_file_uses_get_lapack_funcs(model,
                                                               monkeypatch):
    """Where scipy keeps no `linalg/_flapack` file, `_lowest` takes dsyevr
    from `get_lapack_funcs` and still equals scipy's eigh bit for bit on
    every block of `test_lowest_is_scipy_eigh_bit_for_bit`."""
    import scipy.linalg
    calls, get = [], scipy.linalg.get_lapack_funcs

    def counted(names, *args, **kwargs):
        calls.append(names)
        return get(names, *args, **kwargs)
    monkeypatch.setattr(solver, "_flapack_file", lambda: None)
    monkeypatch.setattr(scipy.linalg, "get_lapack_funcs", counted)
    solver._syevr.cache_clear()
    try:
        test_lowest_is_scipy_eigh_bit_for_bit(model)
        assert calls and set(calls) == {("syevr", "syevr_lwork")}
    finally:
        solver._syevr.cache_clear()


def test_scipy_linalg_imported_after_lowest_reuses_its_flapack():
    """In a fresh process `_lowest` loads `_flapack` without importing
    scipy.linalg; a later `import scipy.linalg` takes the same module
    (one in the process), and its eigh equals `_lowest` in both models."""
    code = "\n".join([
        "import sys, trionlab.solver as s",
        "hs = [s._trion(0.1, 0.5, '-', m, None, s.DEFAULT_QUAD)[3]",
        "      for m in ('1d', '2d')]",
        "es = [s._lowest(h) for h in hs]",
        "assert 'scipy.linalg' not in sys.modules",
        "loaded = sys.modules['scipy.linalg._flapack']",
        "from scipy.linalg import _flapack, eigh",
        "named = [m for m in list(sys.modules.values())",
        "         if getattr(m, '__name__', '') == 'scipy.linalg._flapack']",
        "assert _flapack is loaded and named == [loaded], named",
        "print(*(eigh(h, eigvals_only=True, subset_by_index=(0, 0))[0] == e",
        "        for h, e in zip(hs, es)))"])
    assert _imported(["-c", code])[0].split() == ["True", "True"]


def test_optimize_steps_after_a_probe_drops_a_mode():
    """At this trion1d start the probe x + GRAD_STEP e_1 crosses a point
    where the orthogonalizer drops a mode (58 to 57 retained), so the
    central difference of e_1 reads +0.075 against a true -0.0097 and no
    line-search step lowers the energy.  `optimize` then probes once more
    at GRAD_STEP / 10 and takes a step instead of stopping."""
    start = (0.15337306869997733, 0.1382143193091151, 1.6026130377800847,
             9.365110676657972, 47.688426022213214)
    x = np.log(start)
    dims = [solver.family("trion", tied_basis("trion", "1d", (tuple(exps),)),
                          DEFAULT_QUAD).X.shape[1]
            for exps in (start, np.exp(x + GRAD_STEP * np.eye(5)[1]))]
    assert dims == [58, 57]
    run = optimize("trion", "1d", (start,), max_steps=1)
    assert run.accepted == 1 and run.history[1] < run.history[0]
    assert run.history[1] == pytest.approx(-8.845872517153133, rel=1e-12)


@pytest.mark.parametrize("h", [
    np.where(np.eye(4) == 0, 0.5, np.nan), np.diag([1.0, np.inf, 2.0, 3.0]),
    np.full((4, 4), -1e308)], ids=["nan", "inf", "overflow"])
def test_lowest_refuses_non_finite_results(h):
    """A NaN or inf entry (dsyevr info 4) or an eigenvalue that overflows
    (info 0, -inf) raises instead of returning a number."""
    with pytest.raises(ValueError, match="eigensolve failed"):
        solver._lowest(h)


def test_family_refuses_matrices_not_exactly_symmetric(monkeypatch):
    """The assembly builds every assembled factor of a family symmetric
    bit for bit, so a part off by 1e-14 of its size across the diagonal
    is refused."""
    def skewed(basis, r, quad):
        U = assemble_potential(basis, r, quad).copy()
        U[0, 1] += 1e-14 * np.abs(U).max()
        return U
    monkeypatch.setattr(solver, "assemble_potential", skewed)
    with pytest.raises(ValueError, match="exactly symmetric"):
        solver.family("trion", preset_basis("trion1d"), DEFAULT_QUAD)


UNEQUAL_IJ = BasisSpec(AxialBasis((0.2, 1.5, 9.0), (0.3, 2.0, 8.0),
                                  (0.1, 1.7)), AngularSet.FULL4, "2d")
TWO_LABELS = BasisSpec(AxialBasis((0.2, 1.5, 9.0), (0.2, 1.5, 9.0),
                                  (0.1, 1.7)), AngularSet.EXCITON_PAIR, "2d")


@pytest.mark.parametrize("basis", [UNEQUAL_IJ, TWO_LABELS],
                         ids=["unequal_ij", "two_labels"])
def test_basis_without_exchange_symmetry_has_one_sector(basis):
    """Unequal carrier exponents, or the two-label angular set that the
    exchange does not keep: every retained mode, and the energies of the
    solve assembled at r."""
    assert exchange_permutation(basis) is None
    for r, sigma, charge in ((0.05, 0.7, "-"), (0.2, 0.93, "+")):
        ref = general_trion(r, sigma, charge, basis)[0]
        assert trion_energy(r, sigma, charge, "2d", basis) == pytest.approx(
            ref.energies[0], abs=CONTRACT_TOL)
        spec, _ = trion_spectrum(r, sigma, charge, "2d", basis)
        assert spec.retained_dim == ref.retained_dim


def _detuned(kind, r0):
    """The preset exponents moved by 0.8 and 1.2 in turn, referred to r0.

    Moved by 1.25 and 0.85 instead, the 2D trion basis is so near linear
    dependence that the reference itself moves by up to 3e-10 Ry* when
    its basis functions are reordered; these factors keep that spread
    near 1e-11, well inside CONTRACT_TOL.
    """
    b = preset_basis(kind)

    def move(al):
        return tuple(a * (0.8, 1.2)[i % 2] for i, a in enumerate(al))
    ax = AxialBasis(move(b.axial.alphas_i), move(b.axial.alphas_j),
                    move(b.axial.alphas_k))
    return BasisSpec(ax, b.angular, b.model, r0=r0)


@pytest.mark.parametrize("model", ["1d", "2d"])
@pytest.mark.parametrize("r0, r", [(0.1, 0.1), (0.1, 0.02), (0.2, 0.3)],
                         ids=["r=r0", "r<r0", "r0=0.2"])
def test_explicit_basis_matches_general_path(r0, r, model):
    """Non-preset exponents, with r0 = 0.1 and not, and r equal to r0
    and not: the family of the basis against the solve assembled at r."""
    trion = _detuned("trion" + model, r0)
    spec, basis = trion_spectrum(r, 0.5, "-", model, trion)
    ref, ref_basis = general_trion(r, 0.5, "-", trion)
    assert basis == ref_basis
    assert spec.retained_dim == _singlet_dim(ref_basis)
    assert spec.energies[0] == pytest.approx(ref.energies[0],
                                             abs=CONTRACT_TOL)
    assert trion_energy(r, 0.93, "+", model, trion) == pytest.approx(
        general_trion(r, 0.93, "+", trion)[0].energies[0], abs=CONTRACT_TOL)
    exciton = _detuned("exciton" + model, r0)
    assert exciton_ground(r, model, exciton) == pytest.approx(
        general_exciton(r, exciton)[0].energies[0], abs=CONTRACT_TOL)
    hf = _detuned("hf" + model, r0)
    _check_scf(scf(r, model, hf), r, hf)


@pytest.mark.parametrize("model", ["1d", "2d"])
def test_scf_of_a_jittered_hf_basis_matches_general_path(model):
    """The hf preset's exponents each scaled by a seeded factor in
    [0.7, 1.4], at r = 0.1: the mean field against the oracle's loop."""
    b = preset_basis("hf" + model)
    f = np.random.default_rng(29000).uniform(0.7, 1.4, len(b.axial.alphas_i))
    hf = BasisSpec(AxialBasis(tuple(b.axial.alphas_i * f), b.axial.alphas_j,
                              b.axial.alphas_k), b.angular, b.model)
    _check_scf(scf(0.1, model, hf), 0.1, hf)


KRONECKER_BASES = {
    **{kind: preset_basis(kind) for kind in (
        "trion1d", "trion2d", "exciton1d", "exciton2d", "hf1d", "hf2d")},
    "unequal_ij": UNEQUAL_IJ, "two_labels": TWO_LABELS,
    **{f"{kind}_detuned_r0={r0}": _detuned(kind, r0)
       for kind in ("trion1d", "trion2d", "exciton2d", "hf2d")
       for r0 in (0.1, 0.2)},
}


@pytest.mark.parametrize("name", list(KRONECKER_BASES))
def test_overlap_and_exchange_are_kronecker_products(name):
    """The identities the family rests on: S0 = S_ax (x) O bit for bit,
    with S_ax = pi/sqrt(D) entry by entry (row index (i, j, k)), and the
    exchange P = P_ax (x) m, both built here by loops."""
    basis = KRONECKER_BASES[name]
    ax, L = basis.axial, basis.angular.size
    rows = [(i, j, k) for i in range(len(ax.alphas_i))
            for j in range(len(ax.alphas_j)) for k in range(len(ax.alphas_k))]
    S_ax = np.array([[axial_kernels(
        ax.alphas_i[i], ax.alphas_i[ip], ax.alphas_j[j], ax.alphas_j[jp],
        ax.alphas_k[k], ax.alphas_k[kp])[0] for ip, jp, kp in rows]
        for i, j, k in rows])
    np.testing.assert_array_equal(axial_matrices(basis)[0], S_ax)
    np.testing.assert_array_equal(assemble_overlap(basis),
                                  np.kron(S_ax, ANGULAR_OVERLAP[:L, :L]))
    P = exchange_permutation(basis)
    if tuple(ax.alphas_i) != tuple(ax.alphas_j) or L == 2:
        assert P is None and exchange_factors(basis) is None
        return
    p_ax = np.array([rows.index((j, i, k)) for i, j, k in rows])
    m = np.array((0, 2, 1, 3)[:L])
    np.testing.assert_array_equal(P, [p_ax[a] * L + m[l]
                                      for a in range(len(rows))
                                      for l in range(L)])
    got_p_ax, got_m = exchange_factors(basis)
    np.testing.assert_array_equal(got_p_ax, p_ax)
    np.testing.assert_array_equal(got_m, m)


def _random_trion(model, rng):
    """A preset trion basis with every tied exponent moved by a factor
    drawn from [0.9, 1.1]."""
    return tied_basis("trion", model, tuple(
        tuple(a * rng.uniform(0.9, 1.1) for a in group)
        for group in preset_groups("trion" + model)))


def _reordered_reference(r, sigma, charge, basis, rng):
    """Median ground energy of the solve assembled at r over the given
    order of the basis functions and two random reorderings.  Near-
    dependent random bases move one solve by up to 3e-10 Ry* with the
    order alone; the median of three is within 4e-11 of the family."""
    t = assemble_trion(scale_exponents(basis, r), r, sigma, charge)
    H, orders = t.K + t.U, [np.arange(len(t.S))]
    orders += [rng.permutation(len(t.S)) for _ in range(2)]
    return np.median([solve_generalized(H[np.ix_(p, p)],
                                        t.S[np.ix_(p, p)]).energies[0]
                      for p in orders])


@pytest.mark.parametrize("model", ["1d", "2d"])
def test_random_explicit_trion_bases_match_general_path(model):
    """20 seeded random exchange-symmetric bases per model: the family
    keeps as many singlet modes as the oracle's symmetric sector, its X0
    is exchange symmetric bit for bit, and E_T and the lowest singlet
    energy match the solve assembled at r = 0.1 and 0.3."""
    rng, orders = np.random.default_rng(19), np.random.default_rng(20)
    for n in range(20):
        basis = _random_trion(model, rng)
        fam = solver.family("trion", basis, DEFAULT_QUAD)
        np.testing.assert_array_equal(fam.X[exchange_permutation(basis)],
                                      fam.X)
        dim = _singlet_dim(basis)
        for r, (sigma, charge) in ((0.1, POINTS[n % 5]),
                                   (0.3, POINTS[(n + 2) % 5])):
            ref = _reordered_reference(r, sigma, charge, basis, orders)
            assert trion_energy(r, sigma, charge, model, basis) == \
                pytest.approx(ref, abs=CONTRACT_TOL)
            spec, _ = trion_spectrum(r, sigma, charge, model, basis)
            assert spec.retained_dim == dim
            assert spec.energies[0] == pytest.approx(ref, abs=CONTRACT_TOL)


def test_explicit_trion_family_builds_from_the_factors(monkeypatch):
    """An explicit trion2d call assembles no full overlap or kinetic
    matrix, and no eigh of the family sees more than the 40 modes of the
    axial factor's even sector (the angular table's sectors have 3 and 1,
    the axial odd sector 24)."""
    calls, shapes, eigh = [], [], np.linalg.eigh

    def counted(M):
        shapes.append(np.shape(M))
        return eigh(M)
    monkeypatch.setattr(np.linalg, "eigh", counted)
    for name in ("assemble_overlap", "assemble_kinetic"):
        def refused(*args, name=name):
            calls.append(name)
        for module in (assembly, solver):
            monkeypatch.setattr(module, name, refused, raising=False)
    trion_energy(0.1, 0.5, "-", "2d", _detuned("trion2d", 0.1))
    assert calls == []
    assert sorted(shapes) == [(1, 1), (3, 3), (24, 24), (40, 40)]


def test_explicit_basis_assembles_once_and_caches_nothing(monkeypatch):
    """One explicit trion call assembles the potential once, at the
    basis's own r0; `optimize` adds no preset family."""
    quad = QuadratureSpec(outer_order=21)   # a quadrature no other test uses
    calls = []

    def counted(basis, r, q):
        calls.append(r)
        return assemble_potential(basis, r, q)
    monkeypatch.setattr(solver, "assemble_potential", counted)
    basis = _detuned("trion1d", 0.2)
    trion_energy(0.07, 0.5, "-", "1d", basis, quad)
    assert calls == [0.2]
    cached = solver.preset_family.cache_info().currsize
    for problem in ("exciton", "hf", "trion"):
        optimize(problem, "1d", ((0.1, 1.0, 10.0),), max_steps=1, quad=quad)
    assert solver.preset_family.cache_info().currsize == cached


def test_sweep_assembles_each_preset_once(monkeypatch):
    """A sweep over sigma assembles the trion potential once, at r0."""
    quad = QuadratureSpec(outer_order=20)   # a family no other test built
    calls = []

    def counted(basis, r, q):
        calls.append(r)
        return assemble_potential(basis, r, q)
    monkeypatch.setattr(solver, "assemble_potential", counted)
    sweep_sigma(0.15, [0.0, 0.5, 1.0], "1d", quad)
    sweep_sigma(0.25, [0.3], "1d", quad)
    assert calls == [preset_basis("trion1d").r0]


def _imported(args):
    """stdout of `python -X importtime <args>` and the modules it imported."""
    src = os.path.dirname(os.path.dirname(trionlab.__file__))
    proc = subprocess.run([sys.executable, "-X", "importtime", *args],
                          capture_output=True, text=True, check=True,
                          timeout=300, env=dict(os.environ, PYTHONPATH=src))
    names = {line.rsplit("|", 1)[1].strip()
             for line in proc.stderr.splitlines()
             if line.startswith("import time:") and "|" in line}
    return proc.stdout, names - {"imported package"}


def _numerics(names, prefixes=("numpy", "scipy")):
    return sorted(n for n in names if n.split(".")[0] in prefixes)


def test_nothing_assembled_or_scipy_linalg_loaded_at_import(tmp_path):
    """Importing the package or the CLI assembles nothing and loads no
    scipy solver; a bare `import trionlab` and a warm cache hit load no
    numerics at all, and a hit loads no package module but `cli` and
    `cache`; cold `bands`, `masses`, `exciton` and `hf` runs load no
    scipy, `masses` not even numpy, and `exciton` and `hf` at --radius
    neither `analysis` nor `tightbinding`; cold `trion` and `sweep-sigma`
    runs import no scipy module (`solver._lapack` loads the `_flapack`
    extension alone, and the default quadrature's tables are shipped),
    and no cold run loads `numpy.polynomial`, which only table fits use."""
    code = ("import sys, trionlab.cli, trionlab.solver as s; "
            "assert s.preset_family.cache_info().currsize == 0; "
            "assert 'scipy.optimize' not in sys.modules; "
            "assert 'scipy.linalg' not in sys.modules")
    _imported(["-c", code])
    assert _numerics(_imported(["-c", "import trionlab"])[1]) == []
    argv = ["-m", "trionlab.cli", "trion", "--radius", "0.1", "--model", "1d",
            "--cache-dir", str(tmp_path)]
    cold, names = _imported(argv)
    assert "scipy.special" not in names
    warm, names = _imported(argv)
    assert warm == cold
    assert _numerics(names) == []
    assert {n for n in names if n.split(".")[0] == "trionlab"} <= {
        "trionlab", "trionlab.cli", "trionlab.cache"}
    for argv in (["bands", "--chirality", "4,2", "--points", "5"],
                 ["masses", "--chirality", "6,5"],
                 ["hf", "--radius", "0.3"],
                 ["exciton", "--radius", "0.2", "--model", "1d"]):
        _, names = _imported(["-m", "trionlab.cli", *argv, "--no-cache"])
        assert ("numpy" in names) == (argv[0] != "masses")
        assert _numerics(names, ("scipy",)) == []
        assert "numpy.polynomial" not in names
        if "--radius" in argv:
            assert not names & {"trionlab.analysis", "trionlab.tightbinding"}
    for argv in (["trion", "--chirality", "6,5"],
                 ["sweep-sigma", "--radius", "0.1", "--points", "3",
                  "--model", "1d"]):
        _, names = _imported(["-m", "trionlab.cli", *argv, "--no-cache"])
        assert _numerics(names, ("scipy",)) == []
        assert "numpy.polynomial" not in names


def test_outer_order_default_is_the_quadrature_default():
    """Every --outer-order default is `QuadratureSpec`'s, so a default cold
    run reads the shipped tables and fits none."""
    from trionlab.cli import build_parser
    commands = build_parser()[1]
    defaults = {name: sub.get_default("outer_order")
                for name, sub in commands.items()
                if sub.get_default("outer_order") is not None}
    assert set(defaults) == set(commands) - {"masses", "bands"}
    assert set(defaults.values()) == {QuadratureSpec().outer_order}
    code = ("import trionlab.angular as a; from trionlab.cli import main; "
            "fits, fit = [], a.outer_rule; "
            "a.outer_rule = lambda q: fits.append(q) or fit(q); "
            "main(['trion', '--radius', '0.1', '--no-cache']); "
            "main(['hf', '--radius', '0.3', '--no-cache']); print(len(fits))")
    assert _imported(["-c", code])[0].split()[-1] == "0"


def test_sincorr_tail_fitted_only_off_the_shipped_tables():
    """The Chebyshev tail of `sincorr_weight` is fitted on first use: not at
    import, nor by 2D trion and HF solves on the shipped tables, but by
    the first table fit of another quadrature."""
    code = ("import trionlab.angular as a, trionlab.solver as s, "
            "trionlab.hartree_fock as h; "
            "fits = a._fit_tail.cache_info; n = fits().currsize; "
            "s.trion_energy(0.1, 0.5); h.scf(0.3); m = fits().currsize; "
            "s.trion_energy(0.1, 0.5, quad=s.DEFAULT_QUAD.refined()); "
            "print(n, m, fits().currsize)")
    assert _imported(["-c", code])[0].split() == ["0", "0", "1"]


PUBLIC = {
    "basis": ("AngularSet", "AxialBasis", "BasisSpec", "coulomb_potential",
              "preset_basis", "scale_exponents"),
    "hartree_fock": ("HFState", "hf_binding_energy", "scf"),
    "optimizer": ("OptimizationRun", "optimize"),
    "quadrature": ("QuadratureSpec",),
    "solver": ("Spectrum", "TrionResult", "binding_energy", "exciton_energy",
               "solve_generalized", "trion_energy"),
    "tightbinding": ("ChiralIndex", "EffectiveMasses", "TightBindingParams",
                     "effective_masses", "enumerate_species",
                     "fermi_velocity", "is_semiconducting", "radius"),
    "units": ("EffectiveUnits", "Environment", "dimensionless_radius",
              "effective_units", "to_physical_energy"),
}


def test_public_names_resolve_to_their_submodules():
    """Every name of `__all__` is the object of its submodule, a star
    import binds them all, submodules still import through `from`, and
    an unknown name raises AttributeError."""
    homes = {n: mod for mod, names in PUBLIC.items() for n in names}
    assert sorted(trionlab.__all__) == sorted(homes)
    for name, mod in homes.items():
        sub = importlib.import_module("trionlab." + mod)
        assert getattr(trionlab, name) is getattr(sub, name), name
    scope = {}
    exec("from trionlab import *", scope)
    assert {n: scope[n] for n in homes} == \
        {n: getattr(trionlab, n) for n in homes}
    from trionlab import analysis
    assert analysis is importlib.import_module("trionlab.analysis")
    with pytest.raises(AttributeError, match="no_such_name"):
        trionlab.no_such_name


# --- the identities the family rests on --------------------------------------
def _rel(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


@settings(max_examples=4, deadline=None)
@given(r=st.floats(0.02, 0.3), sigma=st.floats(0.0, 2.0),
       model=st.sampled_from(["1d", "2d"]))
def test_trion_matrices_scale_with_radius(r, sigma, model):
    """S(r) = x^2 S0, K(r) = K0 and U(r) = x U0 with x = r/r0."""
    b0 = preset_basis("trion" + model)
    x = r / b0.r0
    b = scale_exponents(b0, r)
    assert _rel(assemble_overlap(b), x ** 2 * assemble_overlap(b0)) < 1e-12
    assert _rel(assemble_kinetic(b, sigma, r),
                assemble_kinetic(b0, sigma, b0.r0)) < 1e-12
    assert _rel(assemble_potential(b, r),
                x * assemble_potential(b0, b0.r0)) < 1e-12


@settings(max_examples=4, deadline=None)
@given(r=st.floats(0.02, 0.3), kind=st.sampled_from(
    ["exciton1d", "exciton2d", "hf1d", "hf2d"]))
def test_pair_matrices_scale_with_radius(r, kind):
    """S(r) = x S0, K(r) = K0/x, U(r) = U0 and V4(r) = x V4_0."""
    b0 = preset_basis(kind)
    x = r / b0.r0
    b = scale_exponents(b0, r)
    t, t0 = assemble_exciton(b, r), assemble_exciton(b0, b0.r0)
    assert _rel(t.S, x * t0.S) < 1e-12
    assert _rel(t.K, t0.K / x) < 1e-12
    assert _rel(t.U, t0.U) < 1e-12
    n_ang = b0.angular.size
    assert _rel(repulsion_tensor(b.axial.alphas_i, r, n_ang),
                x * repulsion_tensor(b0.axial.alphas_i, b0.r0, n_ang)) < 1e-12


# --- input checks -------------------------------------------------------------
BAD_R = [float("nan"), float("inf"), -float("inf"), 0.0, -0.1]
BAD_SIGMA = [float("nan"), float("inf"), -0.5]
SMALL = preset_basis("exciton1d")


def _r_entry_points(r):
    b = scale_exponents(preset_basis("trion1d"), 0.1)
    return [
        lambda: exciton_ground(r), lambda: exciton_energy(r, "1d"),
        lambda: exciton_spectrum(r), lambda: trion_energy(r, 0.5),
        lambda: trion_spectrum(r, 0.5, "-", "1d"),
        lambda: binding_energy(r, 0.5), lambda: binding_both_charges(r, 0.5),
        lambda: scf(r), lambda: hf_binding_energy(r, "1d"),
        lambda: hf_pair_probability(r), lambda: sweep_sigma(r, [0.5]),
        lambda: sweep_radius([r], models=("1d",)),
        lambda: exciton_ground(r, "1d", SMALL),
        lambda: trion_energy(r, 0.5, "-", "1d", preset_basis("trion1d")),
        lambda: scf(r, "1d", preset_basis("hf1d")),
        lambda: scale_exponents(b, r), lambda: coulomb_potential(1.0, 0.5, r),
        lambda: assemble_kinetic(b, 0.5, r), lambda: assemble_potential(b, r),
        lambda: assemble_exciton(SMALL, r),
        lambda: repulsion_tensor((1.0,), r, 1),
    ]


@pytest.mark.parametrize("r", BAD_R)
def test_bad_radius_rejected_everywhere(r):
    for call in _r_entry_points(r):
        with pytest.raises(ValueError, match="radius r must be finite and "
                           "positive"):
            call()


@pytest.mark.parametrize("sigma", BAD_SIGMA)
def test_bad_sigma_rejected_everywhere(sigma):
    b = scale_exponents(preset_basis("trion1d"), 0.1)
    for call in [lambda: trion_energy(0.1, sigma),
                 lambda: trion_energy(0.1, sigma, "+", "1d"),
                 lambda: trion_spectrum(0.1, sigma),
                 lambda: binding_energy(0.1, sigma, "-", "1d"),
                 lambda: binding_both_charges(0.1, sigma, "1d"),
                 lambda: sweep_sigma(0.1, [sigma], "1d"),
                 lambda: trion_energy(0.1, sigma, "-", "1d",
                                      preset_basis("trion1d")),
                 lambda: assemble_kinetic(b, sigma, 0.1),
                 lambda: mixing_weight(sigma, "-")]:
        with pytest.raises(ValueError, match="sigma must be finite"):
            call()


@pytest.mark.parametrize("argv", [
    ["trion", "--radius", "nan", "--sigma", "0.5"],
    ["trion", "--radius", "0.1", "--sigma", "nan"],
    ["trion", "--radius", "0.1", "--sigma", "inf", "--model", "1d"],
    ["exciton", "--radius", "inf"],
    ["exciton", "--radius", "-0.1", "--model", "1d"],
    ["hf", "--radius", "nan"],
    ["probability", "--radius", "nan", "--kind", "exciton"],
    ["sweep-sigma", "--radius", "nan", "--points", "2"],
])
def test_cli_rejects_non_finite_inputs(argv, capsys):
    assert main(argv + ["--no-cache"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "radius r" in err or "sigma" in err


# --- bound states -------------------------------------------------------------
def test_preset_without_bound_state_raises():
    for call in [lambda: exciton_ground(1e-3, "1d"),
                 lambda: exciton_energy(1e-3),
                 lambda: trion_energy(1e-3, 0.9, "-", "1d"),
                 lambda: trion_spectrum(1e-3, 0.9),
                 lambda: binding_both_charges(1e-3, 0.9, "1d"),
                 lambda: scf(1e-3, "1d"),
                 lambda: hf_binding_energy(1e-3)]:
        with pytest.raises(ValueError, match=r"r=0\.001 is below R_MIN"):
            call()
    assert main(["exciton", "--radius", "0.003", "--no-cache"]) == 1
    with pytest.raises(ValueError, match=r"no bound state at r=0\.5"):
        solver.check_bound(0.0, 0.5)


@pytest.mark.parametrize("r", [0.01, 0.0199])
def test_preset_below_r_min_raises(r, capsys):
    """Below R_MIN the preset energies stop falling as r shrinks and are
    wrong though negative; every preset entry point refuses such r."""
    assert solver.R_MIN <= 0.02
    for call in [lambda: exciton_spectrum(r, "2d"),
                 lambda: exciton_energy(r, "1d"),
                 lambda: trion_energy(r, 0.9, "+", "2d"),
                 lambda: trion_spectrum(r, 0.0, "-", "1d"),
                 lambda: binding_energy(r, 0.5),
                 lambda: binding_both_charges(r, 0.9, "2d"),
                 lambda: scf(r, "2d"),
                 lambda: hf_binding_energy(r, "1d"),
                 lambda: hf_pair_probability(r, grid_size=5),
                 lambda: sweep_radius([0.1, r], models=("1d",))]:
        with pytest.raises(ValueError, match=f"r={r} is below R_MIN"):
            call()
    assert main(["exciton", "--radius", str(r), "--no-cache"]) == 1
    assert "below R_MIN" in capsys.readouterr().err


@pytest.mark.parametrize("model", ["1d", "2d"])
def test_preset_at_smallest_sweep_radius_still_solves(model):
    both = binding_both_charges(0.02, 0.9, model)
    for res in both.values():
        assert res.E_X < 0 and res.E_T < res.E_X
    assert scf(0.02, model).E_T_HF < 0
