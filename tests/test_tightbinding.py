"""Tight-binding bands, zone folding and effective masses."""
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import trionlab
from oracle_utils import brute_effective_masses, extended_masses
from trionlab import ChiralIndex, TightBindingParams, effective_masses, \
    enumerate_species, fermi_velocity, is_semiconducting, radius
from trionlab.tightbinding import DEFAULT_PARAMS, EV_ANGSTROM_PER_HBAR, \
    _fold, _lattice, _line_minimum, cutting_lines, graphene_band, \
    subband_energies


def test_params_validation():
    with pytest.raises(ValueError):
        TightBindingParams(a=-1.0)
    with pytest.raises(ValueError):
        TightBindingParams(s=1.5)
    with pytest.raises(ValueError):
        ChiralIndex(3, 5)
    with pytest.raises(ValueError):
        ChiralIndex(3, -1)


@pytest.mark.parametrize("field", ["t", "s", "a", "e2p"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -np.inf])
def test_params_reject_non_finite(field, value):
    with pytest.raises(ValueError, match=f"parameter {field} must be finite"):
        TightBindingParams(**{field: value})


def test_semiconducting_rule():
    assert is_semiconducting(ChiralIndex(6, 5))
    assert is_semiconducting(ChiralIndex(7, 0))
    assert not is_semiconducting(ChiralIndex(6, 3))
    assert not is_semiconducting(ChiralIndex(5, 5))


def test_radius_values():
    # r = a sqrt(n^2 + nm + m^2) / (2 pi)
    assert radius(ChiralIndex(6, 5)) == pytest.approx(
        2.46 * np.sqrt(91.0) / (2.0 * np.pi))
    assert radius(ChiralIndex(10, 10)) == pytest.approx(
        2.46 * np.sqrt(300.0) / (2.0 * np.pi))


def test_band_at_zone_center_and_k_point():
    p = DEFAULT_PARAMS
    # Gamma: w = 3
    assert graphene_band([0.0, 0.0], p, "conduction") == pytest.approx(
        -3.0 * p.t / (1.0 - 3.0 * p.s))
    assert graphene_band([0.0, 0.0], p, "valence") == pytest.approx(
        3.0 * p.t / (1.0 + 3.0 * p.s))
    # K point of the hexagonal zone: w = 0, bands touch at e2p
    K = np.array([2.0 * np.pi / (np.sqrt(3.0) * p.a),
                  2.0 * np.pi / (3.0 * p.a)])
    assert graphene_band(K, p, "conduction") == pytest.approx(p.e2p, abs=1e-12)
    assert graphene_band(K, p, "valence") == pytest.approx(p.e2p, abs=1e-12)
    with pytest.raises(ValueError):
        graphene_band([0.0, 0.0], p, "sideways")


def test_conduction_above_valence_everywhere():
    rng = np.random.default_rng(11)
    k = rng.uniform(-4.0, 4.0, size=(10000, 2))
    ec = graphene_band(k, DEFAULT_PARAMS, "conduction")
    ev = graphene_band(k, DEFAULT_PARAMS, "valence")
    assert np.all(ec >= ev - 1e-12)


def test_subband_energies_validation():
    with pytest.raises(ValueError):
        subband_energies(ChiralIndex(6, 5), 999, 0.0)


def test_effective_masses_6_5():
    em = effective_masses(ChiralIndex(6, 5))
    assert em.m_e == pytest.approx(0.0803, abs=2e-3)
    assert em.m_h == pytest.approx(0.0866, abs=2e-3)
    assert em.mu == pytest.approx(0.0417, abs=1e-3)
    assert 0.8 < em.sigma < 1.0
    assert em.gap > 0
    # the reduced mass combines the two band masses
    assert em.mu == pytest.approx(em.m_e * em.m_h / (em.m_e + em.m_h))


def test_band_edge_newton_rejects_negative_curvature():
    """Started far along the line, where W'' < 0, Newton's method is not
    approaching a minimum and raises instead of returning a maximum."""
    with pytest.raises(RuntimeError, match="found no minimum on line 60"):
        _line_minimum(ChiralIndex(6, 5), 60, -5.0)


def test_effective_masses_metallic_rejected():
    with pytest.raises(ValueError):
        effective_masses(ChiralIndex(6, 3))


# the defaults, then three other parameter sets (the last moves a too)
PARAM_SETS = [DEFAULT_PARAMS, TightBindingParams(t=-2.7, s=0.0, e2p=0.3),
              TightBindingParams(s=0.2),
              TightBindingParams(t=-3.0, s=0.05, a=2.49, e2p=-0.2)]
# both families, zigzag, near armchair, (4,2), the largest N in 3-15 A
# (2,918 lines) and a 15-20 A tube at the defaults; four at the others
EDGE_CASES = [((n, m), DEFAULT_PARAMS) for n, m in [
    (6, 5), (7, 5), (10, 0), (11, 0), (11, 10), (4, 2), (30, 13), (26, 18)]]
EDGE_CASES += [(nm, p) for p in PARAM_SETS[1:]
               for nm in [(6, 5), (10, 0), (4, 2), (17, 4)]]
# The scan oracle finds the edge by golden-section search (to about
# sqrt(eps) in k) and takes finite differences there: its masses are off
# the extended-precision reference by up to 1.1e-7 relative on
# EDGE_CASES, (30,13) the worst.
ORACLE_REL = 2e-7


def _rel(a, b):
    return abs(a - b) / abs(b)


@pytest.mark.parametrize("nm, p", EDGE_CASES, ids=[
    f"{n},{m}-t{p.t}-s{p.s}-e{p.e2p}" + (f"-a{p.a}" if p.a != 2.46 else "")
    for (n, m), p in EDGE_CASES])
def test_edge_lines_match_all_subband_scan(nm, p):
    """Newton on the lines next to K finds the edge of the scan of every
    subband: the same line up to the time-reversed image N - mu (at -k),
    the same gap, and masses within the scan's own error of the scan and
    within 1e-12 of the extended-precision reference.  The scan's float64
    phases put its own gap off by up to 1.1e-12 ((30,13)), so the 1e-12
    gap check is made against the reference."""
    ch = ChiralIndex(*nm)
    em = effective_masses(ch, p)
    brute = brute_effective_masses(ch, p)
    N, _ = cutting_lines(ch, p)
    sign = 1.0 if em.subband == brute.subband else -1.0
    assert em.subband == (brute.subband if sign > 0 else N - brute.subband)
    assert em.k_edge == pytest.approx(sign * brute.k_edge, abs=1e-7)
    ref = extended_masses(ch, p, em.subband, em.k_edge)
    assert _rel(em.gap, ref.gap) < 1e-12
    assert _rel(em.gap, brute.gap) < 2e-12
    for got, scan, want in [(em.m_e, brute.m_e, ref.m_e),
                            (em.m_h, brute.m_h, ref.m_h)]:
        assert _rel(got, scan) < ORACLE_REL
        assert _rel(got, want) < 1e-12


def _stratified_species():
    """The first species, in (radius, n, m) order, of each family
    (n - m = 1 or 2 mod 3) in each 1.5 A band of 3-15 A: 16 tubes."""
    out = {}
    for ch in enumerate_species(3.0, 15.0):
        key = (int((radius(ch) - 3.0) // 1.5), (ch.n - ch.m) % 3)
        out.setdefault(key, ch)
    return list(out.values())


def test_effective_masses_match_extended_precision_reference():
    """Masses, gap and edge against np.longdouble Richardson tables, for
    every parameter set of EDGE_CASES on a stratified species set."""
    species = _stratified_species()
    assert len(species) == 16
    for p in PARAM_SETS:
        for ch in species:
            em = effective_masses(ch, p)
            ref = extended_masses(ch, p, em.subband, em.k_edge)
            for key in ("m_e", "m_h", "mu", "sigma", "gap"):
                assert _rel(getattr(em, key), getattr(ref, key)) < 1e-12, \
                    (ch, p, key)
            assert em.k_edge == pytest.approx(ref.k_edge, abs=1e-12)


def test_time_reversed_edges_tie_and_lower_line_is_reported():
    """(7,3): the edge next to K on line 53 and its time-reversed image
    next to K' on line N - 53 = 105 at -k have the same gap, so which one
    a scan finds is up to rounding; the lower line is reported."""
    ch = ChiralIndex(7, 3)
    em = effective_masses(ch)
    N, _ = cutting_lines(ch)
    assert (N, em.subband) == (158, 53)
    gaps = [float(np.subtract(*subband_energies(ch, mu, k)))
            for mu, k in [(53, em.k_edge), (105, -em.k_edge)]]
    assert gaps[0] == pytest.approx(gaps[1], rel=1e-14)
    assert em.gap == pytest.approx(gaps[0], rel=1e-13)
    mirror = effective_masses(ch, TightBindingParams(s=0.2, e2p=0.1))
    assert (mirror.subband, mirror.k_edge) == (em.subband, em.k_edge)


def test_band_edge_next_to_k_point():
    """For every species in 3-15 A the edge subband*K1 + k_edge*K2hat
    lies within |K1|/2 of an image of K or K'."""
    p = DEFAULT_PARAMS
    _, _, b1, b2 = _lattice(p)
    shifts = np.array([(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1)])
    for ch in enumerate_species(3.0, 15.0, p):
        em = effective_masses(ch, p)
        K1, K2h, N, _ = _fold(ch, p)
        assert em.subband < N - em.subband     # the lower of the two images
        edge = em.subband * K1 + em.k_edge * K2h
        frac = np.linalg.solve(np.array([b1, b2]).T, edge)
        best = np.inf
        for point in ((2 / 3, 1 / 3), (1 / 3, 2 / 3)):   # K, K'
            d = frac - point
            d -= np.round(d)
            images = (d + shifts) @ np.array([b1, b2])
            best = min(best, np.min(np.linalg.norm(images, axis=1)))
        assert best < np.linalg.norm(K1) / 2, (ch, best)


def test_effective_masses_memory_independent_of_subbands():
    ch = ChiralIndex(36, 1)
    assert cutting_lines(ch)[0] == 2666
    effective_masses(ch)    # first-call imports outside the trace
    tracemalloc.start()
    try:
        effective_masses(ch)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10e6


def test_gap_matches_subband_scan():
    """The reported gap must equal the minimum direct gap over a dense
    independent scan of every subband."""
    ch = ChiralIndex(6, 5)
    em = effective_masses(ch)
    best = np.inf
    N, Tlen = cutting_lines(ch)
    ks = np.linspace(-np.pi / Tlen, np.pi / Tlen, 4001)
    for mu_idx in range(N):
        ec, ev = subband_energies(ch, mu_idx, ks)
        best = min(best, float(np.min(ec - ev)))
    assert em.gap == pytest.approx(best, rel=1e-6)


@pytest.mark.parametrize("r_min, r_max, count",
                         [(3.0, 15.0, 294), (15.0, 20.0, 234)])
def test_enumerate_species_against_double_loop(r_min, r_max, count):
    """Independent re-derivation: every (n >= m >= 0) pair with
    semiconducting character and radius in range, sorted by radius.
    n <= 60 covers every tube up to the zigzag (60, 0) at 23.5 A."""
    want = []
    for n in range(1, 61):
        for m in range(0, n + 1):
            if (n - m) % 3 == 0:
                continue
            r = 2.46 * np.sqrt(n * n + n * m + m * m) / (2.0 * np.pi)
            if r_min <= r <= r_max:
                want.append((r, n, m))
    want.sort()
    got = enumerate_species(r_min, r_max)
    assert [(c.n, c.m) for c in got] == [(n, m) for _, n, m in want]
    assert len(got) == count


@pytest.mark.parametrize("p", PARAM_SETS)
def test_fermi_velocity_is_the_band_slope_at_k(p):
    """The closed form against the numerical slope of `graphene_band` at
    K, one-sided differences Richardson-extrapolated twice."""
    _, _, b1, b2 = _lattice(p)
    K = (2.0 * b1 + b2) / 3.0
    d = b1 / np.linalg.norm(b1)

    def slope(h):
        return (graphene_band(K + h * d, p, "conduction")
                - graphene_band(K, p, "conduction")) / h

    s1, s2, s4 = slope(1e-4), slope(2e-4), slope(4e-4)
    r1, r2 = 2.0 * s1 - s2, 2.0 * s2 - s4   # cancel the O(h) term
    refined = (4.0 * r1 - r2) / 3.0         # cancel the O(h^2) term
    assert abs(refined) * EV_ANGSTROM_PER_HBAR == pytest.approx(
        fermi_velocity(p), rel=1e-7)


def test_fermi_velocity_scales_with_hopping():
    v1 = fermi_velocity()
    v2 = fermi_velocity(TightBindingParams(t=-5.78))
    assert v2 == pytest.approx(2.0 * v1, rel=1e-6)
    # closed form sqrt(3) |t| a / 2 in eV*Angstrom, converted to m/s
    want = np.sqrt(3.0) * 2.89 * 2.46 / 2.0 \
        * 1.602176634e-19 * 1e-10 / 1.054571817e-34
    assert v1 == pytest.approx(want, rel=1e-6)


@pytest.mark.parametrize("r_min, r_max", [(3.0, np.inf), (3.0, np.nan),
                                          (np.nan, 15.0), (-np.inf, 3.0),
                                          (5.0, 3.0)])
def test_enumerate_species_rejects_bad_range(r_min, r_max):
    with pytest.raises(ValueError, match="r_min .* r_max"):
        enumerate_species(r_min, r_max)


def test_enumerate_species_equal_ends_keep_the_species():
    """A one-radius range is valid: it holds the species at that radius."""
    r = radius(ChiralIndex(6, 5))
    assert ChiralIndex(6, 5) in enumerate_species(r, r)


@pytest.mark.parametrize("p", PARAM_SETS)
def test_radius_and_species_equal_the_numpy_forms_bit_for_bit(p):
    """`radius` and `enumerate_species` compute with `math`: on every
    species of 3-15 A they agree bit for bit with the numpy formulas they
    replace (np.sqrt, np.pi, np.isfinite), and radii are Python floats."""
    n_max = int(2.0 * np.pi * 15.0 / p.a) + 1
    want = sorted((p.a * np.sqrt(n * n + n * m + m * m) / (2.0 * np.pi), n, m)
                  for n in range(1, n_max + 1) for m in range(n + 1)
                  if (n - m) % 3)
    want = [(r, n, m) for r, n, m in want if 3.0 <= r <= 15.0]
    for r_min, r_max in ((3.0, 15.0), (np.float64(3.0), np.float64(15.0))):
        got = enumerate_species(r_min, r_max, p)
        assert [(c.n, c.m) for c in got] == [(n, m) for _, n, m in want]
    radii = [radius(c, p) for c in got]
    assert {type(r) for r in radii} == {float}
    assert np.array(radii).tobytes() == \
        np.array([r for r, _, _ in want]).tobytes()


def test_species_and_masses_load_no_numpy():
    """Only the band-structure helpers load numpy: species, radii, band-edge
    masses and the Fermi velocity run on `math` and `cmath` alone."""
    code = ("import sys, trionlab.tightbinding as tb; "
            "[tb.effective_masses(c) for c in tb.enumerate_species(3, 5)]; "
            "tb.radius(tb.ChiralIndex(6, 5)); tb.fermi_velocity(); "
            "assert 'numpy' not in sys.modules, 'numpy loaded'")
    src = os.path.dirname(os.path.dirname(trionlab.__file__))
    subprocess.run([sys.executable, "-c", code], check=True, timeout=300,
                   env=dict(os.environ, PYTHONPATH=src))
