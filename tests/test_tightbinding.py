"""Tight-binding bands, zone folding and effective masses."""
import tracemalloc

import numpy as np
import pytest

from oracle_utils import brute_effective_masses
from trionlab import ChiralIndex, TightBindingParams, effective_masses, \
    enumerate_species, fermi_velocity, is_semiconducting, radius
from trionlab.tightbinding import DEFAULT_PARAMS, _fold, _lattice, \
    cutting_lines, graphene_band, subband_energies


def test_params_validation():
    with pytest.raises(ValueError):
        TightBindingParams(a=-1.0)
    with pytest.raises(ValueError):
        TightBindingParams(s=1.5)
    with pytest.raises(ValueError):
        ChiralIndex(3, 5)
    with pytest.raises(ValueError):
        ChiralIndex(3, -1)


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


def test_effective_masses_metallic_rejected():
    with pytest.raises(ValueError):
        effective_masses(ChiralIndex(6, 3))


def test_effective_masses_step_insensitive():
    em1 = effective_masses(ChiralIndex(7, 5), fd_step=1e-3)
    em2 = effective_masses(ChiralIndex(7, 5), fd_step=5e-4)
    assert em1.m_e == pytest.approx(em2.m_e, rel=5e-3)
    assert em1.m_h == pytest.approx(em2.m_h, rel=5e-3)


# both families, zigzag, near armchair, (4,2), the largest N in 3-15 A
# (2,918 lines) and a 15-20 A tube; then two other parameter sets
EDGE_CASES = [((n, m), DEFAULT_PARAMS) for n, m in [
    (6, 5), (7, 5), (10, 0), (11, 0), (11, 10), (4, 2), (30, 13), (26, 18)]]
EDGE_CASES += [(nm, p) for p in (TightBindingParams(t=-2.7, s=0.0, e2p=0.3),
                                 TightBindingParams(s=0.2))
               for nm in [(6, 5), (10, 0), (4, 2), (17, 4)]]


@pytest.mark.parametrize("nm, p", EDGE_CASES, ids=[
    f"{n},{m}-t{p.t}-s{p.s}-e{p.e2p}" for (n, m), p in EDGE_CASES])
def test_edge_lines_match_all_subband_scan(nm, p):
    """Scanning only the lines next to K and K' must reproduce the scan
    of every subband exactly: same subband, edge, gap and masses."""
    ch = ChiralIndex(*nm)
    assert effective_masses(ch, p) == brute_effective_masses(ch, p)


def test_band_edge_next_to_k_point():
    """For every species in 3-15 A the edge subband*K1 + k_edge*K2hat
    lies within |K1|/2 of an image of K or K'."""
    p = DEFAULT_PARAMS
    _, _, b1, b2 = _lattice(p)
    shifts = np.array([(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1)])
    for ch in enumerate_species(3.0, 15.0, p):
        em = effective_masses(ch, p)
        K1, K2h, _, _ = _fold(ch, p)
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
    effective_masses(ch)    # scipy.optimize import outside the trace
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


def test_fermi_velocity_scales_with_hopping():
    v1 = fermi_velocity()
    v2 = fermi_velocity(TightBindingParams(t=-5.78))
    assert v2 == pytest.approx(2.0 * v1, rel=1e-6)
    # closed form sqrt(3) |t| a / 2 in eV*Angstrom, converted to m/s
    want = np.sqrt(3.0) * 2.89 * 2.46 / 2.0 \
        * 1.602176634e-19 * 1e-10 / 1.054571817e-34
    assert v1 == pytest.approx(want, rel=1e-6)
