"""Derived results: probability distributions, parameter sweeps, fits.

All sweep functions return lists of plain dicts in deterministic order;
CSV/JSON serialization lives in the CLI.
"""
from dataclasses import dataclass

import numpy as np

from . import tightbinding as tb
from .assembly import assemble_overlap, mixing_weight
from .basis import (AngularSet, BasisSpec, pair_kernels, preset_basis,
                    scale_exponents)
from .hartree_fock import hf_binding_energy, scf
from .quadrature import DEFAULT_QUAD
from .solver import TrionResult, exciton_ground, trion_energy
from .units import (Environment, dimensionless_radius, effective_units,
                    to_physical_energy)

KBT_ROOM_EV = 0.026   # room-temperature scale defining detectability


# --- probability distributions ---------------------------------------------
@dataclass(frozen=True)
class ProbabilityGrid:
    theta: np.ndarray
    values: np.ndarray     # 1D (n,) for excitons, 2D (n, n) for trions
    r: float
    model: str
    method: str


def _angular_moment(coeffs, basis):
    """M[l, l'] = sum over axial indices of S_axial c c'."""
    S_ax = assemble_overlap(BasisSpec(basis.axial, AngularSet.CONSTANT, "1d"))
    cm = coeffs.reshape(len(S_ax), basis.angular.size)
    return cm.T @ S_ax @ cm


def trion_probability(spectrum, basis, grid_size=201, r=None):
    """Angular ground-state density P(theta1, theta2), integral 1."""
    c = spectrum.coefficients[:, 0]
    M = _angular_moment(c, basis)
    th = np.linspace(-np.pi, np.pi, grid_size)
    t1, t2 = np.meshgrid(th, th, indexing="ij")
    L = basis.angular.size
    phis = [np.ones_like(t1), np.abs(np.sin(t1 / 2.0)),
            np.abs(np.sin(t2 / 2.0)), np.abs(np.sin((t1 - t2) / 2.0))][:L]
    P = sum(M[l, lp] * phis[l] * phis[lp]
            for l in range(L) for lp in range(L)) / (4.0 * np.pi ** 2)
    return ProbabilityGrid(th, P, r, basis.model, "full")


def exciton_probability(spectrum, basis, grid_size=201, method="full",
                        r=None):
    """Angular density P(theta) of a single-particle state, integral 1."""
    c = np.asarray(spectrum if isinstance(spectrum, np.ndarray)
                   else spectrum.coefficients[:, 0], float)
    Sax, _ = pair_kernels(basis.axial.alphas_i)
    L = min(basis.angular.size, 2)
    cm = c.reshape(len(Sax), L)
    M = np.einsum("iI,il,Im->lm", Sax, cm, cm)
    th = np.linspace(-np.pi, np.pi, grid_size)
    phis = [np.ones_like(th), np.abs(np.sin(th / 2.0))][:L]
    P = sum(M[l, lp] * phis[l] * phis[lp]
            for l in range(L) for lp in range(L)) / (2.0 * np.pi)
    return ProbabilityGrid(th, P, r, basis.model, method)


def hf_pair_probability(r, model="2d", grid_size=201, quad=DEFAULT_QUAD):
    """Mean-field P(theta1, theta2) = p(theta1) p(theta2) from the SCF orbital."""
    state = scf(r, model, quad=quad)
    basis = scale_exponents(preset_basis("hf" + model), r)
    p1 = exciton_probability(state.orbital_coeffs, basis, grid_size,
                             method="hf", r=r)
    return ProbabilityGrid(p1.theta, np.outer(p1.values, p1.values), r,
                           model, "hf")


def hf_difference(full_grid, hf_grid, guard=1e-12):
    """Percent difference 100 (P_hf - P_full) / P_full, guarded."""
    P = full_grid.values
    return np.where(np.abs(P) < guard, 0.0,
                    100.0 * (hf_grid.values - P) / np.where(P == 0, 1.0, P))


# --- power-law fit ----------------------------------------------------------
@dataclass(frozen=True)
class PowerLawFit:
    A: float
    p: float
    C: float
    residual: float

    def __call__(self, x):
        return self.A * np.asarray(x, float) ** self.p + self.C


def fit_power_law(x, y):
    """Least-squares fit y = A x^p + C by variable projection (Golub &
    Pereyra 1973): for fixed p, A and C are a linear least-squares fit,
    which leaves g(p) = -A sum r x^p ln x, the p-derivative of |r|^2 / 2.
    Its root is bracketed around the log-log slope and bisected down to
    adjacent floats, with elementwise sums only (no BLAS)."""
    x, y = np.asarray(x, float), np.asarray(y, float)
    lx = np.log(x)

    def project(p):
        phi = np.exp(p * lx)
        dphi = phi - phi.mean()
        A = np.sum(dphi * (y - y.mean())) / np.sum(dphi * dphi)
        C = y.mean() - A * phi.mean()
        r = y - A * phi - C
        return -A * np.sum(r * phi * lx), A, C, r

    dlx = lx - lx.mean()
    p0 = np.sum(dlx * np.log(np.maximum(y, 1e-300))) / np.sum(dlx * dlx)
    lo, hi = p0 - 0.5, p0 + 0.5
    for _ in range(60):
        if project(lo)[0] < 0 <= project(hi)[0]:
            break
        lo, hi = 2.0 * lo - p0, 2.0 * hi - p0
    else:
        raise ValueError("power-law fit: no minimum found in p")
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (mid, hi) if project(mid)[0] < 0 else (lo, mid)
    _, A, C, r = project(hi)
    return PowerLawFit(float(A), float(hi), float(C),
                       float(np.sqrt(np.sum(r * r))))


# --- sweeps -----------------------------------------------------------------
def _binding_results(r, sigmas, model, quad):
    """TrionResults of S+ then S- (S- alone at sigma = 0) for each sigma in
    turn, from one exciton solve and one trion solve per distinct
    `mixing_weight`, the trion's only dependence on sigma and the charge."""
    e_x = exciton_ground(r, model, quad=quad)
    e_t, out = {}, []
    for s in sigmas:
        for c in (("-",) if s == 0 else ("+", "-")):
            w = mixing_weight(s, c)
            if w not in e_t:
                e_t[w] = trion_energy(r, s, c, model, quad=quad)
            out.append(TrionResult(e_t[w], e_x, e_x - e_t[w], model, s, c, r))
    return out


def binding_both_charges(r, sigma, model="2d", quad=DEFAULT_QUAD):
    """E_B of S- and S+ (S- alone at sigma = 0) in the preset bases."""
    return {x.charge: x for x in _binding_results(r, (sigma,), model, quad)}


def sweep_radius(r_grid=None, sigmas=(0.0,), models=("1d", "2d"),
                 methods=("full",), quad=DEFAULT_QUAD):
    """Rows (r, sigma, model, method, charge, E_X, E_T, E_B) in Ry*;
    `methods` holds "full" (exact variational) and/or "hf"."""
    for name, given, known in (("method", methods, ("full", "hf")),
                               ("model", models, ("1d", "2d"))):
        bad = [m for m in given if m not in known]
        if bad:
            raise ValueError(f"unknown sweep {name} {bad[0]!r} "
                             f"({name}s are {', '.join(known)})")
        if len(set(given)) < len(given):
            raise ValueError(f"repeated sweep {name} in {name}s "
                             f"{', '.join(given)}")
    if r_grid is None:
        r_grid = np.linspace(0.02, 0.3, 30)
    rows = []
    for r in r_grid:
        for model in models:
            for method in methods:
                if method == "hf":
                    res, _ = hf_binding_energy(r, model, quad=quad)
                    rows.append(_result_row(res, "hf"))
                    continue
                rows += [_result_row(res, "full") for res in
                         _binding_results(r, sigmas, model, quad)]
    return rows


def _result_row(res, method):
    return {"r_aB": res.r, "sigma": res.sigma, "model": res.model,
            "method": method, "charge": res.charge, "E_X_Ry": res.E_X,
            "E_T_Ry": res.E_T, "E_B_Ry": res.E_B}


def sweep_sigma(r=0.1, sigmas=None, model="2d", quad=DEFAULT_QUAD):
    if sigmas is None:
        sigmas = np.linspace(0.0, 1.0, 11)
    return [_result_row(res, "full") for res in _binding_results(
        r, [float(sigma) for sigma in sigmas], model, quad)]


def species_units(ch, env=Environment(), params=tb.DEFAULT_PARAMS):
    """Masses, effective units and dimensionless radius of one species."""
    masses = tb.effective_masses(ch, params)
    u = effective_units(masses.mu, env)
    r_ang = tb.radius(ch, params)
    return masses, u, r_ang, dimensionless_radius(r_ang, u)


def sweep_epsilon(ch, eps_grid=None, params=tb.DEFAULT_PARAMS,
                  quad=DEFAULT_QUAD):
    """Binding energies vs dielectric constant, plus power-law fits (eV)."""
    if eps_grid is None:
        eps_grid = np.linspace(2.0, 5.0, 13)
    masses = tb.effective_masses(ch, params)
    r_ang = tb.radius(ch, params)
    rows = []
    for eps in eps_grid:
        u = effective_units(masses.mu, Environment(float(eps)))
        r = dimensionless_radius(r_ang, u)
        res = binding_both_charges(r, 0.0, "2d", quad)["-"]
        rows.append({"epsilon": float(eps), "r_aB": r,
                     "E_B_eV": to_physical_energy(res.E_B, u),
                     "E_X_eV": to_physical_energy(-res.E_X, u)})
    eps = [w["epsilon"] for w in rows]
    return (rows, fit_power_law(eps, [w["E_B_eV"] for w in rows]),
            fit_power_law(eps, [w["E_X_eV"] for w in rows]))


def sweep_species(r_min=3.0, r_max=15.0, env=Environment(),
                  params=tb.DEFAULT_PARAMS, models=("1d", "2d"),
                  quad=DEFAULT_QUAD):
    """Physical binding energies of all semiconducting species in range."""
    rows = []
    for ch in tb.enumerate_species(r_min, r_max, params):
        masses, u, r_ang, r = species_units(ch, env, params)
        row = {"n": ch.n, "m": ch.m, "r_A": r_ang, "m_e_m0": masses.m_e,
               "m_h_m0": masses.m_h, "mu_m0": masses.mu,
               "sigma": masses.sigma, "Ry_eV": u.rydberg, "aB_A": u.bohr,
               "r_aB": r}
        for model in models:
            both = binding_both_charges(r, masses.sigma, model, quad)
            row[f"E_B_minus_{model}_meV"] = \
                to_physical_energy(both["-"].E_B, u) * 1e3
            row[f"E_B_plus_{model}_meV"] = \
                to_physical_energy(both["+"].E_B, u) * 1e3
        if "1d" in models and "2d" in models:
            e2, e1 = row["E_B_minus_2d_meV"], row["E_B_minus_1d_meV"]
            row["model_gap_pct"] = 100.0 * (e2 - e1) / e2
        if "2d" in models:
            row["detectable"] = row["E_B_minus_2d_meV"] > KBT_ROOM_EV * 1e3
        rows.append(row)
    return rows


def detectability_radius(rows):
    """Radius (Angstrom) where E_B (2D, S-) crosses the room-T threshold."""
    pts = sorted((row["r_A"], row["E_B_minus_2d_meV"]) for row in rows)
    thr = KBT_ROOM_EV * 1e3
    for (r1, e1), (r2, e2) in zip(pts[:-1], pts[1:]):
        if (e1 - thr) * (e2 - thr) <= 0 and e1 != e2:
            return r1 + (thr - e1) * (r2 - r1) / (e2 - e1)
    raise ValueError("threshold not crossed inside the sweep range")
