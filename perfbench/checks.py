"""Correctness checks of the workloads' outputs, made apart from trionlab.

Each check either recomputes a quantity with the benchmark's own code
(zone-folded two-band masses, effective units, a finite-difference
exciton) or tests a property of the method (E_B = E_X - E_T, the charge
map S+(sigma) = S-(1/sigma), variational bounds, published anchors).
Every check function returns a list of failure messages; an empty list
means the outputs passed.  `self_test` shows that each check set fails
on deliberately perturbed outputs.
"""
import copy
import math
from math import gcd

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.optimize import minimize_scalar
from scipy.special import ellipk

# Model constants as the README states them: hopping, overlap, lattice
# constant, and the Rydberg / Bohr scales of the effective units.
T_HOP, S_OVL, A_LAT = -2.89, 0.1, 2.46
RYDBERG_EV, BOHR_A = 13.6, 0.529
KBT_MEV = 26.0
EPSILON = 3.5

# (6,5) at epsilon = 3.5: value and tolerance of each published anchor.
ANCHORS_6_5 = {"m_e": (0.0803, 0.002), "m_h": (0.0866, 0.002),
               "mu": (0.0417, 0.001), "Ry_eV": (0.0462, 0.0005),
               "aB_A": (44.5, 0.5), "r_aB": (0.084, 0.001),
               "E_B_meV": (59.0, 3.0)}


def _close(a, b, rel):
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


# --- tight binding, the benchmark's own ------------------------------------
def tube_radius(n, m):
    return A_LAT * math.sqrt(n * n + n * m + m * m) / (2.0 * math.pi)


def subband_count(n, m):
    return 2 * (n * n + n * m + m * m) // gcd(2 * m + n, 2 * n + m)


def _band_pair(k):
    a1 = A_LAT * np.array([math.sqrt(3.0) / 2.0, 0.5])
    a2 = A_LAT * np.array([math.sqrt(3.0) / 2.0, -0.5])
    w = np.abs(1.0 + np.exp(1j * (k @ a1)) + np.exp(1j * (k @ a2)))
    return (-T_HOP * w) / (1.0 - S_OVL * w), (T_HOP * w) / (1.0 + S_OVL * w)


def two_band_edge(n, m):
    """Gap (eV) and masses (m0) at the band edge of a semiconducting tube.

    The edge lies on a cutting line next to K or K'.  K is written in the
    orthogonal basis (K1, K2) of the cutting lines, the two lines on
    either side of K and of K' are searched, and the curvature at the
    lowest gap gives m = a^2 / |E''| (the README's convention).
    """
    a1 = A_LAT * np.array([math.sqrt(3.0) / 2.0, 0.5])
    a2 = A_LAT * np.array([math.sqrt(3.0) / 2.0, -0.5])
    b1, b2 = 2.0 * np.pi * np.linalg.inv(np.array([a1, a2]).T)
    d_r = gcd(2 * m + n, 2 * n + m)
    t1, t2 = (2 * m + n) // d_r, -(2 * n + m) // d_r
    big_n = subband_count(n, m)
    k1 = (-t2 * b1 + t1 * b2) / big_n
    k2 = (m * b1 - n * b2) / big_n
    k2_len = np.linalg.norm(k2)
    k2h = k2 / k2_len
    best = None
    for kpt in ((2.0 * b1 + b2) / 3.0, -(2.0 * b1 + b2) / 3.0):
        x = kpt @ k1 / (k1 @ k1)
        kappa0 = kpt @ k2h
        for line in (math.floor(x), math.floor(x) + 1):
            base = line * k1

            def gap(kappa):
                c, v = _band_pair(base + kappa * k2h)
                return c - v

            span = np.linspace(kappa0 - 0.5 * k2_len, kappa0 + 0.5 * k2_len,
                               801)
            g = gap(span[:, None])
            i = int(np.argmin(g))
            lo, hi = span[max(i - 1, 0)], span[min(i + 1, len(span) - 1)]
            res = minimize_scalar(gap, bounds=(lo, hi), method="bounded",
                                  options={"xatol": 1e-12})
            if best is None or res.fun < best[0]:
                best = (float(res.fun), base, float(res.x))
    g0, base, kappa = best
    # A step far below the band's k scale (gap / band slope, >= 0.04 / A
    # for 3-15 A tubes) keeps the O(h^4) stencil error under 1e-8.
    h = 2e-4
    pts = [_band_pair(base + (kappa + j * h) * k2h) for j in (-2, -1, 0, 1, 2)]
    masses = []
    for band in (0, 1):
        e = [p[band] for p in pts]
        d2 = (-e[0] + 16 * e[1] - 30 * e[2] + 16 * e[3] - e[4]) / (12 * h * h)
        masses.append(A_LAT ** 2 / abs(d2))
    return g0, masses[0], masses[1]


# --- finite-difference exciton, the benchmark's own -------------------------
def fd_exciton_limit(r, half_width=10.0, points=(4000, 8000)):
    """Extrapolated ground energy (Ry*) of the angularly flat pair problem.

    The ring average of 2/sqrt(x^2 + 4 r^2 sin^2(theta/2)) is
    4 K(m) / (pi sqrt(x^2 + 4 r^2)) with m = 4 r^2 / (x^2 + 4 r^2); the
    grid is staggered to avoid x = 0 and converges O(h), so two grids give
    the limit 2 e(2n) - e(n).
    """
    energies = []
    for nx in points:
        hx = 2.0 * half_width / nx
        x = -half_width + hx * (np.arange(nx) + 0.5)
        d = x * x + 4.0 * r * r
        v = 4.0 * ellipk(4.0 * r * r / d) / (np.pi * np.sqrt(d))
        diag = 2.0 / hx ** 2 - v
        off = np.full(nx - 1, -1.0 / hx ** 2)
        energies.append(float(eigh_tridiagonal(
            diag, off, select="i", select_range=(0, 0))[0][0]))
    return 2.0 * energies[1] - energies[0]


# --- species-table ----------------------------------------------------------
def check_species(rows, sweep_rows):
    """rows: one dict per species from the per-species parts of the sweep;
    sweep_rows: rows of `sweep_species` for some of the same species."""
    bad = []
    for row in rows:
        tag = f"({row['n']},{row['m']})"
        gap, m_e, m_h = two_band_edge(row["n"], row["m"])
        if not _close(row["gap"], gap, 1e-8):
            bad.append(f"{tag} gap {row['gap']} != two-band {gap}")
        for key, want in (("m_e", m_e), ("m_h", m_h)):
            if not _close(row[key], want, 1e-5):
                bad.append(f"{tag} {key} {row[key]} != two-band {want}")
        mu = row["m_e"] * row["m_h"] / (row["m_e"] + row["m_h"])
        ry = RYDBERG_EV * mu / EPSILON ** 2
        a_b = BOHR_A * EPSILON / mu
        for key, want in (("mu", mu), ("sigma", row["m_e"] / row["m_h"]),
                          ("Ry_eV", ry), ("aB_A", a_b),
                          ("r_A", tube_radius(row["n"], row["m"])),
                          ("r_aB", tube_radius(row["n"], row["m"]) / a_b)):
            if not _close(row[key], want, 1e-12):
                bad.append(f"{tag} {key} {row[key]} != {want}")
        if not 0.86 <= row["sigma"] <= 1.02:
            bad.append(f"{tag} sigma {row['sigma']} outside [0.86, 1.02]")
        for charge in ("minus", "plus"):
            e1 = row[f"E_B_{charge}_1d"]
            e2 = row[f"E_B_{charge}_2d"]
            if not e2 > e1 > 0:
                bad.append(f"{tag} S{charge}: not E_B(2D) {e2} > E_B(1D) "
                           f"{e1} > 0")
            for model in ("1d", "2d"):
                k = f"{charge}_{model}"
                if not _close(row["E_B_" + k],
                              row["E_X_" + k] - row["E_T_" + k], 1e-12):
                    bad.append(f"{tag} E_B != E_X - E_T ({k})")
        if (row["n"], row["m"]) == (6, 5):
            got = dict(row, E_B_meV=row["E_B_minus_2d"] * ry * 1e3)
            bad += _anchors(got, ANCHORS_6_5, tag)
    by_index = {(row["n"], row["m"]): row for row in rows}
    for drow in sweep_rows:
        tag = f"sweep_species ({drow['n']},{drow['m']})"
        row = by_index[(drow["n"], drow["m"])]
        mev = row["E_B_minus_2d"] * RYDBERG_EV * row["mu"] / EPSILON ** 2 \
            * 1e3
        if not _close(drow["E_B_minus_2d_meV"], mev, 1e-10):
            bad.append(f"{tag} E_B {drow['E_B_minus_2d_meV']} meV != "
                       f"{mev} from its parts")
        if drow["detectable"] != (drow["E_B_minus_2d_meV"] > KBT_MEV):
            bad.append(f"{tag} detectable={drow['detectable']} at "
                       f"{drow['E_B_minus_2d_meV']} meV")
    return bad


def _anchors(values, anchors, tag):
    return [f"{tag} {key} {values[key]} outside {want} +- {tol}"
            for key, (want, tol) in anchors.items()
            if abs(values[key] - want) > tol]


# --- radius-sweep -----------------------------------------------------------
def check_radius(rows, hf_states, sigma):
    """rows: `sweep_radius` output; hf_states: the HFState of each HF row."""
    bad = []
    index = {}
    for row in rows:
        key = (row["r_aB"], row["model"], row["method"], row["sigma"],
               row["charge"])
        index[key] = row
        if not _close(row["E_B_Ry"], row["E_X_Ry"] - row["E_T_Ry"], 1e-12):
            bad.append(f"E_B != E_X - E_T in {key}")
    radii = sorted({row["r_aB"] for row in rows})

    def e_b(r, model, method="full", s=0.0, charge="-"):
        return index[(r, model, method, s, charge)]["E_B_Ry"]

    def e_t(r, model, method="full", s=0.0, charge="-"):
        return index[(r, model, method, s, charge)]["E_T_Ry"]

    for r, (want, tol) in ((0.1, (13.0, 2.0)), (0.3, (42.0, 3.0))):
        gap = 100.0 * (e_b(r, "2d") - e_b(r, "1d")) / e_b(r, "2d")
        if abs(gap - want) > tol:
            bad.append(f"model gap {gap:.2f}% at r={r} outside {want}+-{tol}")
    e0 = e_b(0.1, "2d")
    spread = max(abs(e_b(0.1, "2d", s=s) - e0) / e0
                 for s in (0.0, sigma) if s <= 1.0)
    if spread > 0.042:
        bad.append(f"sigma spread {100 * spread:.2f}% at r=0.1 above 4.2%")
    ratios = [e_b(r, "2d", "hf") / e_b(r, "2d") for r in radii]
    if abs(ratios[-1] - 0.60) > 0.05 or radii[-1] != 0.3:
        bad.append(f"HF/exact {ratios[-1]:.3f} at r={radii[-1]} not "
                   "0.60+-0.05 at r=0.3")
    if any(a >= b for a, b in zip(ratios, ratios[1:])):
        bad.append(f"HF/exact ratios {ratios} do not shrink toward small r")
    for r in radii:
        for model in ("1d", "2d"):
            plus = e_t(r, model, s=sigma, charge="+")
            minus = e_t(r, model, s=1.0 / sigma, charge="-")
            if not _close(plus, minus, 1e-12):
                bad.append(f"E_T(+,{sigma}) {plus} != E_T(-,1/sigma) {minus}"
                           f" at r={r} {model}")
            if e_t(r, model, "hf") < e_t(r, model):
                bad.append(f"E_T^HF below E_T at r={r} {model}")
    for state in hf_states:
        change = abs(state.history[-1] - state.history[-2])
        if not state.converged or change >= 1e-8:
            bad.append(f"SCF not converged (last change {change:.3g})")
    return bad


# --- basis-optimize ---------------------------------------------------------
def check_optimize(runs, recomputed, exciton_1d, fd_limit):
    """runs: OptimizationRun-like dicts; recomputed: the objective at each
    run's final exponents; exciton_1d: the flat-model exciton objective at
    the 2D exciton run's final exponents; fd_limit: its FD limit."""
    bad = []
    for run, again in zip(runs, recomputed):
        tag = f"{run['problem']}{run['model']}"
        hist = run["history"]
        if any(b > a for a, b in zip(hist, hist[1:])):
            bad.append(f"{tag} history increases: {hist}")
        if run["accepted"] != len(hist) - 1:
            bad.append(f"{tag} accepted {run['accepted']} != "
                       f"len(history) - 1 = {len(hist) - 1}")
        if not hist[-1] < hist[0]:
            bad.append(f"{tag} final {hist[-1]} not below start {hist[0]}")
        if not _close(hist[-1], again, 1e-10):
            bad.append(f"{tag} final {hist[-1]} != objective {again} at "
                       "the final exponents")
        if tag == "exciton2d" and not hist[-1] <= exciton_1d:
            bad.append(f"2D exciton {hist[-1]} above flat model "
                       f"{exciton_1d} in the same exponents")
    if exciton_1d < fd_limit - 1e-6 * abs(fd_limit):
        bad.append(f"1D exciton objective {exciton_1d} below the FD limit "
                   f"{fd_limit}")
    return bad


# --- cli-cache --------------------------------------------------------------
def parse_csv(text):
    """Rows of the CLI's CSV output; `#` lines hold its metadata."""
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    if not lines:
        return []
    header = lines[0].split(",")
    return [dict(zip(header, map(_scalar, line.split(","))))
            for line in lines[1:]]


def _scalar(text):
    if text in ("true", "false"):
        return text == "true"
    try:
        return float(text)
    except ValueError:
        return text


def check_cli(runs, fd_limit, exact_hf_ref):
    """runs: one dict per invocation (command, kind, format, exit code,
    stdout text, parsed rows); fd_limit: FD limit at the exciton radius;
    exact_hf_ref: exact E_B (Ry*) at the hf radius."""
    bad = []
    first = {}
    for run in runs:
        tag = f"{run['command']} {run['kind']} ({run['format']})"
        if run["code"] != 0:
            bad.append(f"{tag} exited {run['code']}")
            continue
        if run["kind"] == "cold":
            first[run["command"]] = run
        elif run["command"] not in first:
            bad.append(f"{tag} has no cold run before it")
        elif run["kind"] == "warm" and run["stdout"] != \
                first[run["command"]]["stdout"]:
            bad.append(f"{tag} output differs from the cold run")
        else:
            cold = first[run["command"]]
            if len(cold["rows"]) != len(run["rows"]):
                bad.append(f"{tag} row count differs from {cold['format']}")
            for a, b in zip(cold["rows"], run["rows"]):
                for key in a:
                    x, y = a[key], b.get(key)
                    same = (_close(float(x), float(y), 1e-9)
                            if isinstance(x, float) or isinstance(y, float)
                            else x == y)
                    if not same:
                        bad.append(f"{tag} {key} {y} != {cold['format']} {x}")
    if bad:
        return bad
    row = {cmd: run["rows"][0] for cmd, run in first.items()}
    masses = row["masses"]
    gap, m_e, m_h = two_band_edge(6, 5)
    for key, want in (("gap_eV", gap), ("m_e_m0", m_e), ("m_h_m0", m_h)):
        if not _close(masses[key], want, 1e-5):
            bad.append(f"masses {key} {masses[key]} != two-band {want}")
    mu = masses["m_e_m0"] * masses["m_h_m0"] / (masses["m_e_m0"]
                                                 + masses["m_h_m0"])
    ry = RYDBERG_EV * mu / EPSILON ** 2
    trion = row["trion"]
    values = {"m_e": masses["m_e_m0"], "m_h": masses["m_h_m0"], "mu": mu,
              "Ry_eV": ry, "aB_A": BOHR_A * EPSILON / mu,
              "r_aB": trion["r_aB"], "E_B_meV": trion["E_B_meV"]}
    bad += _anchors(values, ANCHORS_6_5, "cli (6,5)")
    if not _close(trion["E_B_Ry"], trion["E_X_Ry"] - trion["E_T_Ry"], 1e-8):
        bad.append("trion E_B_Ry != E_X_Ry - E_T_Ry")
    if not _close(trion["E_B_meV"], trion["E_B_Ry"] * ry * 1e3, 1e-8):
        bad.append(f"trion E_B_meV {trion['E_B_meV']} != E_B_Ry Ry* "
                   f"{trion['E_B_Ry'] * ry * 1e3}")
    e_x = -row["exciton"]["E_X_Ry"]
    if e_x < fd_limit - 1e-6 * abs(fd_limit) or not _close(e_x, fd_limit,
                                                           3e-3):
        bad.append(f"exciton {e_x} not just above the FD limit {fd_limit}")
    hf = row["hf"]
    ratio = hf["E_B_HF_Ry"] / exact_hf_ref
    if not hf["converged"] or abs(ratio - 0.60) > 0.05:
        bad.append(f"hf converged={hf['converged']} HF/exact {ratio:.3f} "
                   "not 0.60+-0.05")
    sweep = first["sweep-sigma"]["rows"]
    for srow in sweep:
        if not srow["E_B_Ry"] > 0 or not _close(
                srow["E_B_Ry"], srow["E_X_Ry"] - srow["E_T_Ry"], 1e-8):
            bad.append(f"sweep-sigma row {srow} breaks E_B = E_X - E_T > 0")
    at_one = [s for s in sweep if s["sigma"] == 1.0]
    if len(at_one) != 2 or not _close(at_one[0]["E_T_Ry"],
                                      at_one[1]["E_T_Ry"], 1e-9):
        bad.append("sweep-sigma: S- and S+ differ at sigma = 1")
    return bad


# --- the checks bite --------------------------------------------------------
def _scaled(data, keep, factor):
    """Deep copy of data with every float under a key that `keep` accepts
    (directly, or in a list under that key) multiplied by factor."""
    out = copy.deepcopy(data)

    def walk(node, parent):
        pairs = (node.items() if isinstance(node, dict)
                 else ((parent, v) for v in node))
        for i, (key, value) in enumerate(list(pairs)):
            slot = key if isinstance(node, dict) else i
            if isinstance(value, (dict, list)):
                walk(value, key)
            elif isinstance(value, float) and isinstance(key, str) \
                    and keep(key):
                node[slot] = value * factor
    walk(out, None)
    return out


PERTURBATIONS = {
    "E_B +1%": (lambda k: k.startswith("E_B"), 1.01),
    "mass +3%": (lambda k: k in ("m_e", "m_e_m0"), 1.03),
    "energy +1%": (lambda k: k in ("history", "E_T_Ry") or k.startswith(
        "E_X"), 1.01),
}


def self_test(check, data, names):
    """Messages for each named perturbation that the checks let through."""
    missed = []
    for name in names:
        keep, factor = PERTURBATIONS[name]
        if not check(_scaled(data, keep, factor)):
            missed.append(f"checks pass on outputs with {name}")
    return missed
