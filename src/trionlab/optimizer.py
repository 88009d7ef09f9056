"""Steepest-descent optimization of the Gaussian exponents.

The search runs in log-exponent space (positivity by construction) with
a central-difference gradient and a backtracking line search, minimizing
the variational ground energy at the reference radius r0 = 0.1.
Tied exponent lists (e.g. the shared set of the symmetric-pair
coordinates) are optimized as single variables.
"""
from dataclasses import dataclass

import numpy as np

from .basis import tied_basis
from .hartree_fock import scf
from .quadrature import DEFAULT_QUAD
from .solver import exciton_ground, trion_energy

# Gradient step and first line-search step in log-exponent space, and
# the energy drop (Ry*) below which an accepted step ends the search.
GRAD_STEP, STEP0, E_TOL = 1e-3, 0.25, 1e-6


@dataclass(frozen=True)
class OptimizationRun:
    problem: str
    model: str
    initial: tuple            # tuple of exponent tuples (one per tied group)
    final: tuple
    history: tuple            # objective per accepted step, Ry*
    accepted: int
    rejected: int
    converged: bool


def _objective(problem, model, groups, r0, quad):
    basis = tied_basis(problem, model, groups)
    if problem == "exciton":
        return exciton_ground(r0, model, basis, quad)
    if problem == "trion":
        return trion_energy(r0, 0.0, "-", model, basis, quad)
    state = scf(r0, model, basis, quad=quad)
    return state.E_T_HF


def _line_search(f, x, e, g):
    """(x', f(x'), rejected) for the first x' = x - step g/|g|, from
    step = STEP0 halved down to 1e-6, with f(x') < e; x' is None if no
    step lowers e or g = 0."""
    gnorm = np.linalg.norm(g)
    if gnorm == 0:
        return None, e, 0
    direction, step, rejected = -g / gnorm, STEP0, 0
    while step > 1e-6:
        x_new = x + step * direction
        e_new = f(x_new)
        if e_new < e:
            return x_new, e_new, rejected
        rejected += 1
        step /= 2.0
    return None, e, rejected


def optimize(problem, model, initial, r0=0.1, max_steps=100,
             quad=DEFAULT_QUAD):
    """Minimize the ground energy over log-exponents.

    `initial` is a tuple of exponent tuples, one per tied group (one
    group everywhere except the 2D trion, which has two;
    `basis.tied_basis` says which exponent lists each group sets).
    """
    if max_steps < 0:
        raise ValueError(f"max_steps must be >= 0, got {max_steps}")
    groups0 = tuple(tuple(float(a) for a in g) for g in initial)
    sizes = [len(g) for g in groups0]
    splits = np.cumsum(sizes)[:-1]

    def unpack(x):
        parts = np.split(np.exp(x), splits)
        return tuple(tuple(p) for p in parts)

    def f(x):
        return _objective(problem, model, unpack(x), r0, quad)

    x = np.log(np.concatenate([np.asarray(g) for g in groups0]))
    e = f(x)
    history = [e]
    accepted = rejected = 0
    converged = False
    for _ in range(max_steps):
        # A probe that crosses a point where the orthogonalizer drops a
        # mode can point the gradient uphill: before stopping, probe once
        # more, ten times closer.
        for h in (GRAD_STEP, GRAD_STEP / 10):
            g = np.array([(f(x + h * d) - f(x - h * d)) / (2.0 * h)
                          for d in np.eye(len(x))])
            x_new, e_new, n = _line_search(f, x, e, g)
            rejected += n
            if x_new is not None:
                break
        else:                           # no step lowered the energy
            converged = True
            break
        x = x_new
        accepted += 1
        history.append(e_new)
        if e - e_new < E_TOL:
            e = e_new
            converged = True
            break
        e = e_new
    return OptimizationRun(problem, model, groups0, unpack(x),
                           tuple(history), accepted, rejected, converged)
