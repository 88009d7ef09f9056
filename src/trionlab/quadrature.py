"""Quadrature controls for the Coulomb matrix elements.

The Coulomb kernel 2/sqrt(u) is removed analytically with the transform
1/sqrt(u) = (2/sqrt(pi)) * integral exp(-u t^2) dt over [0, inf).  After
the Gaussian axial integrals are done in closed form, a substitution
t = t0 sinh(u) flattens the remaining half-line integral so that a fixed
composite Gauss-Legendre rule converges to machine precision.  The
integrand decays like exp(-c sinh^2 u), so the default panel layout
(dense near 0, geometric further out) is far inside round-off by u = 32.
Its node count sets the cost of fitting the tables of `angular.outer_sums`
(once per spec), not of assembling a matrix.
"""
from dataclasses import dataclass

from . import OUTER_ORDER

_DEFAULT_EDGES = (0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0)


@dataclass(frozen=True)
class QuadratureSpec:
    """Composite Gauss-Legendre rule for the outer Coulomb integral.

    `outer_order` nodes on each panel between consecutive `outer_edges`
    (in the sinh-mapped variable u).  These two fields are the only
    quadrature controls: every other integral is in closed form or uses
    a fixed rule (see `angular`).
    """
    outer_order: int = OUTER_ORDER
    outer_edges: tuple = _DEFAULT_EDGES

    def __post_init__(self):
        if self.outer_order < 8:
            raise ValueError("outer_order must be >= 8")

    def refined(self):
        """A strictly finer rule, for self-convergence checks."""
        edges = (0.0, 0.25) + tuple(e for e in self.outer_edges if e > 0) + (64.0,)
        return QuadratureSpec(outer_order=self.outer_order + 8,
                              outer_edges=edges)


DEFAULT_QUAD = QuadratureSpec()


def outer_rule(quad=DEFAULT_QUAD):
    """Nodes, weights and sinh^2(nodes) of the composite outer rule."""
    import numpy as np   # off the import path of a CLI cache hit
    x, w = np.polynomial.legendre.leggauss(quad.outer_order)
    nodes, weights = [], []
    for a, b in zip(quad.outer_edges[:-1], quad.outer_edges[1:]):
        nodes.append(0.5 * (b - a) * x + 0.5 * (a + b))
        weights.append(0.5 * (b - a) * w)
    u = np.concatenate(nodes)
    return u, np.concatenate(weights), np.sinh(u) ** 2
