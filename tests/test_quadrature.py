"""Outer quadrature rule and its controls."""
import numpy as np
import pytest
from scipy.integrate import quad

from trionlab.quadrature import DEFAULT_QUAD, QuadratureSpec, outer_rule


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(outer_order=4)


def test_refined_is_finer():
    fine = DEFAULT_QUAD.refined()
    assert fine.outer_order > DEFAULT_QUAD.outer_order
    assert len(fine.outer_edges) > len(DEFAULT_QUAD.outer_edges)
    assert fine.outer_edges[-1] > DEFAULT_QUAD.outer_edges[-1]


def test_outer_rule_weights_cover_range():
    u, w, s2 = outer_rule()
    assert u.shape == w.shape == s2.shape
    assert np.all(np.diff(u) > 0)
    assert w.sum() == pytest.approx(DEFAULT_QUAD.outer_edges[-1])
    assert np.allclose(s2, np.sinh(u) ** 2)


@pytest.mark.parametrize("c", [0.05, 1.0, 40.0])
def test_outer_rule_integrates_kernel_shape(c):
    """The rule must integrate the sinh-flattened Coulomb integrands,
    which look like cosh(u) exp(-c sinh^2 u)."""
    u, w, s2 = outer_rule()
    got = np.sum(np.cosh(u) * np.exp(-c * s2) * w)
    want, _ = quad(lambda t: np.exp(-c * t * t), 0.0, np.inf)
    assert got == pytest.approx(want, rel=1e-13)
