"""Exponent optimization: descent behaviour and preset quality."""
import pytest

from trionlab import optimize
from trionlab.basis import preset_basis


def test_rejects_unknown_problem():
    with pytest.raises(ValueError):
        optimize("plasmon", "2d", ((1.0,),), max_steps=1)


def test_rejects_negative_max_steps():
    with pytest.raises(ValueError, match="max_steps must be >= 0, got -1"):
        optimize("exciton", "2d", ((1.0,),), max_steps=-1)


def test_history_monotone_decreasing():
    run = optimize("exciton", "2d", ((0.05, 0.8, 20.0),), max_steps=8)
    assert all(b <= a for a, b in zip(run.history, run.history[1:]))
    assert run.accepted == len(run.history) - 1


def test_converges_from_perturbed_start():
    """From a detuned start the search recovers most of the energy gap to
    the preset basis."""
    preset = preset_basis("exciton2d").axial.alphas_i
    detuned = tuple(a * 2.0 for a in preset)
    run = optimize("exciton", "2d", (detuned,), max_steps=40)
    from trionlab.solver import exciton_ground
    from trionlab.basis import tied_basis

    e_preset = exciton_ground(0.1, basis=preset_basis("exciton2d"))
    e_start = exciton_ground(0.1, basis=tied_basis("exciton", "2d",
                                                   (detuned,)))
    e_final = run.history[-1]
    assert e_final < e_start
    # recovered at least 90% of the detuning penalty
    assert (e_start - e_final) > 0.9 * (e_start - e_preset)


def test_preset_is_near_stationary():
    """One descent pass from the shipped exciton exponents gains almost
    nothing: they are already optimized."""
    preset = preset_basis("exciton2d").axial.alphas_i
    run = optimize("exciton", "2d", (preset,), max_steps=5)
    gain = run.history[0] - run.history[-1]
    assert gain < 1e-3 * abs(run.history[0])


def test_group_order_preserved():
    run = optimize("exciton", "2d", ((0.1, 1.0, 10.0),), max_steps=3)
    assert len(run.final) == 1
    assert len(run.final[0]) == 3
    assert all(a > 0 for a in run.final[0])


def test_trion_1d_tied_groups():
    run = optimize("trion", "1d", ((0.08, 0.9, 8.0),), max_steps=2)
    assert run.problem == "trion"
    assert len(run.final) == 1
    assert run.history[-1] <= run.history[0]
