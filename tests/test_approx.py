"""Boundary double-pole fitting: exact recovery and the error curve."""

import numpy as np
import pytest

from qcdeform.ratfit import DoublePoleRational, error_curve, fit_double_poles


def _sorted_poles(rational: DoublePoleRational):
    a = np.asarray(rational.angles) % (2.0 * np.pi)
    d = np.asarray(rational.strengths)
    order = np.argsort(a)
    return a[order], d[order]


def test_rational_evaluates_sum_of_double_poles():
    r = DoublePoleRational((0.0,), (2.0 + 0j,))
    z = np.array([0.5j, -0.3 + 0j])
    assert np.allclose(r(z), 2.0 / (z - 1.0) ** 2)
    assert np.allclose(np.abs(r.poles), 1.0)


@pytest.mark.parametrize("angles", [(0.6, 2.9), (0.6, 1.1)])
def test_two_pole_target_recovered_exactly(angles):
    truth = DoublePoleRational(angles, (1.2 - 0.3j, 0.8 + 0.5j))
    fit = fit_double_poles(truth, 2, p=2.0)
    a, d = _sorted_poles(fit.rational)
    ta, td = _sorted_poles(truth)
    assert np.max(np.abs(a - ta)) < 1e-10
    assert np.max(np.abs(d - td)) < 1e-10
    assert fit.l2_residual < 1e-10
    # the weighted sup amplifies even a 1e-13 pole-angle mismatch near the
    # boundary (difference of coincident double poles grows like 1/distance),
    # so only a loose cap is meaningful for an exactly representable target
    assert fit.sup_error < 1e-4


def test_exact_init_is_a_fixed_point():
    truth = DoublePoleRational((1.1, 3.7), (0.5 + 0.1j, -0.2 + 0.9j))
    fit = fit_double_poles(truth, 2, init_angles=[1.1, 3.7])
    a, _ = _sorted_poles(fit.rational)
    assert np.max(np.abs(a - np.array([1.1, 3.7]))) < 1e-10
    assert fit.l2_residual < 1e-10


def test_real_strength_constraint_respected():
    truth = DoublePoleRational((1.0, 4.0), (0.7, 1.3))
    fit = fit_double_poles(truth, 2, real_strengths=True)
    assert all(abs(d.imag) < 1e-12 for d in fit.rational.strengths)
    a, d = _sorted_poles(fit.rational)
    assert np.max(np.abs(a - np.array([1.0, 4.0]))) < 1e-8
    assert np.max(np.abs(np.real(d) - np.array([0.7, 1.3]))) < 1e-8


def test_real_strength_cold_start_leaves_the_wrong_minimum():
    # the greedy start alone ends at angles (2.255, 3.216), l2 residual 14.14;
    # starting from the complex-strength fit's angles recovers the target
    truth = DoublePoleRational((2.268, 4.334), (1.028, 0.855))
    fit = fit_double_poles(truth, 2, real_strengths=True)
    assert fit.l2_residual <= 1e-10
    a, d = _sorted_poles(fit.rational)
    assert np.max(np.abs(a - np.array([2.268, 4.334]))) < 1e-8
    assert np.max(np.abs(d - np.array([1.028, 0.855]))) < 1e-8


@pytest.mark.parametrize("angles, strengths", [
    ((0.4, 2.0, 4.4), (1.0 + 0j, 0.6 - 0.2j, -0.3 + 0.8j)),
    ((5.79, 0.99, 2.78), (-0.63 + 0.51j, -0.99 - 0.21j, 0.42 + 0.64j)),
])
def test_error_curve_is_monotone_and_bottoms_out(angles, strengths):
    truth = DoublePoleRational(angles, strengths)
    errors, fits = error_curve(truth, 4)
    assert np.all(np.diff(errors) <= 1e-12)
    assert errors[2] < 1e-2 * errors[1]
    a, _ = _sorted_poles(fits[2].rational)
    assert np.max(np.abs(a - np.sort(angles))) < 1e-6
    assert fits[2].l2_residual < 1e-8
    assert len(fits) == 4
    assert len(fits[3].rational.angles) == 4


def test_fit_input_validation():
    truth = DoublePoleRational((0.5,), (1.0 + 0j,))
    with pytest.raises(ValueError):
        fit_double_poles(truth, 0)
    with pytest.raises(ValueError):
        fit_double_poles(truth, 2, init_angles=[0.5])
