"""Boundary double-pole fitting: exact recovery and the error curve."""

import tracemalloc

import numpy as np
import pytest

from qcdeform import ratfit
from qcdeform.ratfit import (DoublePoleRational, _sample_set, _scan_start, _strength_solve,
                             error_curve, fit_double_poles)


def _koebe_s(z):
    return -6.0 / (1.0 - np.asarray(z, dtype=complex) ** 2) ** 2


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


# the last three put the poles 0.02, 0.05 and 0.1 rad apart
@pytest.mark.parametrize("angles", [(0.6, 2.9), (0.6, 1.1), (1.0, 1.02), (1.0, 1.05), (1.0, 1.1)])
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


@pytest.mark.parametrize("real_strengths", [False, True])
def test_qr_strengths_match_lstsq_reference(real_strengths):
    z, w = _sample_set(2.0)
    rng = np.random.default_rng(7)
    wb = w * _koebe_s(z) + w * (rng.standard_normal(len(z)) + 1j * rng.standard_normal(len(z)))
    b = np.concatenate([wb.real, wb.imag])
    # a repeated angle makes the pole columns rank-deficient: both paths then
    # give the minimum-norm strengths
    angle_sets = [rng.uniform(0.0, 2.0 * np.pi, n) for n in (1, 2, 3, 5) for _ in range(4)]
    for angles in angle_sets + [np.array([1.0, 1.0, 2.5])]:
        n = len(angles)
        d, r, _, _ = _strength_solve(wb, z, w, angles, real_strengths)
        # reference: real least squares by SVD on [Re; Im] of A, or of [A, iA]
        A = w[:, None] / (z[:, None] - np.exp(1j * angles)[None, :]) ** 2
        cols = A if real_strengths else np.hstack([A, 1j * A])
        M = np.vstack([cols.real, cols.imag])
        x, *_ = np.linalg.lstsq(M, b, rcond=None)
        ref = x.astype(complex) if real_strengths else x[:n] + 1j * x[n:]
        assert np.linalg.norm(d - ref) <= 1e-12 * np.linalg.norm(ref)
        assert np.linalg.norm(r - (M @ x - b)) <= 1e-12 * np.linalg.norm(M @ x - b)
        if real_strengths:
            assert not np.any(d.imag)


_RNG = np.random.default_rng(5)


# Koebe's S is symmetric under z -> -z, so angles 0 and pi tie to rounding
# and both pass the screen, as do the four angles of the four-fold target,
# where the screen alone would pick another than the direct norms; a pole on
# a scan angle is where the screen's formula cancels most; the polynomial
# has no pole to find
@pytest.mark.parametrize("target", [
    _koebe_s,
    DoublePoleRational((0.6, 2.9), (1.2 - 0.3j, 0.8 + 0.5j)),
    DoublePoleRational((5.79, 0.99, 2.78), (-0.63 + 0.51j, -0.99 - 0.21j, 0.42 + 0.64j)),
    DoublePoleRational((3.3,), (0.2 + 1.0j,)),
    DoublePoleRational((2.0 * np.pi * 23 / 64,), (0.7 - 0.4j,)),
    *[DoublePoleRational(_RNG.uniform(0.0, 2.0 * np.pi, 5),
                         _RNG.standard_normal(5) + 1j * _RNG.standard_normal(5)) for _ in range(3)],
    lambda z: np.polynomial.polynomial.polyval(z, [0.3, -1.0 + 0.5j, 2.0, 0.0, 0.7j, -0.4]),
    lambda z: -6.0 / (1.0 - (z * np.exp(-2j * np.pi * 6 / 64)) ** 4) ** 2,
])
def test_scan_picks_the_one_angle_at_a_time_minimum(target, monkeypatch):
    z, w = _sample_set(2.0)
    wb = w * target(z)
    scan = 2.0 * np.pi * np.arange(64) / 64
    norms, direct = [], []
    for t in scan:
        a = w / (z - np.exp(1j * t)) ** 2
        d, *_ = np.linalg.lstsq(a[:, None], wb, rcond=None)
        norms.append(np.linalg.norm(a * d[0] - wb))
        direct.append(np.linalg.norm(a * (np.vdot(a, wb) / np.linalg.norm(a) ** 2) - wb))
    _scan_start(wb, 2.0)  # fills the caches
    formed = []
    columns = ratfit._pole_columns

    def counted(z, w, angles):
        formed.append(len(angles))
        return columns(z, w, angles)

    monkeypatch.setattr(ratfit, "_pole_columns", counted)
    picked = _scan_start(wb, 2.0)
    # the screen keeps the full direct scan's argmin, bit for bit, and forms
    # direct columns only for the few angles it cannot rule out
    assert picked == scan[int(np.argmin(direct))]
    assert sum(formed) <= 4
    picked = int(np.flatnonzero(scan == picked)[0])
    assert norms[picked] <= (1.0 + 1e-12) * min(norms)


@pytest.mark.parametrize("p", [0.0, 2.0])
def test_scan_screen_misses_the_direct_norms_by_under_half_its_window(p):
    # the window is twice the screen's estimated rounding; at p = 0 the
    # rotation's share (16 kappa, kappa = 916) carries it
    z, w = _sample_set(p)
    spectrum, a0_norm2, window = ratfit._scan_screen(p)
    scan = 2.0 * np.pi * np.arange(64) / 64
    rng = np.random.default_rng(9)
    for _ in range(8):
        target = DoublePoleRational(rng.uniform(0.0, 2.0 * np.pi, 3),
                                    rng.standard_normal(3) + 1j * rng.standard_normal(3))
        wb = w * target(z)
        wb_norm2 = np.vdot(wb, wb).real
        corr = np.fft.ifft(np.sum(spectrum * np.fft.fft(wb.reshape(spectrum.shape), axis=1), axis=0))
        v = wb_norm2 - np.abs(corr[::2]) ** 2 / a0_norm2
        for s, t in enumerate(scan):
            a = w / (z - np.exp(1j * t)) ** 2
            direct = np.linalg.norm(a * (np.vdot(a, wb) / np.linalg.norm(a) ** 2) - wb)
            assert abs(v[s] - direct ** 2) <= window / 2 * np.finfo(float).eps * wb_norm2


@pytest.mark.parametrize("fit", [
    lambda: fit_double_poles(DoublePoleRational((0.6, 2.9), (1.2 - 0.3j, 0.8 + 0.5j)), 2),
    lambda: error_curve(_koebe_s, 3),
])
def test_fit_memory_peak_stays_small(fit):
    # the cold-start scan forms no 64-column block; one pass over all 64
    # angles at once read a 6.9 MB peak here against about 1 MB
    fit()
    tracemalloc.start()
    try:
        fit()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5e6


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


@pytest.mark.parametrize("init", [[1.5, 1.5], [1.0, 1.0 + 2 * np.pi], [0.3, 2.0, -2 * np.pi + 0.3]])
def test_fit_refuses_repeated_init_angles(init):
    # two starts equal mod 2 pi give rank-deficient pole columns
    truth = DoublePoleRational((1.0, 2.0), (0.7 + 0j, 1.3 + 0j))
    with pytest.raises(ValueError, match="repeats the angle"):
        fit_double_poles(truth, len(init), init_angles=init)
