"""Truncated power series arithmetic against directly computed oracles."""

import math

import numpy as np
import pytest

from qcdeform.errors import ResolutionError, SingularDivisionError
from qcdeform.series import HoloSeries, coeffs_from_circle_samples


def geometric(n, ratio=0.5):
    return HoloSeries(ratio ** np.arange(n + 1) + 0j, radius=1.0 / ratio)


def test_coefficient_out_of_range_is_zero():
    f = HoloSeries(np.array([1.0, 2.0], dtype=complex))
    assert f.coefficient(5) == 0j
    assert f.coefficient(1) == 2.0


def test_add_aligns_lengths_and_scalars():
    f = HoloSeries(np.array([1, 2, 3], dtype=complex))
    g = HoloSeries(np.array([5, 7], dtype=complex))
    h = f + g
    assert np.allclose(h.coeffs[:3], [6, 9, 3])
    s = f + (2 - 1j)
    assert s.coefficient(0) == 3 - 1j and s.coefficient(1) == 2


def test_scalar_add_on_inverted_expansion_hits_constant_term():
    # descending storage: entry 0 is the z coefficient, entry 1 the constant
    F = HoloSeries(np.array([1, 4, 5], dtype=complex), lowest=-1)
    G = F + 2.0
    assert G.coeffs[0] == 1
    assert G.coeffs[1] == 6
    assert G.coeffs[2] == 5


def test_mul_is_cauchy_convolution():
    rng = np.random.default_rng(0)
    a = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    b = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    f = HoloSeries(a)
    g = HoloSeries(b)
    h = f * g
    want = np.convolve(a, b)
    m = min(len(h.coeffs) - 1, 8) + 1
    assert np.allclose(h.coeffs[:m], want[:m])


def test_exp_of_identity_matches_factorials():
    n = 16
    z = HoloSeries(np.eye(n + 1)[1] + 0j, radius=np.inf)
    e = z.exp()
    want = 1.0 / np.array([math.factorial(k) for k in range(n + 1)])
    assert np.allclose(e.coeffs[: n + 1], want, atol=1e-15)


def test_exp_multiplies_like_the_exponential():
    rng = np.random.default_rng(3)
    f = HoloSeries(0.1 * (rng.standard_normal(10) + 1j * rng.standard_normal(10)))
    g = HoloSeries(0.1 * (rng.standard_normal(10) + 1j * rng.standard_normal(10)))
    lhs = (f + g).exp()
    rhs = f.exp() * g.exp()
    assert np.allclose(lhs.coeffs[:10], rhs.coeffs[:10], atol=1e-13)


def test_division_inverts_multiplication():
    rng = np.random.default_rng(5)
    f = HoloSeries(np.concatenate([[1.0], 0.3 * rng.standard_normal(7)]) + 0j)
    g = HoloSeries(np.concatenate([[2.0], 0.3 * rng.standard_normal(5)]) + 0j)
    q = f / g
    back = q * g
    assert np.allclose(back.coeffs[:6], f.coeffs[:6], atol=1e-14)


def test_division_by_series_vanishing_at_center_raises():
    f = HoloSeries(np.array([1.0, 1.0], dtype=complex))
    g = HoloSeries(np.array([0.0, 1.0], dtype=complex))
    with pytest.raises(SingularDivisionError):
        f / g


def test_derivative_and_evaluate_agree_with_horner():
    f = geometric(12)
    z = 0.3 - 0.2j
    direct = sum(f.coeffs[k] * z**k for k in range(13))
    assert abs(f(z) - direct) < 1e-14
    fp = f.derivative()
    direct_p = sum(k * f.coeffs[k] * z ** (k - 1) for k in range(1, 13))
    assert abs(fp(z) - direct_p) < 1e-13


def test_laurent_evaluate_includes_inverse_power():
    # storage runs downward from the z term: [2, 1, 3] is 2z + 1 + 3/z
    F = HoloSeries(np.array([2.0, 1.0, 3.0], dtype=complex), lowest=-1)
    z = 2.0 + 1.0j
    want = 2.0 * z + 1.0 + 3.0 / z
    assert abs(F(z) - want) < 1e-14
    assert F.coefficient(1) == 2.0
    assert F.coefficient(0) == 1.0
    assert F.coefficient(-1) == 3.0
    assert F.coefficient(-2) == 0.0


def test_truncated_drops_high_orders():
    f = geometric(10)
    g = f.truncated(4)
    assert len(g.coeffs) - 1 == 4
    assert np.allclose(g.coeffs, f.coeffs[:5])


def test_circle_recovery_roundtrip():
    f = geometric(12, ratio=0.4)
    samples = f(0.9 * np.exp(2j * np.pi * np.arange(128) / 128))
    rec = coeffs_from_circle_samples(samples, 0.9, 12)
    assert np.allclose(rec.series.coeffs, f.coeffs[:13], atol=1e-12)
    assert rec.alias_bound < 1e-8


def test_circle_recovery_flags_non_decaying_spectrum():
    # sampling radius beyond the convergence disk aliases hard
    f = geometric(40, ratio=0.99)
    samples = f(np.exp(2j * np.pi * np.arange(64) / 64))
    with pytest.raises(ResolutionError):
        coeffs_from_circle_samples(samples, 1.0, 8, alias_tol=1e-10)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_circle_recovery_refuses_a_sample_that_is_not_finite(bad):
    # a NaN aliasing bound compares False with its tolerance, so the refusal
    # must name the sample instead
    samples = geometric(12, ratio=0.4)(0.9 * np.exp(2j * np.pi * np.arange(128) / 128))
    samples[37] = bad
    with pytest.raises(ResolutionError, match="sample 37 of 128 is not finite"):
        coeffs_from_circle_samples(samples, 0.9, 12)


def test_circle_recovery_rejects_bad_sample_counts():
    samples = np.ones(48, dtype=complex)
    with pytest.raises(ValueError):
        coeffs_from_circle_samples(samples, 0.9, 8)
    with pytest.raises(ValueError):
        coeffs_from_circle_samples(np.ones(16, dtype=complex), 0.9, 8)
