"""Schwarzian chain oracles: closed forms, roundtrips, covering radius."""

import numpy as np
import pytest

from qcdeform.errors import SingularDivisionError
from qcdeform.schwarzian import (
    _canonical_ratio,
    _ring_values,
    a_from_b,
    a_leading_from_b,
    covering_radius,
    invert_expansion,
    schwarzian_of,
    solve_schwarz,
)
from qcdeform.series import HoloSeries


def mobius_series(a: complex, b: complex, c: complex, d: complex, n: int) -> HoloSeries:
    """(a z + b) / (c z + d) expanded to degree n; requires |c/d| < 1."""
    k = np.arange(n + 1)
    inv = ((-c / d) ** k) / d
    num = np.zeros(n + 1, dtype=complex)
    num[0], num[1] = b, a
    return HoloSeries(np.convolve(num, inv)[: n + 1])


def koebe_schwarzian(n_orders: int) -> HoloSeries:
    # -6 / (1 - z^2)^2 = -6 sum (j+1) z^(2j)
    c = np.zeros(n_orders, dtype=complex)
    c[0::2] = -6.0 * (np.arange((n_orders + 1) // 2) + 1.0)
    return HoloSeries(c)


def test_schwarzian_of_mobius_vanishes():
    w = mobius_series(1.0, 0.5, 0.3, 1.2, 40)
    s = schwarzian_of(w)
    assert np.max(np.abs(s.coeffs[:25])) < 1e-12


def test_schwarzian_of_extremal_map_closed_form():
    m = np.arange(31, dtype=float)
    s = schwarzian_of(HoloSeries(m.astype(complex)))
    for j in range(11):
        assert s.coefficient(2 * j) == pytest.approx(-6.0 * (j + 1), abs=1e-10)
        assert abs(s.coefficient(2 * j + 1)) < 1e-10


def test_solve_schwarz_recovers_extremal_coefficients():
    got = solve_schwarz(koebe_schwarzian(19), 20, w0=0j, w1=1.0, w2=4.0)
    for m in range(21):
        assert got.coefficient(m) == pytest.approx(m, abs=1e-10)


def test_schwarzian_roundtrip_preserves_jet_and_tail():
    rng = np.random.default_rng(5)
    coeffs = np.zeros(27, dtype=complex)
    coeffs[1] = 1.0
    decay = 0.3 ** np.arange(1, 26)
    coeffs[2:] = decay * (rng.standard_normal(25) + 1j * rng.standard_normal(25))
    f = HoloSeries(coeffs)
    s = schwarzian_of(f)
    w = solve_schwarz(s, 20, w0=0j, w1=f.coefficient(1), w2=2.0 * f.coefficient(2))
    assert np.max(np.abs(w.coeffs[:21] - f.coeffs[:21])) < 1e-10


def _schwarz_rows(members, n):
    return np.array([[f.coefficient(k) for k in range(n - 1)] for f in members],
                    dtype=complex)


def _loop_ratio(sc, n):
    """One member at a time: eta1, eta2 by the ODE recurrence, then eta1 / eta2."""
    eta = np.zeros((2, n + 1), dtype=complex)
    eta[:, 0] = (0.0, 1.0)
    eta[:, 1] = (1.0, 0.0)
    for m in range(n - 1):
        for e in eta:
            e[m + 2] = -sum(sc[j] * e[m - j] for j in range(m + 1)) / (2.0 * (m + 2) * (m + 1))
    c = np.zeros(n + 1, dtype=complex)
    for m in range(n + 1):
        c[m] = eta[0, m] - sum(eta[1, j] * c[m - j] for j in range(1, m + 1))
    return c


# the ray t * target, t = 0, 0.2, .., 1
_RAY = [HoloSeries(t * 0.4 ** np.arange(12) * np.exp(0.7j * np.arange(12)))
        for t in np.linspace(0.0, 1.0, 6)]
# members shorter than the ODE order: missing coefficients count as zero
_SHORT = [HoloSeries(np.array([0.3 - 0.1j])),
          HoloSeries(np.array([-0.2, 0.15j, 0.05], dtype=complex)),
          HoloSeries(np.array([0.1, 0.0, -0.4, 0.2j, 0.1], dtype=complex))]


@pytest.mark.parametrize("members", [_RAY, _SHORT], ids=["ray", "short"])
def test_batched_core_matches_solve_schwarz_row_by_row(members):
    sc = _schwarz_rows(members, 16)
    got = _canonical_ratio(sc, 16)
    assert got.shape == (len(members), 17)
    for row, f, s_row in zip(got, members, sc):
        want = solve_schwarz(f, 16).coeffs
        scale = max(1.0, np.max(np.abs(want)))
        assert np.max(np.abs(row - want)) <= 1e-14 * scale
        assert np.max(np.abs(row - _loop_ratio(s_row, 16))) <= 1e-14 * scale


def test_inverted_constant_term_identity():
    a2, a3 = 0.31 - 0.12j, -0.05 + 0.2j
    for theta in (0.0, 0.7, 2.1, -1.3):
        a1 = np.exp(-1j * theta)
        f = HoloSeries(np.array([0.0, a1, a2, a3]))
        F = invert_expansion(f)
        assert abs(F.coefficient(0) + np.exp(2j * theta) * a2) < 1e-14


def test_inversion_roundtrip_recovers_coefficients():
    rng = np.random.default_rng(4)
    tail = 0.4 ** np.arange(2, 11) * (rng.standard_normal(9) + 1j * rng.standard_normal(9))
    f = HoloSeries(np.concatenate([[0.0, 1.3 - 0.4j], tail]).astype(complex))
    g = a_from_b(invert_expansion(f))
    m = min(len(f.coeffs), len(g.coeffs))
    assert np.max(np.abs(g.coeffs[:m] - f.coeffs[:m])) < 1e-10


def test_leading_monomials_of_inverted_coefficients():
    a1, b0, b1 = 1.1 - 0.2j, 0.3 + 0.15j, -0.12 + 0.08j
    F = HoloSeries(np.array([1.0 / a1, b0, b1, 0, 0, 0], dtype=complex), lowest=-1)
    w = a_from_b(F)
    # exact through a_4 when every b_j beyond b_1 vanishes
    for n in range(1, 5):
        assert abs(w.coefficient(n) - a_leading_from_b(n, a1, b0, b1)) < 1e-13
    with pytest.raises(ValueError):
        a_leading_from_b(0, a1, b0, b1)


def test_covering_radius_of_identity_is_one():
    w = HoloSeries(np.array([0.0, 1.0], dtype=complex))
    assert covering_radius(w) == pytest.approx(1.0, abs=1e-12)


def test_covering_radius_of_extremal_map_nears_quarter():
    # z/(1-z)^2 truncated; the tail at |z| = 0.99 forces the long series
    m = np.arange(2049, dtype=float)
    got = covering_radius(HoloSeries(m.astype(complex)),
                          n_angles=512, radii=(0.97, 0.99))
    assert abs(got - 0.25) < 1e-4
    # the folded ring values against sum_{k <= n} k z^k in closed form
    n = len(m) - 1
    for r in (0.97, 0.99):
        z = r * np.exp(2j * np.pi * np.arange(512) / 512)
        want = z * (1.0 - (n + 1) * z**n + n * z ** (n + 1)) / (1.0 - z) ** 2
        ring = _ring_values(m * r**m, 512)
        assert np.max(np.abs(ring - want)) <= 1e-12 * np.max(np.abs(want))


def test_covering_radius_input_validation():
    ident = np.array([0.0, 1.0], dtype=complex)
    with pytest.raises(ValueError):
        covering_radius(HoloSeries(ident, lowest=-1))
    with pytest.raises(ValueError):
        covering_radius(HoloSeries(np.array([0.5, 1.0], dtype=complex)))
    with pytest.raises(ValueError):
        covering_radius(HoloSeries(ident), radii=(0.9, 0.8))


def test_singular_jets_rejected():
    with pytest.raises(SingularDivisionError):
        schwarzian_of(HoloSeries(np.array([0.0, 0.0, 1.0, 2.0], dtype=complex)))
    with pytest.raises(SingularDivisionError):
        solve_schwarz(koebe_schwarzian(8), 6, w1=0j)
    with pytest.raises(ValueError):
        invert_expansion(HoloSeries(np.array([0.3, 1.0], dtype=complex)))
    with pytest.raises(SingularDivisionError):
        invert_expansion(HoloSeries(np.array([0.0, 0.0, 1.0], dtype=complex)))
    with pytest.raises(ValueError):
        a_from_b(HoloSeries(np.array([0.0, 1.0], dtype=complex)))
    with pytest.raises(SingularDivisionError):
        a_from_b(HoloSeries(np.array([0.0, 1.0, 0.5], dtype=complex), lowest=-1))


@pytest.mark.parametrize("n", [-1, -3])
def test_solve_schwarz_refuses_negative_order(n):
    with pytest.raises(ValueError, match=f"n = {n}"):
        solve_schwarz(koebe_schwarzian(8), n)


def test_solve_schwarz_of_order_zero_is_the_constant():
    w = solve_schwarz(koebe_schwarzian(8), 0, w0=0.5 - 2j)
    assert np.array_equal(w.coeffs, [0.5 - 2j])
