"""Schwarzian derivatives, their inversion, and expansion bookkeeping at infinity.

Everything operates on truncated power series.  The Schwarzian of w is
(w''/w')' - (w''/w')^2 / 2; it is recovered by solving 2 eta'' + S eta = 0
for two independent solutions and taking their ratio, which fixes the
canonical representative with w(0) = 0, w'(0) = 1, w''(0) = 0.  Any other
solution of the same Schwarzian equation is a Moebius image of it.

For w with w(0) = 0 and w'(0) = a1 != 0, the inverted-variable expansion

    F(z) = 1 / w(1/z) = z/a1 + b0 + b1/z + b2/z^2 + ...

is carried as a series in 1/z (lowest index -1).  The constant term always
satisfies b0 = -a2 / a1^2; with a1 = exp(-i theta) on the unit circle this is
b0 = -exp(2 i theta) a2.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularDivisionError
from .series import HoloSeries

__all__ = [
    "schwarzian_of",
    "solve_schwarz",
    "invert_expansion",
    "a_from_b",
    "a_leading_from_b",
    "covering_radius",
]


def schwarzian_of(w: HoloSeries) -> HoloSeries:
    """Schwarzian derivative of a series with w'(0) != 0.

    The result keeps len(w) - 3 orders; differentiation spends accuracy, so
    feed more coefficients than the orders needed downstream.
    """
    w1 = w.derivative()
    if w1.coefficient(0) == 0:
        raise SingularDivisionError("Schwarzian needs w'(0) != 0")
    g = w1.derivative() / w1
    return g.derivative() - 0.5 * g * g


def _canonical_ratio(sc: np.ndarray, n: int) -> np.ndarray:
    """Coefficients 0..n of the canonical solutions eta1 / eta2, row by row.

    sc is a (members, n - 1) array of Schwarzian coefficients.  Each row
    integrates 2 eta'' + s eta = 0 for eta1 (data 0, 1) and eta2 (data 1, 0)
    and divides the two series; eta2(0) = 1, so the division needs no pivot.
    """
    rows = sc.shape[0]
    eta = np.zeros((2, rows, n + 1), dtype=np.complex128)
    eta[1, :, 0] = 1.0
    if n >= 1:
        eta[0, :, 1] = 1.0
    for m in range(n - 1):
        acc = np.einsum("ijk,jk->ij", eta[:, :, m::-1], sc[:, : m + 1])
        eta[:, :, m + 2] = -acc / (2.0 * (m + 2) * (m + 1))
    a, b = eta
    c = np.zeros((rows, n + 1), dtype=np.complex128)
    c[:, 0] = a[:, 0]
    for m in range(1, n + 1):
        c[:, m] = a[:, m] - np.einsum("jk,jk->j", b[:, 1 : m + 1], c[:, m - 1 :: -1])
    return c


def solve_schwarz(s: HoloSeries, n: int, w0: complex = 0j, w1: complex = 1.0 + 0j,
                  w2: complex = 0j) -> HoloSeries:
    """Series solution of S(w) = s with w(0) = w0, w'(0) = w1, w''(0) = w2.

    Integrates 2 eta'' + s eta = 0 for the two solutions picked out by their
    first-order data, forms the canonical ratio, then applies the Moebius map
    matching the requested jet.  Missing coefficients of s count as zero.
    """
    if n < 0:
        raise ValueError(f"the solution order n must be nonnegative, got n = {n}")
    if w1 == 0:
        raise SingularDivisionError("w'(0) must not vanish")
    sc = np.array([[s.coefficient(k) for k in range(max(n - 1, 0))]], dtype=np.complex128)
    w_can = HoloSeries(_canonical_ratio(sc, n)[0], radius=s.radius)
    # Moebius u -> w0 + w1 u / (1 - (w2 / (2 w1)) u) carries the canonical jet
    # (0, 1, 0) to (w0, w1, w2) without changing the Schwarzian.
    q = w2 / (2.0 * w1)
    denom_coeffs = np.zeros(n + 1, dtype=np.complex128)
    denom_coeffs[0] = 1.0
    denom = HoloSeries(denom_coeffs, radius=s.radius) - q * w_can
    return w0 + w1 * (w_can * denom.reciprocal())


def invert_expansion(w: HoloSeries) -> HoloSeries:
    """Expansion of 1/w(1/z) around infinity for w with w(0) = 0.

    Returns a series with lowest index -1: entry i is the coefficient of
    z^(1-i), with as many entries as w has.  Trusted outside the unit circle.
    """
    if w.is_laurent:
        raise ValueError("w must be a Taylor series")
    if w.coefficient(0) != 0:
        raise ValueError("inversion at infinity assumes w(0) = 0")
    a1 = w.coefficient(1)
    if a1 == 0:
        raise SingularDivisionError("w'(0) = 0 leaves no z-term to invert")
    # w(zeta) = a1 zeta g(zeta),  g = 1 + sum a_{m}/a1 zeta^(m-1), with one
    # zero slot past a_N so that F keeps len(w) entries
    g = np.zeros(len(w.coeffs), dtype=np.complex128)
    g[0] = 1.0
    g[1:-1] = w.coeffs[2:] / a1
    G = HoloSeries(g, radius=1.0).reciprocal()
    return HoloSeries(G.coeffs / a1, radius=1.0, lowest=-1)


def a_from_b(F: HoloSeries) -> HoloSeries:
    """Inverse of :func:`invert_expansion`: recover w with w(0) = 0 from F.

    F(1/zeta) = p(zeta)/zeta with p the stored coefficients read as a Taylor
    series, so w = zeta / p(zeta).
    """
    if not F.is_laurent:
        raise ValueError("F must be an inverted expansion (lowest index -1)")
    if F.coeffs[0] == 0:
        raise SingularDivisionError("F has no z-term; w'(0) would vanish")
    inv = HoloSeries(F.coeffs, radius=1.0).reciprocal()
    coeffs = np.concatenate([[0.0 + 0j], inv.coeffs])
    return HoloSeries(coeffs, radius=1.0)


def a_leading_from_b(n: int, a1: complex, b0: complex, b1: complex = 0j) -> complex:
    """Leading monomials of coefficient a_n of w in terms of b0 and b1.

    From w = a1 zeta (1 + a1 b0 zeta + a1 b1 zeta^2 + ...)^{-1}: the pure-b0
    monomial plus the single-b1 correction.  Exact when all other b_j vanish
    and n <= 4; for larger n the omitted terms carry higher powers of b1.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    sign = (-1.0) ** (n - 1)
    lead = sign * a1**n * b0 ** (n - 1)
    # a_2 = -a1^2 b0 exactly; b1 first enters at a_3
    if n >= 3:
        lead -= sign * (n - 2) * a1 ** (n - 1) * b0 ** (n - 3) * b1
    return complex(lead)


def _ring_values(terms: np.ndarray, n_angles: int) -> np.ndarray:
    """Values of sum_k t_k exp(2 pi i j k / n_angles) for j = 0..n_angles-1.

    With t_k = c_k r^k along the last axis these are the values of sum c_k z^k
    on the ring |z| = r at n_angles equispaced angles.  On the ring z^k
    depends only on k mod n_angles, so the terms are folded modulo n_angles
    and one inverse FFT gives every angle at once.
    """
    n = terms.shape[-1]
    if n > n_angles:
        padded = np.zeros(terms.shape[:-1] + (-(-n // n_angles) * n_angles,),
                          dtype=np.complex128)
        padded[..., :n] = terms
        terms = padded.reshape(terms.shape[:-1] + (-1, n_angles)).sum(axis=-2)
    return n_angles * np.fft.ifft(terms, n=n_angles, axis=-1)


def covering_radius(w: HoloSeries, n_angles: int = 1024,
                    radii: tuple = (0.995, 0.999)) -> float:
    """Radius of the largest disk around 0 inside the image of the unit disk.

    For univalent w with w(0) = 0 the image of |z| = rho shrinks onto the
    boundary circle as rho -> 1; the minimum modulus is sampled at two radii
    and extrapolated linearly in (1 - rho).  Each ring is one fold of the
    coefficients modulo n_angles and one FFT, whatever the series length.
    """
    if w.is_laurent or w.coefficient(0) != 0:
        raise ValueError("covering radius assumes a Taylor series with w(0) = 0")
    r1, r2 = radii
    if not (0 < r1 < r2 < 1):
        raise ValueError("radii must satisfy 0 < r1 < r2 < 1")
    k = np.arange(len(w.coeffs))
    m1 = float(np.min(np.abs(_ring_values(w.coeffs * r1**k, n_angles))))
    m2 = float(np.min(np.abs(_ring_values(w.coeffs * r2**k, n_angles))))
    # eliminate the O(1 - rho) term: weights from (1-r1)/(1-r2) = 5, 1
    lam = (1.0 - r1) / ((1.0 - r1) - (1.0 - r2))
    return lam * m2 - (lam - 1.0) * m1
