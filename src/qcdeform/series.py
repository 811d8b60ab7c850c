"""Truncated power series with a validity disk.

A :class:`HoloSeries` stores Taylor coefficients around 0 together with the
radius inside which evaluations are trusted.  Arithmetic keeps the truncation
length of the longer operand.

Inverted expansions (functions of the form ``e^{i theta} z + b0 + b1/z + ...``)
reuse the same container with ``lowest = -1``: entry ``i`` then holds the
coefficient of ``z**(-(i + lowest))``, i.e. one positive power of z followed
by powers of 1/z.  Only evaluation is supported in that mode; the inversion
routines in :mod:`qcdeform.schwarzian` produce and consume them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import kernels
from .errors import EvaluationDomainError, ResolutionError, SingularDivisionError

__all__ = [
    "HoloSeries",
    "RecoveredSeries",
    "coeffs_from_circle_samples",
]


def _series_exp(g: np.ndarray) -> np.ndarray:
    """Taylor coefficients of exp(g), as many as g has (``HoloSeries.exp``)."""
    n = len(g)
    f = np.zeros(n, dtype=np.complex128)
    f[0] = np.exp(g[0])
    kg = np.arange(n) * g
    for m in range(1, n):
        # m * f_m = sum_{k=1..m} k g_k f_{m-k}
        f[m] = np.dot(kg[1 : m + 1], f[m - 1 :: -1][: m]) / m
    return f


@dataclass(eq=False)
class HoloSeries:
    coeffs: np.ndarray
    radius: float = 1.0
    lowest: int = 0  # 0: Taylor in z; -1: inverted expansion

    def __post_init__(self) -> None:
        self.coeffs = np.ascontiguousarray(self.coeffs, dtype=np.complex128)
        if self.coeffs.ndim != 1 or len(self.coeffs) == 0:
            raise ValueError("coeffs must be a nonempty 1-d array")
        if self.lowest not in (0, -1):
            raise ValueError("lowest must be 0 (Taylor) or -1 (inverted)")
        if not self.radius > 0:
            raise ValueError("radius must be positive")

    # -- basic queries ------------------------------------------------------

    @property
    def is_laurent(self) -> bool:
        return self.lowest == -1

    def coefficient(self, k: int) -> complex:
        # inverted expansions store powers descending from z^1
        i = -(k + self.lowest) if self.is_laurent else k
        if i < 0 or i >= len(self.coeffs):
            return 0j
        return complex(self.coeffs[i])

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, z) -> np.ndarray:
        """Evaluate at points z; raises when a point leaves the trusted region."""
        z = np.atleast_1d(np.asarray(z, dtype=np.complex128))
        if self.is_laurent:
            if np.any(np.abs(z) <= self.radius):
                raise EvaluationDomainError(
                    f"inverted expansion trusted only for |z| > {self.radius}"
                )
            # sum_k c_k z^{-k}, k = -1..N  ==  z * horner(coeffs, 1/z)
            return z * kernels.horner_many(self.coeffs, 1.0 / z)
        if np.any(np.abs(z) >= self.radius):
            raise EvaluationDomainError(
                f"point outside evaluation disk of radius {self.radius}"
            )
        return kernels.horner_many(self.coeffs, z)

    def __call__(self, z):
        out = self.evaluate(z)
        if np.isscalar(z) or (isinstance(z, (int, float, complex))):
            return complex(out[0])
        return out

    # -- arithmetic (Taylor only) -------------------------------------------

    def _check_taylor(self, other: "HoloSeries | None" = None) -> None:
        if self.is_laurent or (other is not None and other.is_laurent):
            raise ValueError("series arithmetic is defined for Taylor mode only")

    def _join(self, other: "HoloSeries") -> tuple[np.ndarray, np.ndarray, float]:
        n = max(len(self.coeffs), len(other.coeffs))
        a = np.zeros(n, dtype=np.complex128)
        b = np.zeros(n, dtype=np.complex128)
        a[: len(self.coeffs)] = self.coeffs
        b[: len(other.coeffs)] = other.coeffs
        return a, b, min(self.radius, other.radius)

    def __add__(self, other):
        if isinstance(other, HoloSeries):
            self._check_taylor(other)
            a, b, r = self._join(other)
            return HoloSeries(a + b, r)
        idx = -self.lowest  # slot of the constant term
        c = self.coeffs.copy()
        if idx >= len(c):
            c = np.concatenate([c, np.zeros(idx + 1 - len(c), dtype=np.complex128)])
        c[idx] += other
        return HoloSeries(c, self.radius, self.lowest)

    __radd__ = __add__

    def __neg__(self):
        return HoloSeries(-self.coeffs, self.radius, self.lowest)

    def __sub__(self, other):
        return self + (-other if isinstance(other, HoloSeries) else -complex(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, HoloSeries):
            self._check_taylor(other)
            n = max(len(self.coeffs), len(other.coeffs))
            full = np.convolve(self.coeffs, other.coeffs)
            return HoloSeries(full[:n], min(self.radius, other.radius))
        return HoloSeries(self.coeffs * complex(other), self.radius, self.lowest)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, HoloSeries):
            self._check_taylor(other)
            a, b, r = self._join(other)
            if b[0] == 0:
                raise SingularDivisionError("division by a series with zero constant term")
            n = len(a)
            c = np.zeros(n, dtype=np.complex128)
            c[0] = a[0] / b[0]
            for m in range(1, n):
                c[m] = (a[m] - np.dot(b[1 : m + 1], c[m - 1 :: -1][:m])) / b[0]
            return HoloSeries(c, r)
        return self * (1.0 / complex(other))

    def reciprocal(self) -> "HoloSeries":
        one = HoloSeries(
            np.concatenate(([1.0 + 0j], np.zeros(len(self.coeffs) - 1))), self.radius)
        return one / self

    def derivative(self) -> "HoloSeries":
        self._check_taylor()
        if len(self.coeffs) == 1:
            return HoloSeries(np.zeros(1, dtype=np.complex128), self.radius)
        k = np.arange(1, len(self.coeffs))
        return HoloSeries(self.coeffs[1:] * k, self.radius)

    def exp(self) -> "HoloSeries":
        self._check_taylor()
        return HoloSeries(_series_exp(self.coeffs), self.radius)

    def truncated(self, n: int) -> "HoloSeries":
        """Keep indices 0..n, padding with zeros when n exceeds the length."""
        self._check_taylor()
        c = np.zeros(n + 1, dtype=np.complex128)
        m = min(n + 1, len(self.coeffs))
        c[:m] = self.coeffs[:m]
        return HoloSeries(c, self.radius)


class RecoveredSeries(NamedTuple):
    series: HoloSeries
    alias_bound: float  # max |DFT coefficient| in the discarded upper band
    coeff_error_bound: float  # alias bound amplified to the top kept index


def coeffs_from_circle_samples(
    samples: np.ndarray,
    rho_s: float,
    n_keep: int,
    alias_tol: float = 1e-6,
) -> RecoveredSeries:
    """Taylor coefficients 0..n_keep about 0 from uniform samples on |z| = rho_s.

    The sample count must be a power of two and at least 4 * n_keep, so the
    band between n_keep and half the sample count is pure tail; its largest
    DFT magnitude is the reported aliasing bound.  A bound above
    ``alias_tol * max|samples|`` raises :class:`ResolutionError`, and so does
    a sample that is not finite.
    """
    samples = np.asarray(samples, dtype=np.complex128)
    m = len(samples)
    if m & (m - 1) or m < 4 * max(1, n_keep):
        raise ValueError("sample count must be a power of two, at least 4 * n_keep")
    if not 0 < rho_s:
        raise ValueError("rho_s must be positive")
    bad = np.flatnonzero(~np.isfinite(samples))
    if len(bad):
        raise ResolutionError(
            f"circle sample {bad[0]} of {m} is not finite ({samples[bad[0]]})")
    hat = np.fft.fft(samples) / m
    tail = np.abs(hat[m // 4 : m // 2 + 1])
    alias = float(tail.max()) if len(tail) else 0.0
    scale = max(float(np.max(np.abs(samples))), 1e-300)
    if alias > alias_tol * scale:
        raise ResolutionError(
            f"non-decaying spectrum: aliasing bound {alias:.3e} exceeds "
            f"{alias_tol:.1e} of the sample scale {scale:.3e}"
        )
    powers = rho_s ** np.arange(n_keep + 1)
    coeffs = hat[: n_keep + 1] / powers
    series = HoloSeries(coeffs, radius=rho_s)
    return RecoveredSeries(series, alias, alias / powers[-1])
