"""Polar quadrature grids on disks and interpolation helpers.

The standard grid is tensor Gauss-Legendre in the radius times a uniform
(trapezoid) rule in the angle; the area element is folded into the weights,
so integrals over the disk are plain weighted sums.  The helpers below also
provide barycentric radial interpolation, which the transform evaluators use
to evaluate ring profiles off the Gauss-Legendre nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "gauss_legendre_01",
    "PolarGrid",
    "polar_grid",
    "barycentric_weights",
    "barycentric_matrix",
]


@lru_cache(maxsize=64)
def gauss_legendre_01(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights transplanted to [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


@dataclass(frozen=True)
class PolarGrid:
    center: complex
    radius: float
    n_rad: int
    n_ang: int
    nodes: np.ndarray      # (n_rad * n_ang,) complex, row-major in (radius, angle)
    weights: np.ndarray    # (n_rad * n_ang,) float, area weights
    t: np.ndarray          # (n_rad,) radial nodes in (0, radius)
    angles: np.ndarray     # (n_ang,) uniform angles

    @property
    def size(self) -> int:
        return self.n_rad * self.n_ang

    def values_matrix(self, flat: np.ndarray) -> np.ndarray:
        return flat.reshape(self.n_rad, self.n_ang)


@lru_cache(maxsize=4)   # small: a solve reuses one disk, and a 48 x 128 grid holds 150 kB
def polar_grid(center: complex, radius: float, n_rad: int, n_ang: int) -> PolarGrid:
    """Cached: every density on the disk at this resolution shares its read-only arrays."""
    x, w = gauss_legendre_01(n_rad)
    t = radius * x
    angles = 2.0 * np.pi * np.arange(n_ang) / n_ang
    ring = np.exp(1j * angles)
    nodes = (center + t[:, None] * ring[None, :]).ravel()
    # dA = t dt dphi  ->  weight = (radius * w_i) * t_i * (2 pi / n_ang)
    weights = ((radius * w * t)[:, None] * np.full(n_ang, 2.0 * np.pi / n_ang)[None, :]).ravel()
    for a in (nodes, weights, t, angles):
        a.setflags(write=False)
    return PolarGrid(complex(center), float(radius), n_rad, n_ang, nodes, weights, t, angles)


def barycentric_weights(x: np.ndarray) -> np.ndarray:
    """Weights for barycentric Lagrange interpolation on nodes x.

    Differences are rescaled by 4 / span to keep the products in range.
    """
    x = np.asarray(x, dtype=np.float64)
    d = (x[:, None] - x[None, :]) * (4.0 / (x.max() - x.min()))
    np.fill_diagonal(d, 1.0)
    return 1.0 / d.prod(axis=1)


def barycentric_matrix(x: np.ndarray, xq: np.ndarray) -> np.ndarray:
    """Matrix B with B @ values = interpolant(values) at query points xq."""
    x = np.asarray(x, dtype=np.float64)
    xq = np.asarray(xq, dtype=np.float64)
    bw = barycentric_weights(x)
    # d, the terms and B share one array: callers pass thousands of points at once
    B = xq[:, None] - x[None, :]
    exact = np.abs(B) < 1e-14
    B[exact] = 1.0
    np.divide(bw[None, :], B, out=B)
    B /= B.sum(axis=1)[:, None]
    rows_exact = exact.any(axis=1)
    if rows_exact.any():
        B[rows_exact] = 0.0
        B[rows_exact, np.argmax(exact[rows_exact], axis=1)] = 1.0
    return B

