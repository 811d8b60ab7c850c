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


def polar_grid(center: complex, radius: float, n_rad: int, n_ang: int) -> PolarGrid:
    x, w = gauss_legendre_01(n_rad)
    t = radius * x
    angles = 2.0 * np.pi * np.arange(n_ang) / n_ang
    ring = np.exp(1j * angles)
    nodes = (center + t[:, None] * ring[None, :]).ravel()
    # dA = t dt dphi  ->  weight = (radius * w_i) * t_i * (2 pi / n_ang)
    weights = ((radius * w * t)[:, None] * np.full(n_ang, 2.0 * np.pi / n_ang)[None, :]).ravel()
    return PolarGrid(complex(center), float(radius), n_rad, n_ang,
                     np.ascontiguousarray(nodes), np.ascontiguousarray(weights),
                     t, angles)


def barycentric_weights(x: np.ndarray) -> np.ndarray:
    """Weights for barycentric Lagrange interpolation on nodes x.

    Differences are rescaled by 4 / span to keep the products in range.
    """
    x = np.asarray(x, dtype=np.float64)
    n = len(x)
    scale = 4.0 / (x.max() - x.min())
    w = np.ones(n)
    for j in range(n):
        d = (x[j] - x) * scale
        d[j] = 1.0
        w[j] = 1.0 / d.prod()
    return w


def barycentric_matrix(x: np.ndarray, xq: np.ndarray) -> np.ndarray:
    """Matrix B with B @ values = interpolant(values) at query points xq."""
    x = np.asarray(x, dtype=np.float64)
    xq = np.asarray(xq, dtype=np.float64)
    bw = barycentric_weights(x)
    d = xq[:, None] - x[None, :]
    exact = np.abs(d) < 1e-14
    d = np.where(exact, 1.0, d)
    terms = bw[None, :] / d
    B = terms / terms.sum(axis=1)[:, None]
    rows_exact = exact.any(axis=1)
    if rows_exact.any():
        B[rows_exact] = 0.0
        B[rows_exact, np.argmax(exact[rows_exact], axis=1)] = 1.0
    return B

