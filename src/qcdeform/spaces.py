"""Weighted Hilbert spaces on the unit disk and growth-type sup norms.

A space is determined by a positive weight sequence w_k: the squared norm of
f = sum c_k z^k is sum w_k |c_k|^2.  Hardy (w_k = 1), Bergman (w_k = 1/(k+1))
and Dirichlet (w_k = max(1, k)) are built in; any rotation-invariant measure
with a radial profile W(t) induces weights through its moments

    w_k = 2 pi * integral_0^1 t^(2k+1) W(t) dt.

The growth seminorm bp_norm is sup over the disk of (1 - |z|^2)^p |f(z)|,
located by two fixed polar scans and polished by whole-array line searches
in radius and angle.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .quadrature import gauss_legendre_01
from .series import HoloSeries

__all__ = [
    "SpaceSpec",
    "hardy",
    "bergman",
    "dirichlet",
    "from_radial_measure",
    "hilbert_norm",
    "bp_norm",
    "monomial_bp_sup",
]


@dataclass(frozen=True)
class SpaceSpec:
    name: str
    weight_fn: Callable[[np.ndarray], np.ndarray]

    def weights(self, n: int) -> np.ndarray:
        """Weights w_0 .. w_{n-1}."""
        w = np.asarray(self.weight_fn(np.arange(n)), dtype=np.float64)
        if not np.all(w > 0):
            raise ValueError(f"space {self.name!r} produced nonpositive weights")
        return w


def hardy() -> SpaceSpec:
    return SpaceSpec("hardy", lambda k: np.ones(len(k)))


def bergman() -> SpaceSpec:
    return SpaceSpec("bergman", lambda k: 1.0 / (k + 1.0))


def dirichlet() -> SpaceSpec:
    return SpaceSpec("dirichlet", lambda k: np.maximum(1.0, k.astype(np.float64)))


def from_radial_measure(profile: Callable, name: str = "radial", n_quad: int = 256) -> SpaceSpec:
    """Space of the measure W(|z|) dA; the profile must keep all moments positive."""
    t, gw = gauss_legendre_01(n_quad)
    wt = np.asarray(profile(t), dtype=np.float64) * gw * t

    def weight_fn(k: np.ndarray) -> np.ndarray:
        return 2.0 * np.pi * (t[None, :] ** (2 * k[:, None])) @ wt

    return SpaceSpec(name, weight_fn)


def hilbert_norm(space: SpaceSpec, f: HoloSeries) -> float:
    if f.is_laurent or f.center != 0:
        raise ValueError("Hilbert norms are defined for Taylor series centered at 0")
    c = f.coeffs
    return float(np.sqrt(np.sum(space.weights(len(c)) * np.abs(c) ** 2)))


# ---------------------------------------------------------------------------
# growth seminorm

# bp_norm's two polar scans: n_r uniform radii, the rings 1 - 2^-j nearer the
# circle than those, and n_a angles
_SCANS = ((16, (5, 6), 64), (32, (6, 7), 128))
_LINE_POINTS = 65   # points per pass of a line search
_LINE_PASSES = 4    # passes per line search, each narrowing to two spacings


def _trust_radius(f: HoloSeries) -> float:
    """Radius inside which the truncated series still represents its function."""
    c = np.abs(f.coeffs)
    n = len(c) - 1
    tail = c[-max(1, len(c) // 8):].max()
    if tail == 0.0:
        return 1.0
    scale = max(c.max(), tail)
    # bound the dropped tail by tail * r^n / (1 - r) and keep it below 1e-9 rel
    lo, hi = 0.0, 1.0 - 1e-12
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if tail * mid**n / (1.0 - mid) < 1e-9 * scale:
            lo = mid
        else:
            hi = mid
    return lo


def _line_max(g, lo: float, hi: float) -> tuple[float, float]:
    """(value, argmax) of g on [lo, hi], g taking and returning arrays."""
    for _ in range(_LINE_PASSES):
        x = np.linspace(lo, hi, _LINE_POINTS)
        v = g(x)
        i = int(np.argmax(v))
        lo, hi = x[max(i - 1, 0)], x[min(i + 1, _LINE_POINTS - 1)]
    return float(v[i]), float(x[i])


def bp_norm(f, p: float) -> float:
    """sup over the disk of (1 - |z|^2)^p |f(z)|.

    f is a callable on complex arrays or a HoloSeries.  Two fixed polar scans
    locate the peak; the best point of the scan with the larger value (the
    first on a tie) is polished by three rounds of a radius and an angle line
    search within one step of that scan.  Raises ValueError naming a point
    where (1 - |z|^2)^p |f(z)| is not finite.
    """
    r_max, fn = 1.0 - 1e-12, f
    if isinstance(f, HoloSeries):
        r_max, fn = min(f.radius * (1.0 - 1e-12), r_max), f.evaluate
        # the sup is that of the stored polynomial, computed exactly; warn when
        # a series long enough to be a truncation has not decayed by its end
        # (an infinite radius marks an exact polynomial, which truncates nothing)
        if len(f.coeffs) >= 8 and np.isfinite(f.radius):
            trust = _trust_radius(f)
            if trust < 0.9:
                warnings.warn(
                    "series coefficients have not decayed by the truncation "
                    f"point; values are only trusted up to |z| = {trust:.3f}",
                    stacklevel=2)

    def height(z: np.ndarray, r) -> np.ndarray:
        """(1 - r^2)^p |f(z)|, checked finite; r = |z|, exact where known (from
        the rounded |z|, 1 - |z|^2 is 2e-4 off at |z| = 1 - 1e-12)."""
        vals = (1.0 - r**2) ** p * np.abs(fn(z.ravel())).reshape(z.shape)
        bad = ~np.isfinite(vals)
        if bad.any():
            raise ValueError(f"(1 - |z|^2)^p |f(z)| is not finite at z = {complex(z[bad][0])}")
        return vals

    # f = 0 keeps the start at the center with the first scan's steps
    best, r, th, h_r, h_th = 0.0, 0.0, 0.0, 1.0 / 16.0, 2.0 * np.pi / 64.0
    for n_r, rings, n_a in _SCANS:
        radii = np.append(np.arange(n_r) / n_r, 1.0 - 0.5 ** np.array(rings))
        radii = radii[radii <= r_max]
        theta = 2.0 * np.pi * np.arange(n_a) / n_a
        z = np.outer(radii, np.exp(1j * theta))
        vals = height(z, np.abs(z))
        i, j = np.unravel_index(int(np.argmax(vals)), vals.shape)
        if vals[i, j] > best:
            best, r, th = float(vals[i, j]), float(radii[i]), float(theta[j])
            h_r, h_th = 1.0 / n_r, 2.0 * np.pi / n_a
    for _ in range(3):
        val_r, r = _line_max(lambda s: height(s * np.exp(1j * th), s),
                             max(0.0, r - h_r), min(r_max, r + h_r))
        val_th, th = _line_max(lambda t: height(r * np.exp(1j * t), r), th - h_th, th + h_th)
        best = max(best, val_r, val_th)
    return best


def monomial_bp_sup(n: int, p: float) -> tuple[float, float]:
    """Exact sup of (1 - t^2)^p t^n on [0, 1) and the radius attaining it."""
    if n == 0:
        return 1.0, 0.0
    t2 = n / (n + 2.0 * p)
    return (1.0 - t2) ** p * t2 ** (n / 2.0), math.sqrt(t2)

