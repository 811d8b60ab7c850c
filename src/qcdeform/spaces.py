"""Weighted Hilbert spaces on the unit disk and growth-type sup norms.

A space is determined by a positive weight sequence w_k: the squared norm of
f = sum c_k z^k is sum w_k |c_k|^2.  Hardy (w_k = 1), Bergman (w_k = 1/(k+1))
and Dirichlet (w_k = max(1, k)) are built in; any rotation-invariant measure
with a radial profile W(t) induces weights through its moments

    w_k = 2 pi * integral_0^1 t^(2k+1) W(t) dt.

The growth seminorm bp_norm is sup over the disk of (1 - |z|^2)^p |f(z)|,
estimated on nested polar grids so refinement can only increase the value.
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


def _golden_max(g, lo: float, hi: float, n_iter: int = 28) -> tuple[float, float]:
    """Peak of g on [lo, hi] as (value, argmax); g unimodal there."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - inv_phi * (b - a), a + inv_phi * (b - a)
    gc, gd = g(c), g(d)
    for _ in range(n_iter):
        if gc >= gd:
            b, d, gd = d, c, gc
            c = b - inv_phi * (b - a)
            gc = g(c)
        else:
            a, c, gc = c, d, gd
            d = a + inv_phi * (b - a)
            gd = g(d)
    return (gc, c) if gc >= gd else (gd, d)


def bp_norm(f, p: float, tol: float = 1e-6, max_level: int = 6) -> float:
    """sup over the disk of (1 - |z|^2)^p |f(z)|.

    f is a callable on complex arrays or a HoloSeries.  Nested grids locate
    the maximizing region (each level contains the previous one, so the scan
    estimate grows monotonically and stops when a full level gains less than
    tol relatively); the best grid point is then polished by golden section
    in radius and angle, which resolves a smooth peak well past the grid
    spacing that located it.
    """
    if isinstance(f, HoloSeries):
        r_max = min(f.radius * (1.0 - 1e-12), 1.0 - 1e-12)
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
        fn = lambda z: f.evaluate(z)
    else:
        r_max = 1.0 - 1e-12
        fn = f
    best = 0.0
    best_r, best_th, h_r, h_th = 0.0, 0.0, 1.0 / 16.0, 2.0 * np.pi / 64.0
    for level in range(max_level + 1):
        n_r = 16 * 2**level
        radii = np.arange(n_r) / n_r
        radii = np.concatenate([radii, 1.0 - 0.5 ** np.arange(1, 7 + level)])
        # sorted with repeats dropped (np.unique would import numpy.ma, 1.5 MB)
        radii = np.sort(radii[radii <= r_max])
        radii = radii[np.append(True, radii[1:] > radii[:-1])]
        n_a = 64 * 2**level
        theta = 2.0 * np.pi * np.arange(n_a) / n_a
        z = np.outer(radii, np.exp(1j * theta))
        vals = (1.0 - np.abs(z) ** 2) ** p * np.abs(fn(z.ravel())).reshape(z.shape)
        i, j = np.unravel_index(int(np.argmax(vals)), vals.shape)
        cur = float(vals[i, j])
        if cur > best:
            best = cur
            best_r, best_th = float(radii[i]), float(theta[j])
            h_r, h_th = 1.0 / n_r, 2.0 * np.pi / n_a
        if level > 0 and cur <= best * (1.0 + tol):
            break

    def height(r: float, th: float) -> float:
        w = fn(np.array([r * np.exp(1j * th)], dtype=complex))
        return float((1.0 - r * r) ** p * np.abs(w)[0])

    r, th = best_r, best_th
    for _ in range(3):
        val, r = _golden_max(lambda s: height(s, th),
                             max(0.0, r - h_r), min(r_max, r + h_r))
        best = max(best, val)
        val, th = _golden_max(lambda t: height(r, t), th - h_th, th + h_th)
        best = max(best, val)
    return best


def monomial_bp_sup(n: int, p: float) -> tuple[float, float]:
    """Exact sup of (1 - t^2)^p t^n on [0, 1) and the radius attaining it."""
    if n == 0:
        return 1.0, 0.0
    t2 = n / (n + 2.0 * p)
    return (1.0 - t2) ** p * t2 ** (n / 2.0), math.sqrt(t2)

