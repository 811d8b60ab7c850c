"""Normalized quasiconformal maps with compactly supported dilatation.

For a dilatation mu supported on a disk with sup norm below 1, the map

    h(w) = w + T rho (w),      rho = mu + mu * Pi(mu) + mu * Pi(mu Pi mu) + ...

is the principal solution of the Beltrami equation dh/dwbar = mu * dh/dw
normalized by h(w) = w + O(1/w) at infinity.  The density rho is built by the
Neumann iteration above, which contracts at rate ||mu||_inf.

Each Beurling application is done per angular Fourier mode: on a disk of
center c, a density g(t) e^{ik theta} in centered polar coordinates has

    p.v. (1/pi) II g e^{ik theta} / (zeta - z)^2 dA
        = e^{i(k-2) phi} * 2 (k-1) int_s^R g(t) (s/t)^{k-2} dt/t      (k >= 1)
        = e^{i(k-2) phi} * 2 (1-k)/s int_0^s g(t) (t/s)^{1-k} dt      (k <= 0)

minus the local term e^{-2i phi} g(s) e^{ik phi}, at z = c + s e^{i phi}.
(The local term converts the iterated shell-by-shell integral into the
symmetric principal value; its phase comes from the orientation of the
excision annulus.)  The radial integrals are one-sided with smooth kernels,
so they discretize into dense matrices acting on ring profiles with no
near-diagonal singularity; a pointwise all-pairs rule is unusable here
because its quadrature error at the outermost radial nodes grows under
iteration.  ``transforms._mode_operators`` builds these matrices together
with their Cauchy counterparts, which give T and Pi inside the disk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import DEFAULT_CONFIG, RunConfig
from .errors import ConvergenceError, DilatationBoundError, DivergenceError
from .quadrature import PolarGrid
from .transforms import Density, _mode_operators, cauchy_T

__all__ = ["NeumannResult", "solve_neumann", "QcMap", "build_map", "MapReport", "verify_map"]


class NeumannResult(NamedTuple):
    rho: Density
    n_terms: int
    residual: float


def _beurling_mode_matrices(n_rad: int, n_ang: int) -> np.ndarray:
    """Radial operators of the Beurling transform, one per FFT angular mode.

    mats[m] maps ring profiles g_k(t_j) to the shell integral at the radial
    nodes, for the signed mode k of FFT index m.  Radius-independent: both
    integrals are scale-free in t/R.  Built and cached together with the
    Cauchy operators by ``transforms._mode_operators``.
    """
    return _mode_operators(n_rad, n_ang)[1]


def _beurling_on_grid(grid: PolarGrid, values: np.ndarray) -> np.ndarray:
    """Pi(values * chi_disk) at the grid's own nodes, via angular modes."""
    v = values.reshape(grid.n_rad, grid.n_ang)
    modes = np.fft.fft(v, axis=1)
    mats = _beurling_mode_matrices(grid.n_rad, grid.n_ang)
    shell = np.einsum("mij,jm->im", mats, modes)
    # the density mode k lands on output mode k - 2
    out = np.fft.ifft(np.roll(shell, -2, axis=1), axis=1)
    local = np.exp(-2j * grid.angles)[None, :] * v
    return (-out / np.pi + local).ravel()


def solve_neumann(mu: Density, tol: float | None = None, max_terms: int | None = None,
                  kappa_max: float | None = None) -> NeumannResult:
    """Sum the Neumann series for rho on mu's grid.

    Raises DilatationBoundError when ||mu||_inf reaches kappa_max,
    DivergenceError when a term stops contracting, ConvergenceError when the
    term budget runs out before the tail drops below tol.
    """
    cfg = DEFAULT_CONFIG
    tol = cfg.neumann_tol if tol is None else tol
    max_terms = cfg.neumann_max_terms if max_terms is None else max_terms
    kappa_max = cfg.kappa_max if kappa_max is None else kappa_max
    kappa = mu.sup
    if kappa >= kappa_max:
        raise DilatationBoundError(
            f"dilatation sup {kappa:.4g} is not below the admissible bound {kappa_max:.4g}")
    term = mu.values.copy()
    total = term.copy()
    prev = float(np.max(np.abs(term)))
    scale = max(prev, 1e-300)
    n_terms = 1
    for _ in range(1, max_terms):
        term = mu.values * _beurling_on_grid(mu.grid, term)
        tn = float(np.max(np.abs(term)))
        total += term
        n_terms += 1
        if tn <= tol * scale:
            return NeumannResult(Density.from_grid(mu.disk, total, mu.grid), n_terms, tn / scale)
        if tn >= prev:
            raise DivergenceError(
                f"Neumann term grew from {prev:.3g} to {tn:.3g} at term {n_terms}; "
                "the discretized series is not contracting")
        prev = tn
    raise ConvergenceError(
        f"Neumann tail still {prev / scale:.3g} relative after {max_terms} terms (tol {tol:.3g})")


@dataclass(eq=False)
class QcMap:
    """The normalized map w + T rho together with its construction record."""

    mu: Density
    rho: Density
    n_terms: int
    neumann_residual: float

    def displacement(self, w) -> np.ndarray:
        return cauchy_T(self.rho, w)

    def __call__(self, w):
        w_arr = np.atleast_1d(np.asarray(w, dtype=np.complex128))
        out = w_arr + cauchy_T(self.rho, w_arr)
        if np.isscalar(w) or np.asarray(w).ndim == 0:
            return complex(out[0])
        return out


def build_map(mu: Density, config: RunConfig | None = None) -> QcMap:
    cfg = config or DEFAULT_CONFIG
    rho, n_terms, residual = solve_neumann(
        mu, cfg.neumann_tol, cfg.neumann_max_terms, cfg.kappa_max)
    return QcMap(mu, rho, n_terms, residual)


@dataclass(frozen=True)
class MapReport:
    dilatation_error: float
    conformality_error: float
    jacobian_min: float
    n_probes: int
    delta: float
    warnings: tuple

    @property
    def ok(self) -> bool:
        return not self.warnings


def verify_map(qcmap: QcMap, n_probes: int = 12, delta: float | None = None,
               seed: int = 0, dilatation_tol: float = 5e-3,
               conformality_tol: float = 1e-8) -> MapReport:
    """Finite-difference audit of the Beltrami equation.

    Checks dh/dwbar = mu * dh/dw at interior probes, dh/dwbar = 0 at exterior
    ones, and that the Jacobian |dh/dw|^2 - |dh/dwbar|^2 stays positive.
    Tolerances are loose: the check guards against wiring mistakes, not
    quadrature error.
    """
    disk = qcmap.mu.disk
    r = disk.radius
    dl = delta if delta is not None else 1e-4 * r
    rng = np.random.default_rng(seed)
    t = r * (0.15 + 0.7 * np.sqrt(rng.random(n_probes)))
    ang = 2.0 * np.pi * rng.random(n_probes)
    probes_in = disk.center + t * np.exp(1j * ang)
    t_out = r * (1.4 + 1.6 * rng.random(n_probes))
    probes_out = disk.center + t_out * np.exp(2j * np.pi * rng.random(n_probes))

    def wirtinger(points):
        hx_p = qcmap(points + dl)
        hx_m = qcmap(points - dl)
        hy_p = qcmap(points + 1j * dl)
        hy_m = qcmap(points - 1j * dl)
        dx = (hx_p - hx_m) / (2.0 * dl)
        dy = (hy_p - hy_m) / (2.0 * dl)
        return 0.5 * (dx - 1j * dy), 0.5 * (dx + 1j * dy)

    dw_in, dwb_in = wirtinger(probes_in)
    mu_vals = qcmap.mu.eval_points(probes_in)
    dil_err = float(np.max(np.abs(dwb_in - mu_vals * dw_in)))
    jac_min = float(np.min(np.abs(dw_in) ** 2 - np.abs(dwb_in) ** 2))

    _, dwb_out = wirtinger(probes_out)
    conf_err = float(np.max(np.abs(dwb_out)))

    notes = []
    if dil_err > dilatation_tol:
        notes.append(f"dilatation residual {dil_err:.3g} exceeds {dilatation_tol:.3g}")
    if conf_err > conformality_tol:
        notes.append(f"exterior dwbar reaches {conf_err:.3g}")
    if jac_min <= 0:
        notes.append(f"Jacobian nonpositive at an interior probe ({jac_min:.3g})")
    return MapReport(dil_err, conf_err, jac_min, n_probes, dl, tuple(notes))
