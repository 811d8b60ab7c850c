"""Normalized quasiconformal maps with compactly supported dilatation.

For a dilatation mu supported on a disk with sup norm below 1, the map

    h(w) = w + T rho (w),      rho = mu + mu * Pi(mu) + mu * Pi(mu Pi mu) + ...

is the principal solution of the Beltrami equation dh/dwbar = mu * dh/dw
normalized by h(w) = w + O(1/w) at infinity.  The density rho is built by the
Neumann iteration above, which contracts at rate ||mu||_inf.  A dilatation
given by conjugated pole terms, sum_i c_i conj((zeta - p_i)^-k_i), needs no
iteration: it is antiholomorphic on the disk, so Pi mu = 0 there and the
series stops at rho = mu (Astala, Iwaniec & Martin, Elliptic PDE and
Quasiconformal Mappings in the Plane, 2009).  rho is then mu itself, terms
kept, and the map's T rho is their closed form: no grid sample is read.

For other densities each Beurling application is
``Density.beurling_on_grid``: the density's angular modes through the
per-mode radial operators of ``transforms``, summed back at the grid nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import DEFAULT_CONFIG, RunConfig
from .errors import ConvergenceError, DilatationBoundError, DivergenceError
from .transforms import Density, cauchy_T

__all__ = ["NeumannResult", "solve_neumann", "QcMap", "build_map", "MapReport", "verify_map"]


# relative size of the last Neumann term summed
_NEUMANN_TOL = 1e-12


class NeumannResult(NamedTuple):
    rho: Density
    n_terms: int
    residual: float


def solve_neumann(mu: Density, config: RunConfig | None = None) -> NeumannResult:
    """Sum the Neumann series for rho on mu's grid, until a term falls below
    1e-12 of the first.  For a density with pole ``terms`` the second term
    mu Pi mu is exactly 0 (module docstring), so rho is mu itself, terms
    kept, after 1 term with residual 0.

    A series contracting at the config's kappa_max reaches that in
    ceil(log(1e-12) / log(kappa_max)) + 1 terms (41 at kappa_max 0.5), which
    is the term budget.  Raises DilatationBoundError when ||mu||_inf reaches
    kappa_max, DivergenceError when a term stops contracting,
    ConvergenceError when the budget leaves a tail above 1e-12, naming the
    last contraction ratio and the term count it predicts.
    """
    cfg = config or DEFAULT_CONFIG
    tol = _NEUMANN_TOL
    max_terms = int(np.ceil(np.log(tol) / np.log(cfg.kappa_max))) + 1
    kappa = mu.sup
    if kappa >= cfg.kappa_max:
        raise DilatationBoundError(
            f"dilatation sup {kappa:.4g} is not below the admissible bound {cfg.kappa_max:.4g}")
    if mu.terms is not None:
        return NeumannResult(mu, 1, 0.0)
    term = mu.values.copy()
    total = term.copy()
    prev = float(np.max(np.abs(term)))
    scale = max(prev, 1e-300)
    before = prev
    n_terms = 1
    for _ in range(1, max_terms):
        term = mu.values * Density(mu.disk, mu.grid, term).beurling_on_grid()
        tn = float(np.max(np.abs(term)))
        total += term
        n_terms += 1
        if tn <= tol * scale:
            return NeumannResult(Density(mu.disk, mu.grid, total), n_terms, tn / scale)
        if tn >= prev:
            raise DivergenceError(
                f"Neumann term grew from {prev:.3g} to {tn:.3g} at term {n_terms}; "
                "the discretized series is not contracting")
        before, prev = prev, tn
    # the budget is at least 2 terms, so a ratio was measured (below 1, or
    # DivergenceError would have been raised); terms shrink geometrically at it
    ratio = prev / before
    need = n_terms + int(np.ceil(np.log(tol * scale / prev) / np.log(ratio)))
    raise ConvergenceError(
        f"Neumann tail still {prev / scale:.3g} relative after {max_terms} terms "
        f"(tol {tol:.3g}); contraction ratio {ratio:.3g} predicts {need} terms")


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
    rho, n_terms, residual = solve_neumann(mu, cfg)
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


# verify_map's central-difference step, as a fraction of the disk radius, and
# its tolerances: loose, they catch wiring mistakes, not quadrature error
_DELTA_REL = 1e-4
_DILATATION_TOL = 5e-3
_CONFORMALITY_TOL = 1e-8


def verify_map(qcmap: QcMap, n_probes: int = 12, seed: int = 0) -> MapReport:
    """Finite-difference audit of the Beltrami equation.

    Checks dh/dwbar = mu * dh/dw at interior probes (to 5e-3), dh/dwbar = 0
    at exterior ones (to 1e-8), and that the Jacobian |dh/dw|^2 - |dh/dwbar|^2
    stays positive, with central differences of step 1e-4 disk radii.  The
    four shifted copies of each probe set go through one map call; every
    point's value is independent of the other targets.
    """
    disk = qcmap.mu.disk
    r = disk.radius
    dl = _DELTA_REL * r
    rng = np.random.default_rng(seed)
    t = r * (0.15 + 0.7 * np.sqrt(rng.random(n_probes)))
    ang = 2.0 * np.pi * rng.random(n_probes)
    probes_in = disk.center + t * np.exp(1j * ang)
    t_out = r * (1.4 + 1.6 * rng.random(n_probes))
    probes_out = disk.center + t_out * np.exp(2j * np.pi * rng.random(n_probes))

    def wirtinger(points):
        h = qcmap(points + np.array([dl, -dl, 1j * dl, -1j * dl])[:, None])
        dx, dy = (h[::2] - h[1::2]) / (2.0 * dl)
        return 0.5 * (dx - 1j * dy), 0.5 * (dx + 1j * dy)

    dw_in, dwb_in = wirtinger(probes_in)
    mu_vals = qcmap.mu.eval_points(probes_in)
    dil_err = float(np.max(np.abs(dwb_in - mu_vals * dw_in)))
    jac_min = float(np.min(np.abs(dw_in) ** 2 - np.abs(dwb_in) ** 2))

    _, dwb_out = wirtinger(probes_out)
    conf_err = float(np.max(np.abs(dwb_out)))

    notes = []
    if dil_err > _DILATATION_TOL:
        notes.append(f"dilatation residual {dil_err:.3g} exceeds {_DILATATION_TOL:.3g}")
    if conf_err > _CONFORMALITY_TOL:
        notes.append(f"exterior dwbar reaches {conf_err:.3g}")
    if jac_min <= 0:
        notes.append(f"Jacobian nonpositive at an interior probe ({jac_min:.3g})")
    return MapReport(dil_err, conf_err, jac_min, n_probes, dl, tuple(notes))
