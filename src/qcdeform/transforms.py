"""Area-integral transforms of densities supported on a disk.

The Cauchy transform used throughout is

    T rho (w) = -(1/pi) integral of rho(zeta) / (zeta - w) over the disk,

and the Beurling transform is its w-derivative, a principal-value integral
with kernel 1/(zeta - w)^2.  Both come from the angular Fourier modes of the
grid samples.  On a disk of center c and radius R, a density g(t) e^{ik theta}
in centered polar coordinates has, at w = c + s e^{i phi} inside the disk,

    T = -2 e^{i(k-1) phi} int_s^R g(t) (s/t)^{k-1} dt          (k >= 1)
    T = +2 e^{i(k-1) phi} int_0^s g(t) (t/s)^{1-k} dt          (k <= 0)

and Pi is given by the formulas in ``beltrami`` on output mode k - 2, plus
the local term e^{-2i phi} rho(w).  The one-sided radial integrals are
discretized once per grid shape by ``_mode_operators`` (Daripa, SIAM J. Sci.
Stat. Comput. 13, 1992); a density applies them to its ring profiles and
the resulting output profiles are interpolated to the targets, radially by
barycentric interpolation and in angle at the signed output frequencies.
Outside, only the modes k = -j <= 0 contribute; with x = R/(w - c) they sum
to a finite multipole series (Greengard & Rokhlin, J. Comput. Phys. 73, 1987)
that holds up to the circle,

    T = sum_j a_j x^{j+1},   Pi = -(x^2/R) sum_j (j+1) a_j x^j,
    a_j = 2R int_0^1 g_{-j}(R t) t^{j+1} dt,

though beyond 1.25 radii T is the plain weighted sum over the grid instead.
For the indicator this reproduces the closed forms

    T chi (w) = conj(w) - conj(center)        for w in the disk,
    T chi (w) = radius^2 / (w - center)       for w outside,

and Pi chi = 0 inside.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from . import kernels
from .config import DEFAULT_CONFIG
from .errors import SingularKernelError
from .quadrature import (
    PolarGrid,
    barycentric_matrix,
    gauss_legendre_01,
    polar_grid,
)

__all__ = [
    "Disk",
    "Density",
    "pairing",
    "cauchy_chi",
    "cauchy_T",
    "asymptotic_T",
    "beurling_Pi",
]

# T of exterior points beyond this factor of the radius is the plain grid sum,
# already spectrally accurate there; closer points use the multipole series
_NEAR_FACTOR = 1.25

_PANEL = np.log(1.5)    # log-radius panel length for the one-sided integrals
_N_TAIL = 52            # inward panels; kernel decays at least e^{-2 lam}, tail < 1e-18


@dataclass(frozen=True)
class Disk:
    center: complex
    radius: float

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError("disk radius must be positive")
        object.__setattr__(self, "center", complex(self.center))

    def gap_to(self, other_center: complex, other_radius: float) -> float:
        """Distance between this disk and the closed disk (center, radius)."""
        return abs(self.center - other_center) - self.radius - other_radius


def _terms_fn(terms) -> Callable:
    def fn(z):
        z = np.asarray(z, dtype=np.complex128)
        acc = np.zeros(z.shape, dtype=np.complex128)
        for coeff, pole, k in terms:
            if k == 0:
                acc = acc + coeff
            else:
                acc = acc + coeff * np.conj((z - pole) ** (-k))
        return acc

    return fn


# ---------------------------------------------------------------------------
# mode-space operators


def _signed_freqs(n_ang: int) -> np.ndarray:
    return np.fft.fftfreq(n_ang, d=1.0 / n_ang)


@lru_cache(maxsize=8)
def _mode_operators(n_rad: int, n_ang: int) -> tuple[np.ndarray, np.ndarray]:
    """Radial operators of T and Pi on the unit disk, one per FFT angular mode.

    Returns (cauchy, beurling).  cauchy[m] maps the ring profile g_k(t_j) of
    the signed mode k of FFT index m to the output profile of T at the radii
    (0, t_1, ..., t_n); beurling[m] maps it to the shell integral of Pi at
    (t_1, ..., t_n), before the -1/pi factor and the local term.  Both kinds
    rest on the same one-sided integrals

        int_s^1 g(t) (s/t)^{k-2} dt/t   (k >= 1),   int_0^s g(t) (t/s)^{2-k} dt/t   (k <= 0),

    taken in log radius on uniform panels outward and a fixed geometric tail
    inward, with g interpolated from the Gauss-Legendre nodes.  T's profiles
    of modes k <= 1 are polynomials of degree n in s, so the extra radius 0,
    where only mode 1 survives, makes their interpolation exact.
    """
    t01, w01 = gauss_legendre_01(n_rad)
    gq, gw = np.polynomial.legendre.leggauss(20)
    ks = _signed_freqs(n_ang)
    up, dn = ks >= 1, ks <= 0
    k_up, k_dn = ks[up][:, None], ks[dn][:, None]
    cauchy = np.zeros((n_ang, n_rad + 1, n_rad))
    beurling = np.zeros((n_ang, n_rad, n_rad))
    cauchy[ks == 1, 0, :] = -2.0 * w01
    for i, s in enumerate(t01):
        lam_s = np.log(s)
        # outward side [s, 1] in log radius, uniform panels
        n_up = max(1, int(np.ceil(-lam_s / _PANEL)))
        edges = lam_s * (1.0 - np.arange(n_up + 1) / n_up)
        mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
        lam_up = (mid[:, None] + half[:, None] * gq[None, :]).ravel()
        w_up = (half[:, None] * gw[None, :]).ravel()
        # inward side, fixed geometric tail below s
        edges = lam_s - _PANEL * np.arange(_N_TAIL, -1, -1)
        mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
        lam_dn = (mid[:, None] + half[:, None] * gq[None, :]).ravel()
        w_dn = (half[:, None] * gw[None, :]).ravel()

        shell_up = (w_up * np.exp(-(k_up - 2) * (lam_up - lam_s))) @ barycentric_matrix(
            t01, np.exp(lam_up))
        shell_dn = (w_dn * np.exp((2 - k_dn) * (lam_dn - lam_s))) @ barycentric_matrix(
            t01, np.exp(lam_dn))
        # dt = t dlam turns the Cauchy weights (s/t)^{k-1} dt into s (s/t)^{k-2} dlam
        cauchy[up, i + 1, :] = -2.0 * s * shell_up
        cauchy[dn, i + 1, :] = 2.0 * s * shell_dn
        beurling[up, i, :] = 2.0 * np.pi * (k_up - 1) * shell_up
        beurling[dn, i, :] = 2.0 * np.pi * (1 - k_dn) * shell_dn
    cauchy.setflags(write=False)
    beurling.setflags(write=False)
    return cauchy, beurling


def _mode_sum(radii: np.ndarray, profiles: np.ndarray, freqs: np.ndarray,
              u: np.ndarray) -> np.ndarray:
    """sum_m p_m(|u|) e^{i freqs[m] arg u}, each p_m given by its values at radii."""
    B = barycentric_matrix(radii, np.abs(u))            # (P, len(radii))
    phase = np.exp(1j * np.outer(np.angle(u), freqs))   # (P, n_modes)
    return ((B @ profiles) * phase).sum(axis=1)


@dataclass(eq=False)
class Density:
    """A bounded measurable coefficient on a disk.

    ``values`` always holds samples on the disk's quadrature grid; ``fn``
    is an optional everywhere-evaluator.  Densities built from conjugated
    pole terms carry both, and additions keep whichever structure survives.
    """

    disk: Disk
    grid: PolarGrid
    values: np.ndarray
    fn: Callable | None = None
    terms: tuple | None = None  # ((coeff, pole, k), ...) meaning coeff * conj((z-pole)^-k)
    _expansions: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=np.complex128)
        if self.values.shape != (self.grid.size,):
            raise ValueError("values must be flat samples on the density's grid")
        if self.fn is not None and self.terms is not None:
            probe = self.fn(self.grid.nodes[:: max(1, self.grid.size // 64)])
            ref = _terms_fn(self.terms)(self.grid.nodes[:: max(1, self.grid.size // 64)])
            scale = max(1.0, float(np.max(np.abs(ref))))
            if np.max(np.abs(probe - ref)) > 1e-10 * scale:
                raise ValueError("fn and terms disagree on the grid")

    # -- constructors --------------------------------------------------------

    @staticmethod
    def from_terms(disk: Disk, terms: Sequence, n_rad: int | None = None,
                   n_ang: int | None = None) -> "Density":
        grid = polar_grid(disk.center, disk.radius,
                          n_rad or DEFAULT_CONFIG.n_rad, n_ang or DEFAULT_CONFIG.n_ang)
        terms = tuple((complex(c), complex(p), int(k)) for c, p, k in terms)
        for _, pole, k in terms:
            if k > 0 and abs(pole - disk.center) <= disk.radius * (1 + 1e-12):
                raise SingularKernelError("pole of a basis term touches the support disk")
        fn = _terms_fn(terms)
        return Density(disk, grid, fn(grid.nodes), fn, terms)

    @staticmethod
    def from_function(disk: Disk, fn: Callable, n_rad: int | None = None,
                      n_ang: int | None = None) -> "Density":
        grid = polar_grid(disk.center, disk.radius,
                          n_rad or DEFAULT_CONFIG.n_rad, n_ang or DEFAULT_CONFIG.n_ang)
        return Density(disk, grid, np.asarray(fn(grid.nodes), dtype=np.complex128), fn)

    @staticmethod
    def from_grid(disk: Disk, values: np.ndarray, grid: PolarGrid) -> "Density":
        return Density(disk, grid, values)

    @staticmethod
    def constant(disk: Disk, value: complex, n_rad: int | None = None,
                 n_ang: int | None = None) -> "Density":
        return Density.from_terms(disk, [(complex(value), 0j, 0)], n_rad, n_ang)

    # -- algebra --------------------------------------------------------------

    def _compatible(self, other: "Density"):
        if (self.disk != other.disk or self.grid.n_rad != other.grid.n_rad
                or self.grid.n_ang != other.grid.n_ang):
            raise ValueError("densities live on different grids")

    def __add__(self, other: "Density") -> "Density":
        self._compatible(other)
        terms = None
        fn = None
        if self.terms is not None and other.terms is not None:
            terms = self.terms + other.terms
            fn = _terms_fn(terms)
        elif self.fn is not None and other.fn is not None:
            a, b = self.fn, other.fn
            fn = lambda z: a(z) + b(z)
        return Density(self.disk, self.grid, self.values + other.values, fn, terms)

    def __mul__(self, scalar) -> "Density":
        s = complex(scalar)
        terms = tuple((c * s, p, k) for c, p, k in self.terms) if self.terms is not None else None
        fn = None
        if terms is not None:
            fn = _terms_fn(terms)
        elif self.fn is not None:
            g = self.fn
            fn = lambda z: s * g(z)
        return Density(self.disk, self.grid, self.values * s, fn, terms)

    __rmul__ = __mul__

    @property
    def sup(self) -> float:
        """Sup-norm surrogate: the max over the quadrature grid."""
        return float(np.max(np.abs(self.values)))

    # -- point evaluation ------------------------------------------------------

    def eval_points(self, z) -> np.ndarray:
        """Values at arbitrary points of the closed disk.

        Uses the exact evaluator when one is attached, otherwise trigonometric
        interpolation in the angle and barycentric polynomial interpolation in
        the radius of the stored grid samples.
        """
        z = np.atleast_1d(np.asarray(z, dtype=np.complex128))
        if self.fn is not None:
            return np.asarray(self.fn(z), dtype=np.complex128)
        return _mode_sum(*self._expansion("density"), z - self.disk.center)

    def _expansion(self, kind: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(radii, profiles, freqs) of a mode expansion inside the disk.

        The value at center + u is sum_m p_m(|u|) e^{i freqs[m] arg u}, with
        p_m the polynomial through profiles[:, m] at radii.  kind "density"
        is the interpolant of the grid samples, "cauchy" and "beurling" are
        T and Pi of that interpolant; density mode k lands on output mode
        k - 1 and k - 2 respectively.  Cached per density.
        """
        if kind not in self._expansions:
            if kind == "density":
                modes = np.fft.fft(self.grid.values_matrix(self.values), axis=1) / self.grid.n_ang
                # drop angular modes below relative noise; smooth densities keep few
                peak = np.abs(modes).max(axis=0)
                keep = peak > 1e-14 * max(peak.max(), 1e-300)
                entry = (self.grid.t, np.ascontiguousarray(modes[:, keep]),
                         _signed_freqs(self.grid.n_ang)[keep])
            else:
                t, modes, freqs = self._expansion("density")
                cauchy, beurling = _mode_operators(self.grid.n_rad, self.grid.n_ang)
                idx = freqs.astype(int) % self.grid.n_ang
                g = modes.T[:, :, None]                 # (n_modes, n_rad, 1)
                if kind == "cauchy":
                    entry = (np.concatenate([[0.0], t]),
                             self.disk.radius * (cauchy[idx] @ g)[..., 0].T, freqs - 1)
                else:
                    # the local term e^{-2i phi} rho(w) rides on output mode k - 2
                    entry = (t, modes - (beurling[idx] @ g)[..., 0].T / np.pi, freqs - 2)
            self._expansions[kind] = entry
        return self._expansions[kind]

    def _multipole(self) -> np.ndarray:
        """Exterior moments a_0, a_1, ... (module docstring), cached per density."""
        if "multipole" not in self._expansions:
            _, modes, freqs = self._expansion("density")
            t01, w01 = gauss_legendre_01(self.grid.n_rad)
            out = freqs <= 0
            j = -freqs[out].astype(int)
            a = np.zeros(1 - int(freqs.min(initial=0)), dtype=np.complex128)
            a[j] = 2.0 * self.disk.radius * (w01[:, None] * t01[:, None] ** (j + 1)
                                             * modes[:, out]).sum(axis=0)
            self._expansions["multipole"] = a
        return self._expansions["multipole"]


# ---------------------------------------------------------------------------
# pairings and transforms


def pairing(nu: Density, phi) -> complex:
    """Area pairing <nu, phi> = -(1/pi) * integral of nu * phi over the disk.

    phi is either a callable or a pair (pole, k) meaning 1/(z - pole)^k; the
    pole must stay off the closed support disk.
    """
    if callable(phi):
        vals = np.asarray(phi(nu.grid.nodes), dtype=np.complex128)
    else:
        pole, k = phi
        if abs(complex(pole) - nu.disk.center) <= nu.disk.radius * (1 + 1e-12):
            raise SingularKernelError("pairing kernel pole touches the support disk")
        vals = (nu.grid.nodes - complex(pole)) ** (-int(k))
    return complex(-(1.0 / np.pi) * np.sum(nu.grid.weights * nu.values * vals))


def cauchy_chi(disk: Disk, w) -> np.ndarray:
    """Closed-form Cauchy transform of the disk indicator."""
    w = np.atleast_1d(np.asarray(w, dtype=np.complex128))
    u = w - disk.center
    inside = np.abs(u) < disk.radius
    out = np.empty(w.shape, dtype=np.complex128)
    out[inside] = np.conj(u[inside])
    u_out = u[~inside]
    out[~inside] = disk.radius**2 / u_out
    return out


def _route(rho: Density, w: np.ndarray):
    dist = np.abs(w - rho.disk.center)
    inside = dist < rho.disk.radius
    near = (~inside) & (dist < _NEAR_FACTOR * rho.disk.radius)
    far = (~inside) & (~near)
    return inside, near, far


def cauchy_T(rho: Density, w) -> np.ndarray:
    """Cauchy transform of rho at points w (any mix of regimes)."""
    w = np.atleast_1d(np.asarray(w, dtype=np.complex128))
    out = np.empty(w.shape, dtype=np.complex128)
    inside, near, far = _route(rho, w)
    if far.any():
        s = kernels.cauchy_sum(rho.grid.nodes, rho.grid.weights, rho.values,
                               np.ascontiguousarray(w[far]))
        out[far] = -s / np.pi
    if near.any():
        x = rho.disk.radius / (w[near] - rho.disk.center)
        out[near] = x * kernels.horner_many(rho._multipole(), x)
    if inside.any():
        out[inside] = _mode_sum(*rho._expansion("cauchy"), w[inside] - rho.disk.center)
    return out


def asymptotic_T(rho: Density, w) -> np.ndarray:
    """Leading small-radius model rho(center) * radius^2 / (w - center)."""
    w = np.atleast_1d(np.asarray(w, dtype=np.complex128))
    rho_c = rho.eval_points(np.array([rho.disk.center]))[0]
    return rho_c * rho.disk.radius**2 / (w - rho.disk.center)


def beurling_Pi(rho: Density, w) -> np.ndarray:
    """Beurling transform of rho at points w.

    Outside the support it is the w-derivative of T's multipole series;
    inside, the principal value comes from the per-mode shell integrals.
    """
    w = np.atleast_1d(np.asarray(w, dtype=np.complex128))
    out = np.empty(w.shape, dtype=np.complex128)
    u = w - rho.disk.center
    inside = np.abs(u) < rho.disk.radius
    if (~inside).any():
        a = rho._multipole()
        x = rho.disk.radius / u[~inside]
        out[~inside] = -(x * x / rho.disk.radius) * kernels.horner_many(
            np.arange(1, len(a) + 1) * a, x)
    if inside.any():
        out[inside] = _mode_sum(*rho._expansion("beurling"), u[inside])
    return out
