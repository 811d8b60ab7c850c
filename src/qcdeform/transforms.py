"""Area-integral transforms of densities supported on a disk.

The Cauchy transform used throughout is

    T rho (w) = -(1/pi) integral of rho(zeta) / (zeta - w) over the disk,

and the Beurling transform is its w-derivative, a principal-value integral
with kernel 1/(zeta - w)^2.  Both come from the angular Fourier modes of the
grid samples.  On a disk of center c and radius R, a density g(t) e^{ik theta}
in centered polar coordinates has, at w = c + s e^{i phi} inside the disk,

    T = -2 e^{i(k-1) phi} int_s^R g(t) (s/t)^{k-1} dt          (k >= 1)
    T = +2 e^{i(k-1) phi} int_0^s g(t) (t/s)^{1-k} dt          (k <= 0)

and its principal-value Beurling transform lands on output mode k - 2,

    Pi = e^{i(k-2) phi} [g(s) - 2 (k-1) int_s^R g(t) (s/t)^{k-2} dt/t]   (k >= 1)
    Pi = e^{i(k-2) phi} [g(s) - 2 (1-k) int_0^s g(t) (t/s)^{2-k} dt/t]   (k <= 0)

where the local term g(s), that is e^{-2i phi} rho(w), turns the iterated
shell-by-shell integral into the symmetric principal value (its phase comes
from the orientation of the excision annulus).  The radial integrals are
one-sided with smooth kernels, so they discretize into dense matrices on the
ring profiles with no near-diagonal singularity; a pointwise all-pairs rule
is unusable because its error at the outermost radial nodes grows under the
Neumann iteration.  They are built once per grid shape by ``_mode_operators``
(Daripa, SIAM J. Sci. Stat. Comput. 13, 1992), the inward integrals exactly
by one Gauss-Legendre rule; a density applies them to its ring profiles, as
real products on the stacked real and imaginary parts of its modes, and the
resulting output profiles are summed at the targets, radially by barycentric
interpolation and in angle at the signed output frequencies, or at the
grid's own nodes by one inverse FFT per ring.
Outside, only the modes k = -j <= 0 contribute; with x = R/(w - c) they sum
to a finite multipole series (Greengard & Rokhlin, J. Comput. Phys. 73, 1987)
that holds from the circle outward,

    T = sum_j a_j x^{j+1},   Pi = -(x^2/R) sum_j (j+1) a_j x^j,
    a_j = 2R int_0^1 g_{-j}(R t) t^{j+1} dt.

The same moments translate to the Taylor coefficients of T at any exterior
point c0 (Greengard & Rokhlin's multipole-to-local step): with d = c - c0 and
r = R/d,

    L_m = sum_j a_j (-r)^{j+1} C(m+j, j) d^{-m},

and L_m equals the area pairing of rho with (zeta - c0)^{-(m+1)}.
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
    "local_matrix",
    "beurling_Pi",
    "terms_sup",
]

_PANEL = np.log(1.5)    # log-radius panel length for the outward integrals


@dataclass(frozen=True)
class Disk:
    center: complex
    radius: float

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError("disk radius must be positive")
        object.__setattr__(self, "center", complex(self.center))


def _by_pole(terms) -> dict:
    """{pole: {m: a_m}}: g = sum_i conj(c_i) (z - p_i)^-k_i, the conjugate of
    sum_i c_i conj((z - p_i)^-k_i), as a Laurent polynomial in z - p per pole,
    with the coefficients of equal (pole, k) summed."""
    merged: dict = {}
    for coeff, pole, k in terms:
        by_m = merged.setdefault(pole, {})
        by_m[-k] = by_m.get(-k, 0j) + np.conj(coeff)
    return merged


def _laurent(coeffs: dict, x: np.ndarray) -> np.ndarray:
    """sum_m coeffs[m] x^m over the integer keys m: Horner in 1 / x over m < 0
    and in x over m >= 0, so one reciprocal and no complex power is formed."""
    lo, hi = min(coeffs), max(coeffs)
    acc = np.zeros(x.shape, dtype=np.complex128)
    if lo < 0:
        inv = 1.0 / x
        for m in range(lo, 0):   # a_lo x^lo + .. + a_-1 x^-1
            acc += coeffs.get(m, 0j)
            acc *= inv
    if hi >= 0:
        pos = np.zeros(x.shape, dtype=np.complex128)
        for m in range(hi, -1, -1):
            pos *= x
            pos += coeffs.get(m, 0j)
        acc += pos
    return acc


def _eval_terms(terms, z) -> np.ndarray:
    """sum_i c_i conj((z - p_i)^-k_i) at the points z, per pole (``_by_pole``)."""
    z = np.asarray(z, dtype=np.complex128)
    g = np.zeros(z.shape, dtype=np.complex128)
    for pole, coeffs in _by_pole(terms).items():
        g += _laurent(coeffs, z - pole)
    return np.conj(g)


def terms_sup(disk: Disk, terms, n_ang: int) -> float:
    """Upper bound on the sup over the closed disk of |sum_i c_i conj((z - p_i)^-k_i)|.

    The sum is the conjugate of g = sum_i conj(c_i) (z - p_i)^-k_i, holomorphic
    near the closed disk, so its sup is attained on the circle (maximum modulus).  Let
    G(theta) = g(c + R e^{i theta}), sampled at n = 4 n_ang uniform angles, and
    h = pi / n the largest angle to the nearest sample.  Then
    sup|G^(p)| <= max_s |G^(p)(s)| + h sup|G^(p+1)| for p = 0, 1, 2, with the
    third derivative bounded term by term, and phi = |G|^2 exceeds its
    sample max by at most (h^2 / 2) sup|phi''|, |phi''| <= 2 |G| |G''| + 2 |G'|^2.
    """
    c, R, n = disk.center, disk.radius, 4 * n_ang
    e = np.exp(2j * np.pi * np.arange(n) / n)
    z = c + R * e
    g = np.zeros((3, n), dtype=np.complex128)
    crude = np.zeros(4)   # sum_i |c_i| max over the circle of |d^p (z - p_i)^-k_i|
    for pole, coeffs in _by_pole(terms).items():
        for m, coeff in coeffs.items():   # the term (z - pole)^m, m = -k
            fall = np.cumprod([1.0, m, m - 1, m - 2])
            # nearest (k > 0) or farthest (k < 0) circle point from the pole
            base = abs(pole - c) + (-R if m < 0 else R)
            crude += abs(coeff) * np.abs(fall) * base ** (m - np.arange(4.0))
        for p in range(3):   # g's p-th derivative, a Laurent polynomial in z - pole too
            if coeffs:
                g[p] += _laurent(coeffs, z - pole)
            coeffs = {m - 1: m * coeff for m, coeff in coeffs.items() if m != 0}
    h = np.pi / n
    d3 = R * crude[1] + 3 * R**2 * crude[2] + R**3 * crude[3]
    d2 = float(np.max(np.abs(R * e * g[1] + R**2 * e**2 * g[2]))) + h * d3
    d1 = float(np.max(R * np.abs(g[1]))) + h * d2
    d0 = float(np.max(np.abs(g[0])))
    return float(np.sqrt(d0**2 + 0.5 * h * h * (2 * (d0 + h * d1) * d2 + 2 * d1**2)))


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

    with g interpolated from the Gauss-Legendre nodes: outward in log radius on
    uniform panels, inward exactly, since t = s u makes them int_0^1 g(s u) u^{1-k} du,
    whose integrand has degree at most n_rad + n_ang//2 in u.  T's profiles
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
    # inward side at all radii at once, by the smallest Gauss rule exact for that degree
    u, wu = gauss_legendre_01((n_rad + n_ang // 2) // 2 + 1)
    shell_dn = ((wu * u ** (1 - k_dn)) @ barycentric_matrix(
        t01, np.outer(u, t01).ravel()).reshape(len(u), -1)).reshape(-1, n_rad, n_rad)
    cauchy[dn, 1:, :] = 2.0 * t01[:, None] * shell_dn
    beurling[dn] = 2.0 * np.pi * (1 - k_dn)[:, :, None] * shell_dn
    for i, s in enumerate(t01):
        lam_s = np.log(s)
        # outward side [s, 1] in log radius, uniform panels
        n_up = max(1, int(np.ceil(-lam_s / _PANEL)))
        edges = lam_s * (1.0 - np.arange(n_up + 1) / n_up)
        mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
        lam_up = (mid[:, None] + half[:, None] * gq[None, :]).ravel()
        w_up = (half[:, None] * gw[None, :]).ravel()
        shell_up = (w_up * np.exp(-(k_up - 2) * (lam_up - lam_s))) @ barycentric_matrix(
            t01, np.exp(lam_up))
        # dt = t dlam turns the Cauchy weights (s/t)^{k-1} dt into s (s/t)^{k-2} dlam
        cauchy[up, i + 1, :] = -2.0 * s * shell_up
        beurling[up, i, :] = 2.0 * np.pi * (k_up - 1) * shell_up
    cauchy.setflags(write=False)
    beurling.setflags(write=False)
    return cauchy, beurling


@lru_cache(maxsize=8)
def local_matrix(center: complex, radius: float, c0: complex, K: int,
                 n_ang: int) -> np.ndarray:
    """(K+1) x (n_ang//2 + 1) matrix taking the exterior moments a_j of a
    density on Disk(center, radius) to the Taylor coefficients L_0..L_K of its
    Cauchy transform at c0 (module docstring).

    Row 0 is (-r)^{j+1}; row m is row m-1 times (m+j)/(m d), so no binomial
    is ever formed.  Read-only and cached: it depends on the geometry only.
    """
    d = complex(center) - complex(c0)
    if abs(d) <= radius * (1 + 1e-12):
        raise SingularKernelError("expansion point touches the support disk")
    j = np.arange(n_ang // 2 + 1)
    m = np.arange(1, K + 1)[:, None]
    rows = np.vstack([(-radius / d) ** (j + 1), (m + j) / (m * d)])
    out = np.cumprod(rows, axis=0)
    out.setflags(write=False)
    return out


def _mode_sum(radii: np.ndarray, profiles: np.ndarray, freqs: np.ndarray,
              u: np.ndarray) -> np.ndarray:
    """sum_m p_m(|u|) e^{i freqs[m] arg u}, each p_m given by its values at radii."""
    B = barycentric_matrix(radii, np.abs(u))            # (P, len(radii))
    phase = np.exp(1j * np.outer(np.angle(u), freqs))   # (P, n_modes)
    return ((B @ profiles) * phase).sum(axis=1)


@dataclass(eq=False)
class Density:
    """A bounded measurable coefficient on a disk.

    ``values`` holds samples on the disk's quadrature grid; a density built
    from conjugated pole ``terms`` keeps them too, for exact point values and
    a certified sup.  The transforms and pairings read the samples only,
    through their modes, and so do point values of a density without terms.
    """

    disk: Disk
    grid: PolarGrid
    values: np.ndarray
    terms: tuple | None = None  # ((coeff, pole, k), ...) meaning coeff * conj((z-pole)^-k)
    _expansions: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=np.complex128)
        if self.values.shape != (self.grid.size,):
            raise ValueError("values must be flat samples on the density's grid")

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
        return Density(disk, grid, _eval_terms(terms, grid.nodes), terms=terms)

    @staticmethod
    def from_function(disk: Disk, fn: Callable, n_rad: int | None = None,
                      n_ang: int | None = None) -> "Density":
        """The samples of fn on the disk's grid; fn itself is not kept."""
        grid = polar_grid(disk.center, disk.radius,
                          n_rad or DEFAULT_CONFIG.n_rad, n_ang or DEFAULT_CONFIG.n_ang)
        return Density(disk, grid, fn(grid.nodes))

    @staticmethod
    def from_grid(disk: Disk, values: np.ndarray, grid: PolarGrid) -> "Density":
        return Density(disk, grid, values)

    @staticmethod
    def constant(disk: Disk, value: complex, n_rad: int | None = None,
                 n_ang: int | None = None) -> "Density":
        return Density.from_terms(disk, [(complex(value), 0j, 0)], n_rad, n_ang)

    @property
    def sup(self) -> float:
        """Sup norm: certified (``terms_sup``) for pole-term densities; for
        grid-only densities the max over the quadrature grid, a surrogate
        that can fall short of the true sup."""
        if "sup" not in self._expansions:
            if self.terms is None:
                sup = float(np.max(np.abs(self.values)))
            else:
                sup = terms_sup(self.disk, self.terms, self.grid.n_ang)
            self._expansions["sup"] = sup
        return self._expansions["sup"]

    # -- point evaluation ------------------------------------------------------

    def eval_points(self, z) -> np.ndarray:
        """Values at arbitrary points of the closed disk.

        Uses the pole terms when the density has them, otherwise trigonometric
        interpolation in the angle and barycentric polynomial interpolation in
        the radius of the stored grid samples.
        """
        z = np.atleast_1d(np.asarray(z, dtype=np.complex128))
        if self.terms is not None:
            return _eval_terms(self.terms, z)
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
                op = (cauchy if kind == "cauchy" else beurling)[idx]
                # the real operators act on the real and imaginary parts side by side
                ri = op @ np.stack([modes.real.T, modes.imag.T], axis=2)
                applied = ri[..., 0].T + 1j * ri[..., 1].T
                if kind == "cauchy":
                    entry = (np.concatenate([[0.0], t]), self.disk.radius * applied, freqs - 1)
                else:
                    # the local term e^{-2i phi} rho(w) rides on output mode k - 2
                    entry = (t, modes - applied / np.pi, freqs - 2)
            self._expansions[kind] = entry
        return self._expansions[kind]

    def beurling_on_grid(self) -> np.ndarray:
        """Pi rho at the grid's own nodes: the "beurling" expansion summed on
        each ring by one inverse FFT, its radii being the rings' own."""
        _, profiles, freqs = self._expansion("beurling")
        n = self.grid.n_ang
        spectrum = np.zeros((self.grid.n_rad, n), dtype=np.complex128)
        spectrum[:, freqs.astype(int) % n] = profiles
        return (n * np.fft.ifft(spectrum, axis=1)).ravel()

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

    def taylor_coeffs(self, c0: complex, K: int) -> np.ndarray:
        """Taylor coefficients L_0..L_K of T rho at the exterior point c0, from
        the exterior moments; L_m is the pairing of rho with (zeta - c0)^-(m+1)."""
        a = self._multipole()
        M = local_matrix(self.disk.center, self.disk.radius, complex(c0), int(K),
                         self.grid.n_ang)
        return M[:, : len(a)] @ a


# ---------------------------------------------------------------------------
# pairings and transforms


def pairing(nu: Density, phi) -> complex:
    """Area pairing -(1/pi) * integral of nu / (zeta - pole)^k over the disk,
    for phi = (pole, k) with k >= 1 and the pole off the closed support disk.

    It is the Taylor coefficient L_{k-1} of T nu at the pole, read from nu's
    exterior moments (``Density.taylor_coeffs``).
    """
    pole, k = complex(phi[0]), int(phi[1])
    if k < 1:
        raise ValueError(f"pairing kernel order must be at least 1, got {k}")
    return complex(nu.taylor_coeffs(pole, k - 1)[-1])


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


def _exterior_series(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_j a_j x^(j+1): T at x = R / (w - c) off the disk, from its moments a."""
    return x * kernels.horner_many(a, x)


def cauchy_T(rho: Density, w) -> np.ndarray:
    """Cauchy transform of rho at points w.

    Outside the support it is the multipole series of rho's exterior
    moments; inside, the per-mode radial operators summed at the points.
    """
    w = np.atleast_1d(np.asarray(w, dtype=np.complex128))
    out = np.empty(w.shape, dtype=np.complex128)
    u = w - rho.disk.center
    inside = np.abs(u) < rho.disk.radius
    if (~inside).any():
        out[~inside] = _exterior_series(rho._multipole(), rho.disk.radius / u[~inside])
    if inside.any():
        out[inside] = _mode_sum(*rho._expansion("cauchy"), u[inside])
    return out


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
