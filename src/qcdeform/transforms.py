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
from the orientation of the excision annulus).  With dt = t dt/t, T's
radial integrals are s times Pi's shell integrals, so on the unit disk both
transforms read the one family

    S_k(s) = int_s^1 g(t) (s/t)^{k-2} dt/t  (k >= 1),   int_0^s g(t) (t/s)^{2-k} dt/t  (k <= 0),

T's profile being R (-2 s S_k for k >= 1, +2 s S_k for k <= 0) and Pi's
g(s) - 2 |k-1| S_k.  The shell integrals are one-sided with smooth kernels,
so they discretize into dense matrices on the ring profiles with no
near-diagonal singularity; a pointwise all-pairs rule is unusable because
its error at the outermost radial nodes grows under the Neumann iteration.
``_mode_operators`` builds that one operator array once per grid shape
(Daripa, SIAM J. Sci. Stat. Comput. 13, 1992), the inward integrals exactly
by one Gauss-Legendre rule; a density applies it to its ring profiles, as
real products on the stacked real and imaginary parts of its modes, scales
the result into T's or Pi's output profiles, and those are summed at the
targets, radially by barycentric interpolation and in angle at the signed
output frequencies, or at the grid's own nodes by one inverse FFT per ring.
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

A density built from conjugated pole terms (``Density.from_terms``) takes
none of these paths for T and Pi: they come from its terms in closed form
at every point (``_exterior_terms``), and its grid samples are evaluated only
when something reads them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


def _log1p(q: np.ndarray) -> np.ndarray:
    """log(1 + q), principal branch, to a few ulps of its modulus as q -> 0;
    numpy's complex log1p is accurate to about eps absolutely only."""
    return (0.5 * np.log1p(q.real * (2.0 + q.real) + q.imag ** 2)
            + 1j * np.arctan2(q.imag, 1.0 + q.real))


def _exterior_terms(disk: Disk, terms, x: np.ndarray) -> np.ndarray:
    """T of the term density sum_i c_i conj((zeta - p_i)^-k_i) in closed form
    (Astala, Iwaniec & Martin, Elliptic PDE and Quasiconformal Mappings in the
    Plane, 2009, ch. 4-5): conj(G(z) - G(c)) at z = c + R conj(x), G' = g of
    ``_by_pole``.  x = R / (w - c) puts z at the reflection of a point w off
    the disk; x = conj(w - c) / R puts z at a point w of the disk itself, where
    conj(G(w) - G(c)) is T too (its dbar is mu, and it meets the exterior form
    on the circle).  Per pole p, with s = c - p and q = (z - c) / s,
    (z - p)^-1 adds ``_log1p``(q) and (z - p)^(n-1), n <= -1, adds
    s^n q e_n / n, e_n = ((1 + q)^n - 1) / q from e_0 = 0 by
    e_(n-1) = (e_n - 1) / (1 + q), so no nearby values are subtracted; that
    holds while |q| < 1, which a pole off the closed disk keeps.  A
    polynomial term (z - p)^m, m = -k >= 0, adds
    sum_(j=0..m) C(m, j) s^(m-j) (z - c)^(j+1) / (j + 1), which holds for any
    p and never divides by s (a constant's pole 0 may be the center).
    """
    out = np.zeros(np.shape(x), dtype=np.complex128)
    u = disk.radius * np.conj(x)
    for pole, coeffs in _by_pole(terms).items():
        s = disk.center - pole
        b: dict = {}   # the polynomial terms' antiderivative, in powers of u = z - c
        for m, a in coeffs.items():
            for j in range(m + 1):   # none for m < 0
                b[j + 1] = b.get(j + 1, 0j) + a * math.comb(m, j) * s ** (m - j) / (j + 1)
        if b:
            out += _laurent(b, u)
        if min(coeffs) < 0:
            q = u / s
            acc, e = np.zeros_like(q), np.zeros_like(q)
            for n in range(-1, min(coeffs), -1):
                e = (e - 1.0) / (1.0 + q)
                if n - 1 in coeffs:
                    acc += (coeffs[n - 1] * s ** n / n) * e
            out += q * acc
            if -1 in coeffs:
                out += coeffs[-1] * _log1p(q)
    return np.conj(out)


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
def _mode_operators(n_rad: int, n_ang: int) -> np.ndarray:
    """The one-sided shell integrals of T and Pi on the unit disk, one radial
    operator per FFT angular mode.

    Returns a read-only (n_ang, n_rad, n_rad) array whose entry m maps the ring
    profile g(t_j) of the signed mode k of FFT index m to

        int_s^1 g(t) (s/t)^{k-2} dt/t   (k >= 1),   int_0^s g(t) (t/s)^{2-k} dt/t   (k <= 0)

    at s = t_1, ..., t_n; ``Density._expansion`` scales it into T's and Pi's
    profiles.  g is interpolated from the Gauss-Legendre nodes: outward on 40
    uniform panels in log radius from s to 1, 20 Gauss nodes each (a
    degree-47 profile's rows then meet a 400-panel rule to 1e-13); inward
    exactly, since t = s u makes the integral int_0^1 g(s u) u^{1-k} du, whose
    integrand has degree at most n_rad + n_ang//2 in u.
    """
    t01, _ = gauss_legendre_01(n_rad)
    gq, gw = np.polynomial.legendre.leggauss(20)
    ks = _signed_freqs(n_ang)
    up, dn = ks >= 1, ks <= 0
    shell = np.empty((n_ang, n_rad, n_rad))
    # inward side at all radii at once, by the smallest Gauss rule exact for that degree
    u, wu = gauss_legendre_01((n_rad + n_ang // 2) // 2 + 1)
    shell[dn] = ((wu * u ** (1 - ks[dn][:, None])) @ barycentric_matrix(
        t01, np.outer(u, t01).ravel()).reshape(len(u), -1)).reshape(-1, n_rad, n_rad)
    # outward side [s, 1] at lam = log(s) (1 - v), v on 40 uniform panels of
    # [0, 1] with 20 Gauss nodes each (weights wv); dt/t = dlam
    v = ((np.arange(40)[:, None] + 0.5 * (1.0 + gq)) / 40).ravel()
    wv, k_up = np.tile(gw, 40) / 80, ks[up][:, None]
    for i, lam_s in enumerate(np.log(t01)):
        shell[up, i, :] = (-lam_s * wv * np.exp((k_up - 2) * lam_s * v)) @ barycentric_matrix(
            t01, np.exp(lam_s * (1.0 - v)))
    shell.setflags(write=False)
    return shell


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


class Density:
    """A bounded measurable coefficient on a disk.

    ``values`` holds samples on the disk's quadrature grid.  A density built
    from conjugated pole ``terms`` keeps the terms and evaluates its samples
    from them only when ``values`` is first read; its point values, sup, T
    and Pi come from the terms in closed form (``_exterior_terms``).  Its
    pairings, Taylor coefficients and ``beurling_on_grid`` read the samples,
    through their modes, as every transform of a density without terms does.
    """

    def __init__(self, disk: Disk, grid: PolarGrid, values: np.ndarray | None = None,
                 terms: tuple | None = None):
        # terms: ((coeff, pole, k), ...) meaning coeff * conj((z-pole)^-k)
        if values is None and terms is None:
            raise ValueError("a density needs grid samples or pole terms")
        if values is not None:
            values = np.ascontiguousarray(values, dtype=np.complex128)
            if values.shape != (grid.size,):
                raise ValueError("values must be flat samples on the density's grid")
        self.disk, self.grid, self.terms = disk, grid, terms
        self._values = values
        self._expansions: dict = {}

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            self._values = _eval_terms(self.terms, self.grid.nodes)
        return self._values

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
        return Density(disk, grid, terms=terms)

    @staticmethod
    def from_function(disk: Disk, fn: Callable, n_rad: int | None = None,
                      n_ang: int | None = None) -> "Density":
        """The samples of fn on the disk's grid; fn itself is not kept."""
        grid = polar_grid(disk.center, disk.radius,
                          n_rad or DEFAULT_CONFIG.n_rad, n_ang or DEFAULT_CONFIG.n_ang)
        return Density(disk, grid, fn(grid.nodes))

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
                # each mode's factor goes on its profile before the shells:
                # T's -2R S_k (k >= 1) and +2R S_k (k <= 0), times s below; Pi's -2|k-1| S_k
                R = self.disk.radius
                if kind == "cauchy":
                    factor = np.where(freqs >= 1, -2.0 * R, 2.0 * R)
                else:
                    factor = -2.0 * np.abs(freqs - 1)
                g = np.ascontiguousarray((modes * factor).T)   # (n_modes, n_rad)
                shell = _mode_operators(self.grid.n_rad, self.grid.n_ang)[
                    freqs.astype(int) % self.grid.n_ang]
                # the real operators act on the real and imaginary parts side by
                # side: a float view of the complex profiles, last axis (re, im)
                ri = shell @ g.view(np.float64).reshape(*g.shape, 2)
                applied = ri.view(np.complex128)[..., 0].T
                if kind == "cauchy":
                    # dt = t dt/t makes T's radial integrals s times the shells.  T's
                    # profiles of modes k <= 1 are polynomials of degree n in s, so
                    # the extra radius 0, where only mode 1 survives as
                    # -2R int_0^1 g_1(t) dt, makes their interpolation exact
                    t01, w01 = gauss_legendre_01(self.grid.n_rad)
                    at_0 = np.where(freqs == 1, g @ w01, 0.0)
                    entry = (np.concatenate([[0.0], t]), np.vstack([at_0, t01[:, None] * applied]),
                             freqs - 1)
                else:
                    # the local term e^{-2i phi} rho(w) rides on output mode k - 2
                    entry = (t, modes + applied, freqs - 2)
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


def _split(rho: Density, w, kind: str, exterior: Callable) -> np.ndarray:
    """T or Pi of a density without terms at points w: exterior(a, x) of
    rho's moments a at x = R / (w - c) off the disk, the ``kind`` expansion
    summed inside."""
    w = np.atleast_1d(np.asarray(w, dtype=np.complex128))
    out = np.empty(w.shape, dtype=np.complex128)
    u = w - rho.disk.center
    inside = np.abs(u) < rho.disk.radius
    if (~inside).any():
        out[~inside] = exterior(rho._multipole(), rho.disk.radius / u[~inside])
    if inside.any():
        out[inside] = _mode_sum(*rho._expansion(kind), u[inside])
    return out


def _term_points(disk: Disk, w) -> tuple[np.ndarray, np.ndarray]:
    """(x, inside) for ``_exterior_terms`` at points w: x = conj(w - c) / R in
    the disk, so c + R conj(x) is w, and x = R / (w - c) off it, its reflection."""
    u = np.atleast_1d(np.asarray(w, dtype=np.complex128)) - disk.center
    inside = np.abs(u) < disk.radius
    x = np.empty(u.shape, dtype=np.complex128)
    x[inside] = np.conj(u[inside]) / disk.radius
    x[~inside] = disk.radius / u[~inside]
    return x, inside


def cauchy_T(rho: Density, w) -> np.ndarray:
    """Cauchy transform of rho at points w.

    For a density with pole terms it is their closed form
    (``_exterior_terms``) at every point.  Otherwise, outside the support it
    is the multipole series of rho's exterior moments; inside, the shell
    integrals of rho's modes summed at the points.
    """
    if rho.terms is not None:
        return _exterior_terms(rho.disk, rho.terms, _term_points(rho.disk, w)[0])
    return _split(rho, w, "cauchy", lambda a, x: x * kernels.horner_many(a, x))


def beurling_Pi(rho: Density, w) -> np.ndarray:
    """Beurling transform of rho at points w.

    For a density with pole terms it is 0 in the disk (T is antiholomorphic
    there) and, off it, the w-derivative of the closed form: -x^2 times rho
    at the reflected point c + R conj(x), x = R / (w - c).  Otherwise, outside
    the support it is the w-derivative of T's multipole series; inside, the
    principal value comes from the same shell integrals.
    """
    R = rho.disk.radius
    if rho.terms is not None:
        x, inside = _term_points(rho.disk, w)
        out = -x * x * _eval_terms(rho.terms, rho.disk.center + R * np.conj(x))
        out[inside] = 0.0
        return out
    return _split(rho, w, "beurling", lambda a, x: -(x * x / R) * kernels.horner_many(
        np.arange(1, len(a) + 1) * a, x))
