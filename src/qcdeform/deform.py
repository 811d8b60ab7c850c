"""Prescribed coefficient and norm shifts through disk-supported dilatations.

Given f in a weighted Hilbert space H, a support disk away from the closed
image f(D), indices j < n, shift targets d_(j+1) .. d_n and a real norm
increment a, the solver finds a dilatation mu on the disk whose normalized
quasiconformal map h = w + T rho satisfies

    coeff_k(h o f) = coeff_k(f) + d_k    for k = j+1 .. n,
    || h o f ||_H  = || f ||_H + a.

The dilatation is sought in the span of conjugated kernel powers
conj((zeta - c0)^-(k+1)) attached to the controlled coefficients plus a norm
direction mu0 that is pairing-orthogonal to them, where c0 = f(0).  Off
Disk(c, R), T rho is the series sum_j a_j x^(j+1) in x = R / (w - c) of rho's
exterior moments, so h o f = f + sum_j a_j y^(j+1) with y = R / (f - c), and
its coefficients 0 .. n_norm are one FFT of its samples at the N = 2^m >=
4 (n_norm + 1) roots of unity (Trefethen & Weideman, SIAM Review 56, 2014),
up to an aliasing the tail bound covers.  Every density of this span is a sum
of conjugated pole terms, antiholomorphic on the disk, so Pi mu = 0 there,
rho = mu, and the coefficients are affine in the unknowns: the shift rows are
one linear solve and the norm row one real quadratic (equality-constrained
least squares, Golub & Van Loan, Matrix Computations, sec. 6.2), whose root
with the smaller sup of mu is taken.  Every moment the solve reads, of the
basis, of mu0 and of the built mu, and so mu0's Gram matrix too, comes from
the closed form (``_term_moments``), kept until the rest is below rounding.
A certified bound on the norm of what the kept coefficients miss guards the
truncation.  The built mu's grid serves the map and one sampled recovery of
it, by the grid's own quadrature sum far from the disk (read from the grid's
power moments, one FFT per ring: ``kernels.cauchy_sum``), which cross-checks
the closed form: the grid resolves angular modes up to n_ang/2 only, so its
truncation shows there and nowhere else.  Coefficients 0 .. j are not held:
mu0 moves coeff_0 by tau to first order (``drift_below``).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property
from math import comb

import numpy as np

from . import kernels
from .beltrami import QcMap, build_map
from .config import DEFAULT_CONFIG, RunConfig
from .errors import (
    ConvergenceError,
    DilatationBoundError,
    IllConditionedBasisError,
    ResolutionError,
)
from .series import HoloSeries, coeffs_from_circle_samples
from .spaces import SpaceSpec, hilbert_norm
from .transforms import Density, Disk, _exterior_series, cauchy_T, terms_sup

__all__ = [
    "DeformationProblem",
    "DeformationResult",
    "build_mu0",
    "linearized_init",
    "solve_deformation",
]

_COND_LIMIT = 1e12
# the one cross-check of a solve samples h o f at this many points of this circle
_CHECK_RADIUS = 0.9
_CHECK_SAMPLES = 256
# samples this many radii or more from the disk center take the grid's own
# quadrature sum (``kernels.cauchy_sum``); closer ones go through ``cauchy_T``
_NEAR_FACTOR = 1.25


@dataclass(frozen=True)
class DeformationProblem:
    space: SpaceSpec
    f: HoloSeries
    disk: Disk
    j: int
    n: int
    d: tuple
    a: float
    config: RunConfig = field(default_factory=lambda: DEFAULT_CONFIG)

    def __post_init__(self):
        object.__setattr__(self, "d", tuple(complex(v) for v in self.d))
        object.__setattr__(self, "a", float(self.a))

    @property
    def controlled(self) -> range:
        return range(self.j + 1, self.n + 1)

    @property
    def c0(self) -> complex:
        return self.f.coefficient(0)

    @cached_property
    def _circle(self) -> tuple[np.ndarray, np.ndarray]:
        """(z, y = R / (f(z) - c)) at the N = 2^m >= 4 (n_norm + 1) roots of unity z."""
        n = 1 << (4 * self.config.n_norm + 3).bit_length()
        z = np.exp(2j * np.pi * np.arange(n) / n)
        return z, self.disk.radius / (self.f.evaluate(z) - self.disk.center)

    @cached_property
    def _basis_moments(self) -> np.ndarray:
        """Rows: the closed-form moments (``_moments``) of conj((zeta - c0)^-(k+1))
        for each controlled k, then of conj((zeta - c0)^-1), zero-padded to one
        length; computed once per problem and shared by ``build_mu0`` and
        ``_affine_map``."""
        rows = [_moments(self, [(1.0, self.c0, a)])
                for a in [k + 1 for k in self.controlled] + [1]]
        J = max(map(len, rows))
        return np.array([np.pad(a, (0, J - len(a))) for a in rows])

    def validate(self) -> None:
        if self.f.is_laurent or self.f.center != 0:
            raise ValueError("f must be a Taylor series centered at 0")
        if not 0 <= self.j < self.n:
            raise ValueError("need 0 <= j < n")
        if self.config.n_norm < self.n:
            raise ValueError(
                f"n_norm {self.config.n_norm} is below the top controlled degree {self.n}")
        if len(self.d) != self.n - self.j:
            raise ValueError(f"d must list {self.n - self.j} shifts for k = j+1 .. n")
        if self.f.radius <= 1.0 and not np.isinf(self.f.radius):
            raise ValueError("f must converge on the closed unit disk")
        # the support disk must stay off the closed image of the unit disk
        rad = np.linspace(0.0, 1.0, 41)
        ang = np.exp(2j * np.pi * np.arange(256) / 256)
        img = self.f.evaluate(np.outer(rad, ang).ravel() * (1.0 - 1e-12))
        gap = float(np.min(np.abs(img - self.disk.center))) - self.disk.radius
        if gap <= 0.05 * self.disk.radius:
            raise ValueError(
                f"support disk too close to the image of the unit disk (gap {gap:.3g})")
        if len(self.f.coeffs) <= self.n + 1 or not np.any(self.f.coeffs[self.n + 1:]):
            warnings.warn(
                "f is a polynomial of degree at most n; uniqueness of the "
                "shifted coefficients degenerates for such f", stacklevel=2)


def _moments(problem: DeformationProblem, terms) -> np.ndarray:
    """Closed-form exterior moments of the term density (``_term_moments``),
    kept until the rest is below rounding at the largest |y| on ``_circle``;
    that |y| is below 1 by ``validate``'s gap."""
    return _term_moments(problem.disk, terms, float(np.max(np.abs(problem._circle[1]))))[0]


def build_mu0(problem: DeformationProblem) -> Density:
    """Norm-control direction: unit pairing with (zeta-c0)^-1, none with the
    kernels of the controlled coefficients.  The pairings come from the same
    closed-form moments that ``_affine_map`` composes with f: with a_j the
    moments of conj((zeta - c0)^-a) and b_j those of order b, the pairing of
    the two kernels is -sum_j (j + 1) a_j conj(b_j) (``_term_moments``)."""
    orders = [k + 1 for k in problem.controlled] + [1]
    A = problem._basis_moments
    gram = -(A * np.arange(1, A.shape[1] + 1)) @ A.conj().T
    cond = np.linalg.cond(gram)
    if cond > _COND_LIMIT:
        raise IllConditionedBasisError(
            f"kernel-power Gram matrix has condition number {cond:.3g}")
    target = np.zeros(len(orders), dtype=np.complex128)
    target[-1] = 1.0
    y = np.linalg.solve(gram.T, target)
    terms = [(y[i], problem.c0, a) for i, a in enumerate(orders)]
    return Density.from_terms(problem.disk, terms, problem.config.n_rad, problem.config.n_ang)


def _terms_from_x(problem: DeformationProblem, mu0: Density, x: np.ndarray) -> list:
    terms = [(complex(x[2 * i], x[2 * i + 1]), problem.c0, k + 1)
             for i, k in enumerate(problem.controlled)]
    return terms + [(float(x[-1]) * c, p, kk) for c, p, kk in mu0.terms]


def _mu_from_x(problem: DeformationProblem, mu0: Density, x: np.ndarray) -> Density:
    return Density.from_terms(problem.disk, _terms_from_x(problem, mu0, x),
                              problem.config.n_rad, problem.config.n_ang)


def _sup_from_x(problem: DeformationProblem, mu0: Density, x: np.ndarray) -> float:
    """``_mu_from_x(problem, mu0, x).sup``, read from the terms without the grid."""
    return terms_sup(problem.disk, _terms_from_x(problem, mu0, x), problem.config.n_ang)


def _circle_coeffs(problem: DeformationProblem, series: list) -> np.ndarray:
    """Coefficients 0 .. n_norm of sum_j a_j x^(j+1) for each (a, x) in series,
    x sampled at the roots of unity of ``_circle``: one FFT along axis 0."""
    samples = np.stack([_exterior_series(a, x) for a, x in series], axis=1)
    return np.fft.fft(samples, axis=0)[: problem.config.n_norm + 1] / len(samples)


def _affine_map(problem: DeformationProblem, mu0: Density) -> tuple[np.ndarray, np.ndarray]:
    """(f, B) with c(x) = f + B x the coefficients 0 .. n_norm of h o f for the
    real unknowns x = (Re xi_1, Im xi_1, .., tau): the circle coefficients of
    T of each basis density composed with f, mu0's last, with the column of
    xi_i repeated times i for Im xi_i.  Exact when rho = mu (module docstring)."""
    y = problem._circle[1]
    basis = [*problem._basis_moments[:-1], _moments(problem, mu0.terms)]
    B = _circle_coeffs(problem, [(a, y) for a in basis])
    cols = np.repeat(np.arange(len(basis)), 2)[:-1]
    return (problem.f.truncated(problem.config.n_norm).coeffs,
            B[:, cols] * np.tile([1, 1j], len(basis))[:-1])


def _re_im(v: np.ndarray) -> np.ndarray:
    return np.concatenate([v.real, v.imag])


def _first_order(problem: DeformationProblem, f: np.ndarray, B: np.ndarray,
                 norm_f: float) -> np.ndarray:
    """x solving the controlled rows of c(x) = f + B x, with the norm
    linearized at f."""
    g = (problem.space.weights(len(f)) * np.conj(f)) @ B / norm_f
    A = np.vstack([_re_im(B[list(problem.controlled)]), g.real])
    cond = np.linalg.cond(A)
    if cond > _COND_LIMIT:
        raise IllConditionedBasisError(
            f"first-order deformation system has condition number {cond:.3g}")
    return np.linalg.solve(A, np.append(_re_im(np.array(problem.d)), problem.a))


def linearized_init(problem: DeformationProblem, mu0: Density) -> np.ndarray:
    """First-order solve for x = (Re xi_1, Im xi_1, .., tau): the controlled
    rows of the affine map and its norm linearized at f, both to degree n_norm."""
    return _first_order(problem, *_affine_map(problem, mu0),
                        hilbert_norm(problem.space, problem.f))


@dataclass(eq=False)
class DeformationResult:
    problem: DeformationProblem
    mu: Density
    qcmap: QcMap
    achieved_d: tuple
    achieved_a: float
    drift_below: float  # largest movement among coefficients 0 .. j
    sup_mu: float
    eps: float
    m_est: float
    n_iter: int
    residual_trace: tuple
    tail_bound: float   # bound on the norm of what h o f's kept coefficients miss
    sampled_check: float  # largest gap to FFT recovery from circle samples
    discriminant: float   # of the monic norm quadratic in tau
    tau_roots: tuple      # its roots, the chosen one first

    def to_dict(self) -> dict:
        return {
            "controlled": list(self.problem.controlled),
            "target_d": [[v.real, v.imag] for v in self.problem.d],
            "achieved_d": [[v.real, v.imag] for v in self.achieved_d],
            "target_a": self.problem.a,
            "achieved_a": self.achieved_a,
            "drift_below": self.drift_below,
            "sup_mu": self.sup_mu,
            "eps": self.eps,
            "m_est": self.m_est,
            "n_iter": self.n_iter,
            "neumann_terms": self.qcmap.n_terms,
            "residual_trace": list(self.residual_trace),
            "tail_bound": self.tail_bound,
            "sampled_check": self.sampled_check,
            "discriminant": self.discriminant,
            "tau_roots": list(self.tau_roots),
        }


def _mass_beyond(a: np.ndarray, fa: np.ndarray, R: float, d: float, N: int) -> float:
    """Mass at degrees >= N of S = sum_j |a_j| Y^(j+1), Y = R / (d - U): at most
    S(r) r^-N / (1 - 1/r) for r > 1 with U(r) < d (Cauchy's estimate), minimized
    over r in logs, as Y(r) grows without bound when U(r) nears d."""
    r = 1.0 + 2.0 ** np.arange(-30.0, 2.0, 0.25)
    Ur = np.polynomial.polynomial.polyval(r, fa)
    r, log_Y = r[Ur < d], np.log(R / (d - Ur[Ur < d]))[:, None]
    with np.errstate(divide="ignore"):
        log_S = np.logaddexp.reduce(np.log(np.abs(a)) + log_Y * np.arange(1, len(a) + 1), axis=1)
    return float(np.exp(np.min(log_S - N * np.log(r) - np.log1p(-1.0 / r), initial=np.inf)))


def _term_moments(disk: Disk, terms, Y: float) -> tuple[np.ndarray, float, float]:
    """(a, rem, rem1): the exterior moments a_0 .. a_J of the term density
    sum_i c_i conj((zeta - p_i)^-k_i) in closed form, and bounds on what the
    dropped ones carry in the majorant of ``_composed``:

        a_j  = sum_i c_i conj(C(j+k_i-1, j) (c - p_i)^-k_i R (R / (p_i - c))^j) / (j + 1),
        rem  >= sum_(j>J) |a_j| Y^(j+1),   rem1 >= sum_(j>J) (j + 1) |a_j| Y^(j+1).

    (conj((zeta - p)^-k) has the Taylor coefficients g_j of (zeta - p)^-k at
    c conjugated, and pairs with (zeta - c)^j to pi R^(2j+2) conj(g_j) / (j + 1).)
    A term with k <= 0 has moments j <= -k only.  For k > 0, with
    t = Y R / |p - c| < 1 (``_composed`` refuses otherwise), the bound
    u_j = |c_i| |g_j| R^(j+1) Y^(j+1) / (j + 1) on its share of |a_j| Y^(j+1) has
    u_(j+1) / u_j = t (j + k) / (j + 2), so past the last computed index the
    shares are geometric.  J is the least index whose rem is below rounding,
    relative to the sum of the u_j; the computed range doubles from 64 until
    one is (or reaches 2^16, and keeps its rem).
    """
    c, R = disk.center, disk.radius
    top = max([64] + [-k for _, _, k in terms])
    while True:
        j = np.arange(top + 2.0)      # 0 .. top + 1
        a = np.zeros(top + 1, dtype=np.complex128)
        U = np.zeros(top + 2)         # sum_i u_j
        geo = np.zeros(2)             # bounds on the shares beyond top + 1
        for coeff, pole, k in terms:
            if k <= 0:   # g below is g_j R^(j+1), here from the binomial (zeta - p)^-k
                jj = np.arange(1 - k)
                g = [comb(-k, i) * R ** (i + 1) * (c - pole) ** (-k - i) for i in jj]
                a[jj] += coeff * np.conj(g) / (jj + 1)
                U[jj] += abs(coeff) * np.abs(g) * Y ** (jj + 1.0) / (jj + 1)
                continue
            ratio = (j[1:] + k - 1) / j[1:] * (R / (pole - c))
            g = R * (c - pole) ** -k * np.cumprod(np.concatenate([[1.0], ratio]))
            a += coeff * np.conj(g[:-1]) / j[1:]
            u = abs(coeff) * abs(R * Y * (c - pole) ** -k) * np.cumprod(
                np.concatenate([[1.0], np.abs(ratio) * Y])) / (j + 1)
            U += u
            t = Y * R / abs(pole - c)
            rho0 = t * max(1.0, (top + 1 + k) / (top + 3))
            rho1 = t * max(1.0, (top + 1 + k) / (top + 2))
            geo += ([u[-1] / (1 - rho0), (top + 2) * u[-1] / (1 - rho1)]
                    if rho1 < 1 else np.inf)
        # rem[J] for J = 0 .. top: the computed shares past J, then the geometric rest
        rem = np.cumsum(U[::-1])[::-1][1:] + geo[0]
        rem1 = np.cumsum((U * (j + 1))[::-1])[::-1][1:] + geo[1]
        ok = np.flatnonzero(rem <= np.finfo(float).eps / 2 * U.sum())
        if ok.size or top >= 1 << 16:
            J = int(ok[0]) if ok.size else top
            return a[: J + 1], float(rem[J]), float(rem1[J])
        top *= 2


def _composed(problem: DeformationProblem, terms) -> tuple[np.ndarray, float]:
    """(c, tail): the coefficients 0 .. K = n_norm of h o f for the term
    density with these ``terms``, whose exterior moments a come from the
    closed form (``_term_moments``), and a certified bound on the norm of
    what c misses.

    If F = sum_{k>=1} |f_k| < d = |c - c0|, sum_j a_j y^(j+1), y = R / (f - c),
    is dominated coefficientwise by S = sum_j |a_j| Y^(j+1), Y = R / (d - U),
    U = sum_{k>=1} |f_k| z^k.  Times sqrt(w_{K+1}), S(1) minus its kept sum
    bounds the norm of the tail; for growing weights (at most like k^2), so
    does S'(1) minus the k-weighted kept sum, times sqrt(w_{K+1}) / (K + 1).
    The kept sums come from the FFT that gives c, whose aliasing only inflates
    them, by at most the mass beyond N (``_mass_beyond``; it also bounds the
    aliasing of c); it is added back, with a rounding allowance and the norm
    of f's own coefficients above K.  The moments past the last kept one add
    their share of S(1) (or S'(1)) to the tail and their whole S(1) to what
    c misses.  ResolutionError when F >= d, or when q Y(1) >= 1 with
    q = max R / |p_i - c| over the poles, as then the moments' majorant
    diverges at z = 1.
    """
    K, R = problem.config.n_norm, problem.disk.radius
    fa = np.abs(problem.f.coeffs)
    fa[0] = 0.0
    F, d = float(fa.sum()), abs(problem.disk.center - problem.c0)
    if F >= d:
        raise ResolutionError(
            f"no n_norm bounds the tail of h o f: sum_(k>=1) |f_k| = {F:.6g} reaches "
            f"|c - f(0)| = {d:.6g}, so the majorant of R / (f - c) diverges on |z| = 1")
    Y1 = R / (d - F)
    q = max((R / abs(p - problem.disk.center) for _, p, k in terms if k > 0), default=0.0)
    if q * Y1 >= 1.0:
        raise ResolutionError(
            f"no n_norm bounds the tail of h o f: the moments of mu decay like q^j with "
            f"q = max R / |p_i - c| = {q:.6g}, and Y(1) = R / (|c - f(0)| - sum_(k>=1) "
            f"|f_k|) = {Y1:.6g}, so q Y(1) >= 1 and their majorant diverges on |z| = 1")
    a, rem, rem1 = _term_moments(problem.disk, terms, Y1)
    z, y = problem._circle
    N, jj = len(z), np.arange(1.0, len(a) + 1)
    coef = _circle_coeffs(problem, [(a, y), (np.abs(a), R / (d - kernels.horner_many(fa, z)))])
    with np.errstate(divide="ignore"):   # |a_j| Y(1)^(j+1), in logs as Y(1)^J may overflow
        shares = np.exp(np.log(np.abs(a)) + np.log(Y1) * jj)
    S1, S1j = float(shares.sum()), float(jj @ shares)
    w = problem.space.weights(4 * K + 8)
    if np.any(np.diff(w[K + 1:]) > 0):   # S'(1), with Y'(1) = Y(1)^2 sum_k k |f_k| / R
        wt, scale = np.arange(K + 1.0), np.sqrt(w[K + 1]) / (K + 1)
        total = (S1j + rem1) * float(np.arange(len(fa)) @ fa) / (d - F)
    else:
        wt, scale, total = np.ones(K + 1), np.sqrt(w[K + 1]), S1 + rem
    beyond = _mass_beyond(a, fa, R, d, N)
    # rounding: relative eps in a sample of Y (Horner on U, then d - U, R / .),
    # times (j+1) in Y^(j+1), then Horner's and the FFT's (Higham, Accuracy and
    # Stability of Numerical Algorithms, sec. 3.1, 5.1, 24.1); by Cauchy-Schwarz
    # the kept sum's error is at most |wt|_2 times the largest sample error
    u = np.finfo(float).eps / 2
    eps = u * ((4 * (len(fa) - 1) * F + d + F) / (d - F) + 4 * len(a) + 7 * np.log2(N) + 5)
    mass = (max(total - float(wt @ coef[:, 1].real), 0.0) + wt[-1] * beyond
            + eps * (np.linalg.norm(wt) * S1j + len(a) * total))
    t_f = np.sqrt(np.sum(problem.space.weights(len(fa))[K + 1:] * fa[K + 1:] ** 2))
    c = problem.f.truncated(K).coeffs + coef[:, 0]
    return c, float(scale * mass + np.sqrt(w[: K + 1].max()) * (beyond + rem) + t_f)


def _sampled_check(problem: DeformationProblem, qc: QcMap, c: np.ndarray) -> float:
    """Largest gap between c and the coefficients recovered by FFT from h o f
    sampled at 256 points of |z| = 0.9, over degrees k up to min(n_norm, 64),
    each scaled by 0.9^k.

    The recovery divides the DFT of the samples by 0.9^k, so a sample
    error e becomes up to e / 0.9^64 = 850 e at k = 64.  The scaled gap is
    the gap between the two DFTs: how far the two computations of h o f
    disagree on the circle.  c comes from mu's closed-form moments; the
    samples come from its grid: 1.25 radii or more from the disk's center,
    the grid's quadrature sum itself, evaluated exactly from the grid
    measure's power moments (one FFT per ring, every index with its alias,
    ``kernels.cauchy_sum``); closer in, ``cauchy_T`` of the grid's angular
    modes.  This is the one place a solve compares the grid with the closed
    form, so the grid's truncation to angular modes up to n_ang/2 shows here.
    """
    n_rec = min(problem.config.n_norm, _CHECK_SAMPLES // 4)
    wv = problem.f.evaluate(_CHECK_RADIUS * np.exp(2j * np.pi * np.arange(_CHECK_SAMPLES)
                                                   / _CHECK_SAMPLES))
    rho, disk = qc.rho, problem.disk
    far = np.abs(wv - disk.center) >= _NEAR_FACTOR * disk.radius
    T = np.empty_like(wv)
    rings = map(rho.grid.values_matrix, (rho.grid.nodes, rho.grid.weights, rho.values))
    T[far] = -kernels.cauchy_sum(*rings, wv[far]) / np.pi
    T[~far] = cauchy_T(rho, wv[~far])
    rec = coeffs_from_circle_samples(wv + T, _CHECK_RADIUS, n_rec, alias_tol=1e-5)
    gap = np.abs(rec.series.coeffs[: n_rec + 1] - c[: n_rec + 1])
    return float(np.max(gap * _CHECK_RADIUS ** np.arange(n_rec + 1)))


def solve_deformation(problem: DeformationProblem) -> DeformationResult:
    """Exact solve (module docstring): with c(x) = f + B x (``_affine_map``),
    the controlled rows give xi = xi_0 + tau xi_1, so c = c* + tau v, and
    ||c* + tau v||_H = ||f||_H + a is a real quadratic in tau.  One map is built.

    Raises ConvergenceError when the first-order dilatation already exceeds
    the workable bound (the shifts are too large for the support disk) or when
    the quadratic's discriminant is negative (no dilatation in the span holds
    the shifts and reaches the norm); DilatationBoundError when the chosen
    root's sup is at least kappa_max; ResolutionError when no n_norm bounds the
    tail (``_composed``) or its bound exceeds norm_tol, when the built map misses the
    targets by more than coeff_tol or norm_tol, or when the cross-check
    disagrees by more than coeff_tol.
    """
    problem.validate()
    cfg = problem.config
    K = cfg.n_norm
    ctrl = list(problem.controlled)
    mu0 = build_mu0(problem)
    f, B = _affine_map(problem, mu0)
    norm_f = hilbert_norm(problem.space, problem.f)
    norm_target = norm_f + problem.a
    targets = f[ctrl] + np.array(problem.d)

    def residual(c: np.ndarray) -> np.ndarray:
        norm_c = hilbert_norm(problem.space, HoloSeries(c))
        return np.append(_re_im(c[ctrl] - targets), norm_c - norm_target)

    x_lin = _first_order(problem, f, B, norm_f)
    sup0 = _sup_from_x(problem, mu0, x_lin)
    bound = 0.9 * cfg.kappa_max
    if sup0 > bound:
        raise ConvergenceError(
            f"first-order dilatation needs sup {sup0:.3g}, above the workable bound "
            f"{bound:.3g}; with this support disk only shifts roughly {bound / sup0:.2g} "
            "times the requested size are reachable")

    # the controlled rows give x = (x0 + tau x1, tau), so c = c_star + tau v
    rows = _re_im(B[ctrl])
    x0, x1 = np.linalg.solve(rows[:, :-1], np.column_stack(
        [_re_im(np.array(problem.d)), -rows[:, -1]])).T
    c_star = f + B[:, :-1] @ x0
    v = B[:, -1] + B[:, :-1] @ x1
    w = problem.space.weights(K + 1)
    vv = float(w @ np.abs(v) ** 2)
    cv = float(np.real(w @ (np.conj(c_star) * v)))
    cc = float(w @ np.abs(c_star) ** 2)
    # tau^2 + b tau + e = 0; its discriminant is the squared gap of the roots
    b, e = 2.0 * cv / vv, (cc - norm_target ** 2) / vv
    disc = b * b - 4.0 * e
    if disc < 0.0:
        floor = np.sqrt(max(cc - cv * cv / vv, 0.0)) - norm_f
        raise ConvergenceError(
            f"the norm equation in tau has discriminant {disc:.3g} < 0: holding the "
            f"shifts, the norm shift cannot go below {floor:.3g}, and a = {problem.a:.3g}")
    t1 = -0.5 * (b + np.copysign(np.sqrt(disc), b))
    roots = (t1, e / t1) if t1 != 0.0 else (0.0, 0.0)
    sups = [_sup_from_x(problem, mu0, np.append(x0 + t * x1, t)) for t in roots]
    (sup, tau), (_, other) = sorted(zip(sups, map(float, roots)), key=lambda s_t: s_t[0])
    if sup >= cfg.kappa_max:
        raise DilatationBoundError(
            f"the norm equation's roots tau = {tau:.3g}, {other:.3g} need dilatation sup "
            f"{sup:.3g} or more, at or above kappa_max {cfg.kappa_max:.3g}")
    mu = _mu_from_x(problem, mu0, np.append(x0 + tau * x1, tau))
    # the root choice certified the sup of these same terms
    mu._expansions["sup"] = sup

    qc = build_map(mu, cfg)
    c, tail = _composed(problem, mu.terms)
    if not tail <= cfg.norm_tol:
        raise ResolutionError(
            f"the coefficients of h o f above degree {K} may carry norm up to "
            f"{tail:.3e} (tail bound), above norm_tol {cfg.norm_tol:.1e}; raise n_norm")
    r = residual(c)
    if np.max(np.abs(r[:-1])) > cfg.coeff_tol or abs(r[-1]) > cfg.norm_tol:
        raise ResolutionError(
            f"the built map misses the shifts by {np.max(np.abs(r[:-1])):.3e} (coeff_tol "
            f"{cfg.coeff_tol:.1e}) and the norm by {abs(r[-1]):.3e} (norm_tol "
            f"{cfg.norm_tol:.1e})")
    check = _sampled_check(problem, qc, c)
    if not check <= cfg.coeff_tol:
        raise ResolutionError(
            f"sampled cross-check on the {cfg.n_rad}x{cfg.n_ang} grid differs from the "
            f"coefficient-space residual by {check:.3e}, above coeff_tol {cfg.coeff_tol:.1e} "
            f"(tail bound {tail:.3e}); the grid resolves angular modes up to n_ang/2 only "
            f"(raise n_ang)")

    drift = float(np.max(np.abs(c[: problem.j + 1] - f[: problem.j + 1])))
    eps = max(max((abs(s) for s in problem.d), default=0.0), abs(problem.a))
    trace = (float(np.linalg.norm(residual(f + B @ x_lin))), float(np.linalg.norm(r)))
    return DeformationResult(
        problem, mu, qc, tuple(c[ctrl] - f[ctrl]),
        hilbert_norm(problem.space, HoloSeries(c)) - norm_f, drift, sup, eps,
        sup / eps if eps > 0 else float("nan"), 0, trace, tail, check,
        float(disc), (tau, other))
