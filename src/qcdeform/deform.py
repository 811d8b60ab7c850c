"""Prescribed coefficient and norm shifts through disk-supported dilatations.

Given f in a weighted Hilbert space H, a support disk away from the closed
image f(D), indices j < n, shift targets d_(j+1) .. d_n and a real norm
increment a, the solver finds a dilatation mu on the disk whose normalized
quasiconformal map h = w + T rho satisfies

    coeff_k(h o f) = coeff_k(f) + d_k    for k = j+1 .. n,
    || h o f ||_H  = || f ||_H + a.

The dilatation is sought in the span of conjugated kernel powers
conj((zeta - c0)^-(k+1)) attached to the controlled coefficients plus a norm
direction mu0 that is pairing-orthogonal to them, where c0 = f(0).  Every
density of this span is a sum of conjugated pole terms, antiholomorphic on
the disk, so Pi mu = 0 there and rho = mu.  Off Disk(c, R), T mu is then
elementary (``transforms._exterior_terms``), h o f = f + (T mu) o f, and its
coefficients 0 .. n_norm are one FFT of its samples at the N = 2^m >=
4 (n_norm + 1) roots of unity (Trefethen & Weideman, SIAM Review 56, 2014).
They are affine in the unknowns: the shift rows are one linear solve and the
norm row one real quadratic (equality-constrained least squares, Golub &
Van Loan, Matrix Computations, sec. 6.2), whose root with the smaller sup of
mu is taken.  The same closed form on a circle |z| = r > 1 bounds, by
Cauchy's estimate, the norm of what the kept coefficients miss
(``_composed``).  mu0's Gram matrix comes from the closed-form exterior
moments (``_term_moments``).  The built map is mu's closed form; mu's
grid serves only one sampled recovery of it, by the grid's own quadrature
sum far from the disk (``kernels.cauchy_sum``), which cross-checks the
closed form and shows the grid's truncation to angular modes up to n_ang/2.
Coefficients 0 .. j are not held: mu0 moves coeff_0 by tau to first order
(``drift_below``).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property

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
from .transforms import Density, Disk, _exterior_terms, cauchy_T, terms_sup

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
# the tail bound's circles |z| = 1 + 2^((i - 12) / 2), i = 0 .. 15
_LADDER = 1.0 + 2.0 ** ((np.arange(16) - 12) / 2)


def _image_distance(f: HoloSeries, c: complex, r: np.ndarray,
                    n: int = 256) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(v, low, wind, slack) on each circle |z| = r_i, one row each: v = f - c
    at n uniform points; slack = (pi r_i / n) sum_k k |f_k| r_i^(k-1), the most
    |f - c| can dip between samples; low = min |v| - slack <= min |f - c| on
    the circle; wind, the winding number of f - c about 0, exact where low > 0
    (each step between samples then turns by the principal argument of the
    ratio of its ends).  Where wind is 0, f - c has no zero in |z| < r_i, so
    min |f - c| over the closed disk is on the circle (minimum modulus)."""
    z = r[:, None] * np.exp(2j * np.pi * np.arange(n) / n)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        v = kernels.horner_many(f.coeffs, z) - c
        slack = np.pi * r / n * np.polynomial.polynomial.polyval(r, np.abs(f.derivative().coeffs))
        wind = np.rint(np.sum(np.angle(np.roll(v, -1, axis=1) / v), axis=1) / (2 * np.pi))
    return v, np.min(np.abs(v), axis=1) - slack, wind, slack


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
    def _circle(self) -> np.ndarray:
        """y = R / (f(z) - c) at the N = 2^m >= 4 (n_norm + 1) roots of unity z."""
        n = 1 << (4 * self.config.n_norm + 3).bit_length()
        z = np.exp(2j * np.pi * np.arange(n) / n)
        return self.disk.radius / (self.f.evaluate(z) - self.disk.center)

    def validate(self) -> None:
        if self.f.is_laurent:
            raise ValueError("f must be a Taylor series")
        if not 0 <= self.j < self.n:
            raise ValueError("need 0 <= j < n")
        if self.config.n_norm < self.n:
            raise ValueError(
                f"n_norm {self.config.n_norm} is below the top controlled degree {self.n}")
        if len(self.d) != self.n - self.j:
            raise ValueError(f"d must list {self.n - self.j} shifts for k = j+1 .. n")
        if self.f.radius <= 1.0 and not np.isinf(self.f.radius):
            raise ValueError("f must converge on the closed unit disk")
        # the support disk must stay 0.05 R off f(closed D): a certified gap on
        # |z| = 1 (``_image_distance``) accepts, a sampled one or a winding
        # about c refuses, and 256 .. 2^18 samples decide the rest
        R = self.disk.radius
        for n in 256 << np.arange(11):
            v, low, wind, _ = _image_distance(self.f, self.disk.center, np.ones(1), int(n))
            if low[0] > 1.05 * R and wind[0] == 0:
                break
            i = int(np.argmin(np.abs(v[0])))
            # a certified winding about c puts c in f(D), at gap -R
            gap = -R if low[0] > 0.0 and wind[0] else abs(v[0, i]) - R
            if gap <= 0.05 * R or n == 1 << 18:
                raise ValueError(
                    f"support disk too close to the image of the unit disk (gap {gap:.3g} "
                    f"at z = exp({2 * np.pi * i / n:.6g}i) of {n} samples, certified above "
                    f"{low[0] - R:.3g}, winding number {wind[0]:g}; it must exceed 0.05 R)")
        if len(self.f.coeffs) <= self.n + 1 or not np.any(self.f.coeffs[self.n + 1:]):
            warnings.warn(
                "f is a polynomial of degree at most n; uniqueness of the "
                "shifted coefficients degenerates for such f", stacklevel=2)


def _moments(problem: DeformationProblem, terms) -> np.ndarray:
    """Closed-form exterior moments of the term density (``_term_moments``),
    truncated at the largest |y| on ``_circle``, below 1 by ``validate``."""
    return _term_moments(problem.disk, terms, float(np.max(np.abs(problem._circle))))


def build_mu0(problem: DeformationProblem) -> Density:
    """Norm-control direction: unit pairing with (zeta-c0)^-1, none with the
    kernels of the controlled coefficients.  The pairings come from the
    closed-form moments (``_moments``): with a_j the moments of
    conj((zeta - c0)^-a) and b_j those of order b, the pairing of the two
    kernels is -sum_j (j + 1) a_j conj(b_j) (``_term_moments``)."""
    orders = [k + 1 for k in problem.controlled] + [1]
    rows = [_moments(problem, [(1.0, problem.c0, a)]) for a in orders]
    A = np.array([np.pad(a, (0, max(map(len, rows)) - len(a))) for a in rows])
    gram = -(A * np.arange(1, A.shape[1] + 1)) @ A.conj().T
    cond = np.linalg.cond(gram)
    if cond > _COND_LIMIT:
        raise IllConditionedBasisError(
            f"kernel-power Gram matrix has condition number {cond:.3g}")
    y = np.linalg.solve(gram.T, np.eye(len(orders))[-1])
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


def _affine_map(problem: DeformationProblem, mu0: Density) -> tuple[np.ndarray, np.ndarray]:
    """(f, B) with c(x) = f + B x the coefficients 0 .. n_norm of h o f for the
    real unknowns x = (Re xi_1, Im xi_1, .., tau): one FFT of T of each basis
    density, mu0's last, in closed form at the roots of unity of ``_circle``,
    with the column of xi_i repeated times i for Im xi_i.  Exact when rho = mu
    (module docstring)."""
    y = problem._circle
    basis = [[(1.0, problem.c0, k + 1)] for k in problem.controlled] + [mu0.terms]
    samples = np.stack([_exterior_terms(problem.disk, terms, y) for terms in basis], axis=1)
    B = np.fft.fft(samples, axis=0)[: problem.config.n_norm + 1] / len(y)
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
    tail_radius: float  # the radius r > 1 of the circle that bound was read on
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
            "tail_radius": self.tail_radius,
            "sampled_check": self.sampled_check,
            "discriminant": self.discriminant,
            "tau_roots": list(self.tau_roots),
        }


def _term_moments(disk: Disk, terms, Y: float) -> np.ndarray:
    """The exterior moments a_0 .. a_(J-1) of the term density
    sum_i c_i conj((zeta - p_i)^-k_i) in closed form,

        a_j = sum_i c_i conj(C(j+k_i-1, j) (c - p_i)^-k_i R (R / (p_i - c))^j) / (j + 1).

    (conj((zeta - p)^-k) has the Taylor coefficients g_j of (zeta - p)^-k at
    c conjugated, and pairs with (zeta - c)^j to pi R^(2j+2) conj(g_j) / (j + 1);
    the ratio of successive g_j holds for k <= 0 too, reaching 0 past j = -k.)
    For k > 0 a term's share of |a_j| Y^(j+1) is its first times
    C(j+k-1, j) t^j <= (j+1)^(k-1) t^j, t = Y R / |p - c| < 1; J is the least
    index past which that stays below eps / 4 for every term (by fixed-point
    iteration on its logarithm from 0), at most 2^16.
    """
    c, R = disk.center, disk.radius
    J = max([1] + [1 - k for _, _, k in terms])
    for _, pole, k in terms:
        if k > 0:
            j, rate = 0.0, -np.log(Y * R / abs(pole - c))
            for _ in range(30):
                j = ((k - 1) * np.log1p(j) - np.log(np.finfo(float).eps / 4)) / rate
            J = max(J, min(int(j) + 2, 1 << 16))
    jj = np.arange(1.0, J)
    a = np.zeros(J, dtype=np.complex128)
    for coeff, pole, k in terms:
        g = R * (c - pole) ** -k * np.cumprod(
            np.concatenate([[1.0], (jj + k - 1) / jj * (R / (pole - c))]))
        a += coeff * np.conj(g) / np.arange(1, J + 1)
    return a


def _pull(disk: Disk, terms, rho) -> np.ndarray:
    """sum_i |c_i| max |(u - p_i)^-k_i| over |u - c| <= rho, for each rho."""
    cabs, dist, kk = np.array([(abs(a), abs(p - disk.center), k) for a, p, k in terms]).T
    return (dist - np.asarray(rho)[..., None]) ** -kk @ cabs


def _ladder_maxima(problem: DeformationProblem, terms) -> tuple[np.ndarray, np.ndarray]:
    """(r, M): the circles |z| = r_i of ``_LADDER``, from the smallest on, on
    which (T mu) o f is holomorphic inside, and on each a bound M_i on its
    modulus there.

    (T mu) o f is the closed form at x = R / (f - c), holomorphic on |z| <= r
    when f - c winds 0 times about 0 on |z| = r, so |R^2 / (f - c)| is at most
    rho_r = R^2 / min |f - c| there (maximum modulus), and rho_r < |p_i - c|
    for each pole.  Once a circle fails, all larger do, as rho_r grows with r.
    M is the max of |T| over the 256 samples of ``_image_distance`` plus its
    slack times max |dT/df| <= sum_i |c_i| / (|p_i - c| - rho_r)^k_i R^2 /
    min |f - c|^2, which covers the peaks between samples.  ResolutionError
    when the smallest circle fails, naming its gap.
    """
    disk, R = problem.disk, problem.disk.radius
    near = min(abs(p - disk.center) for _, p, _ in terms)
    v, low, wind, slack = _image_distance(problem.f, disk.center, _LADDER)
    m = int(np.cumprod((low > 0.0) & (wind == 0) & (R * R < near * low)).sum())
    if m == 0:
        raise ResolutionError(
            f"no circle |z| = r > 1 bounds the tail of h o f: on r = {_LADDER[0]:.6g}, the "
            f"smallest, f - c winds {wind[0]:g} times about 0 and min |f - c| >= {low[0]:.6g}; "
            f"the closed form needs 0 and more than R^2 / min |p_i - c| = {R * R / near:.6g} "
            f"(gap {low[0] - R * R / near:.3g})")
    low, slack = low[:m], slack[:m]
    M = (np.max(np.abs(_exterior_terms(disk, terms, R / v[:m])), axis=1)
         + slack * _pull(disk, terms, R * R / low) * R * R / low ** 2)
    return _LADDER[:m], M


def _composed(problem: DeformationProblem, terms) -> tuple[np.ndarray, tuple[float, float]]:
    """(c, (tail, r)): the coefficients 0 .. K = n_norm of h o f for the term
    density with these ``terms``, one FFT of T in closed form
    (``transforms._exterior_terms``) at the roots of unity of ``_circle``; a
    certified bound on the norm of what c misses; the radius it used.

    On each circle of ``_ladder_maxima``, Cauchy's estimate bounds the
    coefficients of (T mu) o f by M r^-k.  So those above K carry norm at most
    M (sum_(k>K) w_k r^-2k)^(1/2), and the N-point FFT aliases the kept ones
    by at most M r^-N / (1 - r^-N) (sum_(k<=K) w_k r^-2k)^(1/2) (Trefethen &
    Weideman, SIAM Review 56, 2014).  tail is the least sum over the circles,
    plus the norm of f's coefficients above K and a rounding allowance.
    """
    disk, K = problem.disk, problem.config.n_norm
    R, y = disk.radius, problem._circle
    N = len(y)
    c = problem.f.truncated(K).coeffs + np.fft.fft(_exterior_terms(disk, terms, y))[: K + 1] / N
    r, M = _ladder_maxima(problem, terms)
    m = len(r)
    # sum_k w_k r_i^-2k over k = 0 .. L_i, past which r_i^-2k is below e^-80
    log_r = np.log(r)
    L = K + 1 + np.ceil(40.0 / log_r).astype(int)
    weights = problem.space.weights(int(L[0]))
    head, rest = np.empty(m), np.empty(m)
    for i in range(m):
        wP = weights[: L[i]] * np.exp(-2.0 * log_r[i] * np.arange(L[i]))
        head[i], rest[i] = wP[: K + 1].sum(), wP[K + 1:].sum()
    bounds = M * (np.sqrt(rest) + np.sqrt(head) * r ** -float(N) / (1.0 - r ** -float(N)))
    best = int(np.argmin(bounds))
    # rounding: a term's share of the sample at y is at most |c_i| rho / (|p_i - c| - rho)^k_i
    # with rho = R |y|, computed to about 5 |k_i| + 10 ulps (``_exterior_terms``), and
    # the FFT adds 2 log2 N (Higham, Accuracy and Stability of Numerical Algorithms,
    # sec. 3.1, 24.1); by Parseval the kept coefficients' errors have norm at most
    # sqrt(max w_k) times the root mean square of the sample errors
    rho = R * np.abs(y)
    k_max = max(k for _, _, k in terms)
    rounding = np.finfo(float).eps / 2 * (5 * k_max + 10 + 2 * np.log2(N)) * np.sqrt(
        np.mean((rho * _pull(disk, terms, rho)) ** 2) * np.max(problem.space.weights(K + 1)))
    fa = np.abs(problem.f.coeffs[K + 1:])   # f's own coefficients above K
    t_f = np.sqrt(problem.space.weights(K + 1 + len(fa))[K + 1:] @ fa ** 2)
    return c, (float(bounds[best] + rounding + t_f), float(r[best]))


def _sampled_check(problem: DeformationProblem, qc: QcMap, c: np.ndarray) -> float:
    """Largest gap between c and the coefficients recovered by FFT from h o f
    sampled at 256 points of |z| = 0.9, over degrees k up to min(n_norm, 64),
    each scaled by 0.9^k.

    The recovery divides the DFT of the samples by 0.9^k, so a sample
    error e becomes up to e / 0.9^64 = 850 e at k = 64.  The scaled gap is
    the gap between the two DFTs: how far the two computations of h o f
    disagree on the circle.  c comes from mu's closed form; the samples
    come from its grid: 1.25 radii or more from the disk's center,
    the grid's quadrature sum itself, evaluated exactly from the grid
    measure's power moments (one FFT per ring, every index with its alias,
    ``kernels.cauchy_sum``); closer in, ``cauchy_T`` of the grid's angular
    modes.  This is the one place a solve compares the grid with the closed
    form, so the grid's truncation to angular modes up to n_ang/2 shows here.
    """
    n_rec = min(problem.config.n_norm, _CHECK_SAMPLES // 4)
    wv = problem.f.evaluate(_CHECK_RADIUS * np.exp(2j * np.pi * np.arange(_CHECK_SAMPLES)
                                                   / _CHECK_SAMPLES))
    # a grid-only view of rho, so that cauchy_T sums the grid, not rho's terms
    rho, disk = Density(qc.rho.disk, qc.rho.grid, qc.rho.values), problem.disk
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
    root's sup is at least kappa_max; ResolutionError when no circle |z| = r > 1
    keeps (T mu) o f holomorphic (``_composed``) or the tail bound exceeds
    norm_tol, when the built map misses the targets by more than coeff_tol or
    norm_tol, or when the cross-check disagrees by more than coeff_tol.
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
    c, (tail, tail_radius) = _composed(problem, mu.terms)
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
        sup / eps if eps > 0 else float("nan"), 0, trace, tail, tail_radius, check,
        float(disc), (tau, other))
