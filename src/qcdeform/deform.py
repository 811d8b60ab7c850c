"""Prescribed coefficient and norm shifts through disk-supported dilatations.

Given f in a weighted Hilbert space H, a support disk away from the closed
image f(D), indices j < n, shift targets d_(j+1) .. d_n and a real norm
increment a, the solver finds a dilatation mu on the disk whose normalized
quasiconformal map h = w + T rho satisfies

    coeff_k(h o f) = coeff_k(f) + d_k    for k = j+1 .. n,
    || h o f ||_H  = || f ||_H + a.

The dilatation is sought in the span of conjugated kernel powers
conj((zeta - c0)^-(k+1)) attached to the controlled coefficients plus a norm
direction mu0 that is pairing-orthogonal to them, where c0 = f(0).  The
coefficients of the composed map are read in coefficient space:

    coeff_k(h o f) = f_k + sum_m P[k, m] L_m,    P[k, m] = coeff_k((f - c0)^m),

for k = 0 .. n_norm, with L_m the Taylor coefficients of T rho around c0.
They come from rho's exterior multipole moments (``Density.taylor_coeffs``)
and are exact for the grid interpolant of rho.  On this span Pi mu vanishes
in the disk (up to grid aliasing), so rho = mu and the coefficients are
affine in the unknowns: the shift rows are one linear solve and the norm row
one real quadratic (equality-constrained least squares, Golub & Van Loan,
Matrix Computations, sec. 6.2), whose root with the smaller sup of mu is
taken.  A certified bound on the norm above n_norm guards the truncation,
and one sampled recovery of the map cross-checks it.  Coefficients 0 .. j
are not held: mu0 moves coeff_0 by tau to first order (``drift_below``).

L_m equals the area pairing of rho with (zeta - c0)^-(m+1); everything here
rests on that identity.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

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
from .transforms import Density, Disk, cauchy_T, local_matrix, terms_sup

__all__ = [
    "DeformationProblem",
    "DeformationResult",
    "build_mu0",
    "linearized_init",
    "solve_deformation",
]

_COND_LIMIT = 1e12


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
    def _basis(self) -> dict:
        """{order: the density conj((zeta - c0)^-order)} for order 1 and the
        controlled orders k + 1, built once per problem and shared by
        ``build_mu0`` and ``_affine_map``."""
        cfg = self.config
        return {a: Density.from_terms(self.disk, [(1.0, self.c0, a)], cfg.n_rad, cfg.n_ang)
                for a in [k + 1 for k in self.controlled] + [1]}

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


def build_mu0(problem: DeformationProblem) -> Density:
    """Norm-control direction: unit pairing with (zeta-c0)^-1, none with the
    kernels of the controlled coefficients.  The pairings are the Taylor
    coefficients at c0 that ``_affine_map`` reads, so the orthogonality holds
    in the solver's own discretization."""
    orders = list(problem._basis)
    m = len(orders)
    gram = np.stack([problem._basis[a].taylor_coeffs(problem.c0, problem.n)
                     for a in orders])[:, np.array(orders) - 1]
    cond = np.linalg.cond(gram)
    if cond > _COND_LIMIT:
        raise IllConditionedBasisError(
            f"kernel-power Gram matrix has condition number {cond:.3g}")
    target = np.zeros(m, dtype=np.complex128)
    target[-1] = 1.0
    y = np.linalg.solve(gram.T, target)
    terms = [(y[i], problem.c0, orders[i]) for i in range(m)]
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


def _composition_powers(problem: DeformationProblem, K: int) -> tuple[np.ndarray, np.ndarray]:
    """P[k, m] = coeff_k((f - c0)^m) and Q[k, m] the same for the majorant
    sum_{k>=1} |f_k| z^k, for k, m = 0 .. K.

    Both matrices are lower-triangular, so their columns up to K hold every
    coefficient up to K of every power.
    """
    fc = np.zeros(K + 1, dtype=np.complex128)
    deg = min(len(problem.f.coeffs), K + 1)
    fc[1:deg] = problem.f.coeffs[1:deg]
    fa = np.abs(fc)
    P = np.zeros((K + 1, K + 1), dtype=np.complex128)
    Q = np.zeros((K + 1, K + 1))
    P[0, 0] = Q[0, 0] = 1.0
    for m in range(1, K + 1):
        P[:, m] = np.convolve(P[:, m - 1], fc[:deg])[: K + 1]
        Q[:, m] = np.convolve(Q[:, m - 1], fa[:deg])[: K + 1]
    return P, Q


def _affine_map(problem: DeformationProblem, mu0: Density,
                P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(f, B) with c(x) = f + B x the coefficients 0 .. K of h o f for the real
    unknowns x = (Re xi_1, Im xi_1, .., tau): P times the Taylor coefficients at
    c0 of T of each basis density, mu0's last, with the column of xi_i repeated
    times i for Im xi_i.  Exact when rho = mu (module docstring)."""
    K = len(P) - 1
    basis = [problem._basis[k + 1] for k in problem.controlled] + [mu0]
    B = P @ np.stack([b.taylor_coeffs(problem.c0, K) for b in basis], axis=1)
    cols = np.repeat(np.arange(len(basis)), 2)[:-1]
    return problem.f.truncated(K).coeffs, B[:, cols] * np.tile([1, 1j], len(basis))[:-1]


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
    rows of the affine map and its norm linearized at f, to degree max(n, deg f)."""
    P, _ = _composition_powers(problem, max(problem.n, len(problem.f.coeffs) - 1))
    return _first_order(problem, *_affine_map(problem, mu0, P),
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
    tail_bound: float   # bound on the norm of h o f's coefficients above n_norm
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


def _tail_weights(problem: DeformationProblem, K: int,
                  Q: np.ndarray) -> tuple[np.ndarray, float]:
    """Weights W_j and a constant t_f such that sum_j |a_j| W_j + t_f bounds,
    in the space's norm, the part of h o f above degree K, for any rho on
    the disk with exterior moments a_j.

    |L_m| <= B_m = sum_j |a_j| |M[m, j]| with M from ``local_matrix``, and
    |coeff_k((f - c0)^m)| <= Q[k, m], whose columns sum to F^m with
    F = sum_{k>=1} |f_k|.  Weights that do not grow past K bound the norm of
    a tail by sqrt(w_{K+1}) times its l1 mass; growing ones (Dirichlet, at
    most like k^2) by sqrt(w_{K+1}) / (K + 1) times its k-weighted mass, whose
    columns sum to m F^{m-1} sum_k k |f_k|.  Over m > K the whole power lies
    above K; that sum runs until the ratio test gives a geometric remainder,
    which is added.  t_f is the exact norm of f's own coefficients above K.
    """
    cfg = problem.config
    f = problem.f.coeffs
    fa = np.abs(f[1:])
    F = float(fa.sum())
    F1 = float(np.arange(1, len(f)) @ fa)
    w_far = problem.space.weights(4 * K + 8)[K + 1:]
    grows = bool(np.any(np.diff(w_far) > 0))
    m = np.arange(K + 1)
    if grows:
        scale = np.sqrt(w_far[0]) / (K + 1)
        total = m * F ** np.maximum(m - 1, 0) * F1
        kept = np.arange(K + 1) @ Q   # sum_k k Q[k, m]
    else:
        scale = np.sqrt(w_far[0])
        total = F ** m
        kept = Q.sum(axis=0)
    M = np.abs(local_matrix(problem.disk.center, problem.disk.radius, problem.c0, K, cfg.n_ang))
    W = np.maximum(total - kept, 0.0) @ M
    d = abs(problem.disk.center - problem.c0)
    t_f = float(np.sqrt(np.sum(problem.space.weights(len(f))[K + 1:] * np.abs(f[K + 1:]) ** 2)))
    if F >= d:
        return np.full(M.shape[1], np.inf), t_f
    j = np.arange(M.shape[1])
    term = M[K] * total[K]
    mm = K + 1
    while True:
        ratio = (mm + j) / (mm * d) * F * (mm / (mm - 1) if grows else 1.0)
        term = term * ratio
        W += term
        mm += 1
        nxt = (mm + j) / (mm * d) * F * (mm / (mm - 1) if grows else 1.0)
        if np.all(nxt < 1.0):
            rest = term * nxt / (1.0 - nxt)
            if np.all(rest <= 1e-6 * W):
                return scale * (W + rest), t_f


def _sampled_check(problem: DeformationProblem, qc: QcMap, c: np.ndarray) -> float:
    """Largest gap between c and the coefficients recovered by FFT from h o f
    sampled on |z| = rho_s, over degrees k up to min(n_norm, m_samples / 4),
    each scaled by rho_s^k.

    The recovery divides the DFT of the samples by rho_s^k, so a sample
    error e becomes up to e / 0.9^128 = 7e5 e at k = 128.  The scaled gap is
    the gap between the two DFTs: how far the two computations of h o f
    disagree on the circle.
    """
    cfg = problem.config
    n_rec = min(cfg.n_norm, cfg.m_samples // 4)
    wv = problem.f.evaluate(cfg.rho_s * np.exp(2j * np.pi * np.arange(cfg.m_samples)
                                               / cfg.m_samples))
    rec = coeffs_from_circle_samples(wv + cauchy_T(qc.rho, wv), cfg.rho_s, n_rec, alias_tol=1e-5)
    gap = np.abs(rec.series.coeffs[: n_rec + 1] - c[: n_rec + 1])
    return float(np.max(gap * cfg.rho_s ** np.arange(n_rec + 1)))


def solve_deformation(problem: DeformationProblem) -> DeformationResult:
    """Exact solve (module docstring): with c(x) = f + B x (``_affine_map``),
    the controlled rows give xi = xi_0 + tau xi_1, so c = c* + tau v, and
    ||c* + tau v||_H = ||f||_H + a is a real quadratic in tau.  One map is built.

    Raises ConvergenceError when the first-order dilatation already exceeds
    the workable bound (the shifts are too large for the support disk) or when
    the quadratic's discriminant is negative (no dilatation in the span holds
    the shifts and reaches the norm); DilatationBoundError when the chosen
    root's sup is at least kappa_max; ResolutionError when the tail bound on
    the norm above K = n_norm exceeds norm_tol, when the built map misses the
    targets by more than coeff_tol or norm_tol, or when the cross-check
    disagrees by more than coeff_tol.
    """
    problem.validate()
    cfg = problem.config
    K = cfg.n_norm
    ctrl = list(problem.controlled)
    mu0 = build_mu0(problem)
    P, Q = _composition_powers(problem, K)
    f, B = _affine_map(problem, mu0, P)
    W, tail_f = _tail_weights(problem, K, Q)
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

    qc = build_map(mu, cfg)
    moments = qc.rho._multipole()
    tail = float(np.abs(moments) @ W[: len(moments)]) + tail_f
    if tail > cfg.norm_tol:
        raise ResolutionError(
            f"the coefficients of h o f above degree {K} may carry norm up to "
            f"{tail:.3e} (tail bound), above norm_tol {cfg.norm_tol:.1e}; raise n_norm")
    c = f + P @ qc.rho.taylor_coeffs(problem.c0, K)
    r = residual(c)
    if np.max(np.abs(r[:-1])) > cfg.coeff_tol or abs(r[-1]) > cfg.norm_tol:
        raise ResolutionError(
            f"the built map misses the shifts by {np.max(np.abs(r[:-1])):.3e} (coeff_tol "
            f"{cfg.coeff_tol:.1e}) and the norm by {abs(r[-1]):.3e} (norm_tol "
            f"{cfg.norm_tol:.1e}); rho is not mu on this grid ({qc.n_terms} Neumann terms)")
    check = _sampled_check(problem, qc, c)
    if check > cfg.coeff_tol:
        raise ResolutionError(
            f"sampled cross-check differs from the coefficient-space residual by "
            f"{check:.3e}, above coeff_tol {cfg.coeff_tol:.1e} (tail bound {tail:.3e})")

    drift = float(np.max(np.abs(c[: problem.j + 1] - f[: problem.j + 1])))
    eps = max(max((abs(s) for s in problem.d), default=0.0), abs(problem.a))
    trace = (float(np.linalg.norm(residual(f + B @ x_lin))), float(np.linalg.norm(r)))
    return DeformationResult(
        problem, mu, qc, tuple(c[ctrl] - f[ctrl]),
        hilbert_norm(problem.space, HoloSeries(c)) - norm_f, drift, mu.sup, eps,
        mu.sup / eps if eps > 0 else float("nan"), 0, trace, tail, check,
        float(disc), (tau, other))
