"""Prescribed coefficient and norm shifts through disk-supported dilatations.

Given f in a weighted Hilbert space H, a support disk away from the closed
image f(D), indices j < n, shift targets d_(j+1) .. d_n and a real norm
increment a, the solver finds a dilatation mu on the disk whose normalized
quasiconformal map h = w + T rho satisfies

    coeff_k(h o f) = coeff_k(f) + d_k    for k = j+1 .. n,
    || h o f ||_H  = || f ||_H + a,

with mu as small as the data allows.  The dilatation is sought in the span of
conjugated kernel powers conj((zeta - c0)^-(k+1)) attached to the controlled
coefficients plus a norm direction mu0 that is pairing-orthogonal to them,
where c0 = f(0).  A first-order solve seeds a damped Newton iteration on the
sampled residuals of the actual composed map.

The k-th Taylor coefficient of T rho around c0 equals the area pairing of rho
with (zeta - c0)^-(k+1); everything here rests on that identity.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .beltrami import QcMap, build_map
from .config import DEFAULT_CONFIG, RunConfig
from .errors import ConvergenceError, DilatationBoundError, IllConditionedBasisError
from .series import HoloSeries, coeffs_from_circle_samples
from .spaces import SpaceSpec, hilbert_norm
from .transforms import Density, Disk, cauchy_T, pairing

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

    def validate(self) -> None:
        if self.f.is_laurent or self.f.center != 0:
            raise ValueError("f must be a Taylor series centered at 0")
        if not 0 <= self.j < self.n:
            raise ValueError("need 0 <= j < n")
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


def _basis_density(problem: DeformationProblem, order: int) -> Density:
    cfg = problem.config
    return Density.from_terms(problem.disk, [(1.0, problem.c0, order)], cfg.n_rad, cfg.n_ang)


def build_mu0(problem: DeformationProblem) -> Density:
    """Norm-control direction: unit pairing with (zeta-c0)^-1, none with the
    kernels of the controlled coefficients."""
    orders = [k + 1 for k in problem.controlled] + [1]
    dens = [_basis_density(problem, a) for a in orders]
    m = len(orders)
    gram = np.empty((m, m), dtype=np.complex128)
    for i, rho_i in enumerate(dens):
        for jj, b in enumerate(orders):
            gram[i, jj] = pairing(rho_i, (problem.c0, b))
    cond = np.linalg.cond(gram)
    if cond > _COND_LIMIT:
        raise IllConditionedBasisError(
            f"kernel-power Gram matrix has condition number {cond:.3g}")
    target = np.zeros(m, dtype=np.complex128)
    target[-1] = 1.0
    y = np.linalg.solve(gram.T, target)
    terms = [(y[i], problem.c0, orders[i]) for i in range(m)]
    return Density.from_terms(problem.disk, terms, problem.config.n_rad, problem.config.n_ang)


def _mu_from_x(problem: DeformationProblem, mu0: Density, x: np.ndarray) -> Density:
    q = problem.n - problem.j
    terms = []
    for i, k in enumerate(problem.controlled):
        terms.append((complex(x[2 * i], x[2 * i + 1]), problem.c0, k + 1))
    tau = float(x[2 * q])
    terms.extend((tau * c, p, kk) for c, p, kk in mu0.terms)
    return Density.from_terms(problem.disk, terms, problem.config.n_rad, problem.config.n_ang)


def _composition_powers(problem: DeformationProblem) -> tuple[np.ndarray, np.ndarray]:
    """P[k, m] = coeff_k((f - c0)^m) and s[m] = ((f - c0)^m, f)_H, m = 0 .. L."""
    fc = problem.f.coeffs.copy()
    fc[0] = 0.0
    L = max(problem.n, len(fc) - 1)
    P = np.zeros((L + 1, L + 1), dtype=np.complex128)
    P[0, 0] = 1.0
    power = np.zeros(L + 1, dtype=np.complex128)
    power[0] = 1.0
    for m in range(1, L + 1):
        power = np.convolve(power, fc)[: L + 1]
        P[:, m] = power
    w = problem.space.weights(L + 1)
    cf = np.zeros(L + 1, dtype=np.complex128)
    cf[: len(fc)] = problem.f.coeffs[: L + 1]
    s = P.T @ (w * np.conj(cf))
    return P, s


def linearized_init(problem: DeformationProblem, mu0: Density) -> np.ndarray:
    """First-order solve for (xi, tau): coefficient rows through the chain
    rule on (f - c0)-powers, one real row for the norm shift."""
    q = problem.n - problem.j
    P, s = _composition_powers(problem)
    L = P.shape[0] - 1
    # pairing of each basis density with every kernel power up to L + 1
    basis = [_basis_density(problem, k + 1) for k in problem.controlled]
    lam = np.empty((L + 1, q + 1), dtype=np.complex128)
    for m in range(L + 1):
        phi = (problem.c0, m + 1)
        for i, b in enumerate(basis):
            lam[m, i] = pairing(b, phi)
        lam[m, q] = pairing(mu0, phi)
    norm_f = hilbert_norm(problem.space, problem.f)
    size = 2 * q + 1
    A = np.zeros((size, size))
    rhs = np.zeros(size)

    def fill_complex_row(row: int, coeffs: np.ndarray, value: complex) -> None:
        for i in range(q):
            A[row, 2 * i], A[row, 2 * i + 1] = coeffs[i].real, -coeffs[i].imag
            A[row + 1, 2 * i], A[row + 1, 2 * i + 1] = coeffs[i].imag, coeffs[i].real
        A[row, 2 * q] = coeffs[q].real
        A[row + 1, 2 * q] = coeffs[q].imag
        rhs[row], rhs[row + 1] = value.real, value.imag

    for idx, k in enumerate(problem.controlled):
        alpha = P[k, : k + 1] @ lam[: k + 1]
        fill_complex_row(2 * idx, alpha, problem.d[idx])
    gamma = (s @ lam) / norm_f
    for i in range(q):
        A[2 * q, 2 * i], A[2 * q, 2 * i + 1] = gamma[i].real, -gamma[i].imag
    A[2 * q, 2 * q] = gamma[q].real
    rhs[2 * q] = problem.a
    cond = np.linalg.cond(A)
    if cond > _COND_LIMIT:
        raise IllConditionedBasisError(
            f"first-order deformation system has condition number {cond:.3g}")
    return np.linalg.solve(A, rhs)


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
        }


def _sample_setup(problem: DeformationProblem):
    cfg = problem.config
    n_rec = min(cfg.n_norm, cfg.m_samples // 4)
    z = cfg.rho_s * np.exp(2j * np.pi * np.arange(cfg.m_samples) / cfg.m_samples)
    return problem.f.evaluate(z), n_rec


def solve_deformation(problem: DeformationProblem) -> DeformationResult:
    """Damped Newton on the sampled shift residuals.

    Raises ConvergenceError when the first-order dilatation already exceeds
    the workable bound (the prescribed shifts are too large for the support
    disk), when the iteration stagnates, or when the step budget runs out.
    """
    problem.validate()
    cfg = problem.config
    mu0 = build_mu0(problem)
    x = linearized_init(problem, mu0)
    wv, n_rec = _sample_setup(problem)
    norm_f = hilbert_norm(problem.space, problem.f)
    q = problem.n - problem.j
    targets = np.array([problem.f.coefficient(k) + problem.d[i]
                        for i, k in enumerate(problem.controlled)])

    sup0 = _mu_from_x(problem, mu0, x).sup
    bound = 0.9 * cfg.kappa_max
    if sup0 > bound:
        raise ConvergenceError(
            f"first-order dilatation needs sup {sup0:.3g}, above the workable bound "
            f"{bound:.3g}; with this support disk only shifts roughly {bound / sup0:.2g} "
            "times the requested size are reachable")

    def residual(xv: np.ndarray):
        mu = _mu_from_x(problem, mu0, xv)
        if mu.sup >= cfg.kappa_max:
            raise DilatationBoundError(f"trial dilatation sup {mu.sup:.3g}")
        qc = build_map(mu, cfg)
        hv = wv + cauchy_T(qc.rho, wv)
        rec = coeffs_from_circle_samples(hv, cfg.rho_s, n_rec, alias_tol=1e-5)
        r = np.empty(2 * q + 1)
        for i, k in enumerate(problem.controlled):
            delta = rec.series.coefficient(k) - targets[i]
            r[2 * i], r[2 * i + 1] = delta.real, delta.imag
        r[2 * q] = hilbert_norm(problem.space, rec.series) - (norm_f + problem.a)
        return r, mu, qc, rec.series

    trace = []
    r, mu, qc, g = residual(x)
    history = [float(np.linalg.norm(r))]
    for it in range(cfg.newton_max_iter):
        trace.append(float(np.linalg.norm(r)))
        coeff_ok = np.max(np.abs(r[: 2 * q])) <= cfg.coeff_tol if q else True
        if coeff_ok and abs(r[2 * q]) <= cfg.norm_tol:
            drift = float(max(abs(g.coefficient(k) - problem.f.coefficient(k))
                              for k in range(problem.j + 1)))
            eps = max(max((abs(v) for v in problem.d), default=0.0), abs(problem.a))
            achieved = tuple(g.coefficient(k) - problem.f.coefficient(k)
                             for k in problem.controlled)
            return DeformationResult(
                problem, mu, qc, achieved,
                hilbert_norm(problem.space, g) - norm_f, drift, mu.sup, eps,
                mu.sup / eps if eps > 0 else float("nan"), it, tuple(trace))

        J = np.empty((2 * q + 1, 2 * q + 1))
        for col in range(2 * q + 1):
            h = 1e-6 * max(1.0, abs(x[col]))
            xp = x.copy()
            xp[col] += h
            J[:, col] = (residual(xp)[0] - r) / h
        try:
            step = np.linalg.solve(J, r)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"singular Newton system at iteration {it}") from exc

        lam, accepted = 1.0, False
        rn = np.linalg.norm(r)
        while lam >= 1.0 / 64:
            xt = x - lam * step
            if _mu_from_x(problem, mu0, xt).sup < cfg.kappa_max * (1.0 - 1e-3):
                rt, mu_t, qc_t, g_t = residual(xt)
                if np.linalg.norm(rt) < rn * (1.0 - 0.25 * lam):
                    x, r, mu, qc, g = xt, rt, mu_t, qc_t, g_t
                    accepted = True
                    break
            lam *= 0.5
        if not accepted:
            raise ConvergenceError(
                f"line search failed at iteration {it} with residual {rn:.3g}")
        history.append(float(np.linalg.norm(r)))
        if len(history) > 5 and history[-1] > 0.8 * min(history[:-5]):
            raise ConvergenceError(
                f"residual stagnated near {history[-1]:.3g} after {it + 1} iterations")
    raise ConvergenceError(
        f"no convergence within {cfg.newton_max_iter} iterations; "
        f"final residual {float(np.linalg.norm(r)):.3g}")
