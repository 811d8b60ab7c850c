"""Sums of boundary double poles as approximants in growth norm.

The model class is r(z) = sum_j d_j / (z - exp(i theta_j))^2 with all poles
on the unit circle, the natural shape for Schwarzian-type targets.  Fitting
minimizes a weighted least-squares residual (weight (1 - |z|^2)^(p+1), which
keeps boundary-singular targets square-integrable) by variable projection
(Golub & Pereyra 1973): the strengths are a linear solve for given angles, and
the angles take damped Gauss-Newton steps with Kaufman's (1975) Jacobian.
Reported errors are growth-norm sups from :func:`qcdeform.spaces.bp_norm`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spaces import bp_norm

__all__ = ["DoublePoleRational", "FitResult", "fit_double_poles", "error_curve"]

# Exact targets converge in 6-25 steps (38 for poles 0.02 rad apart); fits
# with a large residual converge linearly, and this caps their cost.
_MAX_STEPS = 40


@dataclass(frozen=True)
class DoublePoleRational:
    angles: tuple
    strengths: tuple

    def __post_init__(self):
        object.__setattr__(self, "angles", tuple(float(a) for a in self.angles))
        object.__setattr__(self, "strengths", tuple(complex(d) for d in self.strengths))

    @property
    def poles(self) -> np.ndarray:
        return np.exp(1j * np.asarray(self.angles))

    def __call__(self, z):
        z = np.asarray(z, dtype=np.complex128)
        out = np.zeros(z.shape, dtype=np.complex128)
        for a, d in zip(self.poles, self.strengths):
            out += d / (z - a) ** 2
        return out


@dataclass(frozen=True)
class FitResult:
    rational: DoublePoleRational
    sup_error: float    # growth-norm sup of target - rational
    l2_residual: float  # weighted least-squares residual of the final solve
    n_rounds: int       # Gauss-Newton steps tried, over both fits of a real cold start


def _sample_set(p: float) -> tuple[np.ndarray, np.ndarray]:
    radii = np.concatenate([np.linspace(0.15, 0.9, 8), 1.0 - 0.5 ** np.arange(2, 11)])
    ang = np.exp(2j * np.pi * np.arange(128) / 128)
    z = np.outer(radii, ang).ravel()
    w = (1.0 - np.abs(z) ** 2) ** (p + 1.0)
    return z, w


def _strength_solve(b: np.ndarray, z: np.ndarray, w: np.ndarray,
                    angles: np.ndarray, real_strengths: bool):
    """Strengths for fixed angles by real least squares, complex ones as the
    columns [A, iA]; returns them, the residual M x - b and M."""
    A = w[:, None] / (z[:, None] - np.exp(1j * angles)[None, :]) ** 2
    if not real_strengths:
        A = np.hstack([A, 1j * A])
    M = np.vstack([A.real, A.imag])
    x, *_ = np.linalg.lstsq(M, b, rcond=None)
    n = len(angles)
    d = x.astype(np.complex128) if real_strengths else x[:n] + 1j * x[n:]
    return d, M @ x - b, M


def _angle_jacobian(z: np.ndarray, w: np.ndarray, angles: np.ndarray,
                    d: np.ndarray, M: np.ndarray) -> np.ndarray:
    """Kaufman's Jacobian: columns d(A d)/d theta_j with range(M) projected out."""
    a = np.exp(1j * angles)
    J = 2j * a * d * w[:, None] / (z[:, None] - a) ** 3
    J = np.vstack([J.real, J.imag])
    coef, *_ = np.linalg.lstsq(M, J, rcond=None)
    return J - M @ coef


def fit_double_poles(target, n_poles: int, p: float = 2.0,
                     real_strengths: bool = False,
                     init_angles=None) -> FitResult:
    """Best n-pole approximant of a callable target on the unit disk.

    Without init_angles the poles are placed greedily, each new one at the
    angle where the weighted residual of the previous fit with complex
    strengths peaks on a circle near the boundary.  With real strengths the
    angles of the complex-strength fit are the start instead: the greedy
    start can land in a wrong minimum of the real-strength residual.
    """
    if n_poles < 1:
        raise ValueError("need at least one pole")
    z, w = _sample_set(p)
    wb = w * np.asarray(target(z), dtype=np.complex128)
    b = np.concatenate([wb.real, wb.imag])

    steps = 0
    if init_angles is None:
        scan = 2.0 * np.pi * np.arange(64) / 64
        norms = [np.linalg.norm(_strength_solve(b, z, w, np.array([t]), False)[1])
                 for t in scan]
        angles = np.array([scan[int(np.argmin(norms))]])
        while len(angles) < n_poles:
            d, _, _ = _strength_solve(b, z, w, angles, False)
            angles = np.append(angles, _peak_angle(target, DoublePoleRational(angles, d), p))
        if real_strengths:
            angles, _, _, steps = _refine(b, z, w, angles, False)
    else:
        angles = np.asarray(init_angles, dtype=np.float64).copy()
        if len(angles) != n_poles:
            raise ValueError("init_angles length must equal n_poles")

    angles, d, norm, more = _refine(b, z, w, angles, real_strengths)
    rational = DoublePoleRational(angles, d)
    sup = bp_norm(lambda zz: np.asarray(target(zz)) - rational(zz), p)
    return FitResult(rational, sup, float(norm), steps + more)


def _refine(b: np.ndarray, z: np.ndarray, w: np.ndarray, angles: np.ndarray,
            real_strengths: bool):
    """(angles, strengths, residual norm, steps tried) after Levenberg-Marquardt
    steps on the angles, each kept only if it lowers the residual norm, until
    that norm changes by no more than rounding or after _MAX_STEPS steps."""
    d, r, M = _strength_solve(b, z, w, angles, real_strengths)
    norm = np.linalg.norm(r)
    J = _angle_jacobian(z, w, angles, d, M)
    damping = 1e-3  # relative to each Jacobian column's norm (Marquardt scaling)
    for steps in range(1, _MAX_STEPS + 1):
        scale = np.sqrt(damping) * np.linalg.norm(J, axis=0)
        step, *_ = np.linalg.lstsq(np.vstack([J, np.diag(scale)]),
                                   np.concatenate([-r, np.zeros(len(angles))]), rcond=None)
        d_t, r_t, M = _strength_solve(b, z, w, angles + step, real_strengths)
        norm_t = np.linalg.norm(r_t)
        decrease = norm - norm_t
        if decrease > 0.0:
            angles, d, r, norm = angles + step, d_t, r_t, norm_t
            J = _angle_jacobian(z, w, angles, d, M)
            damping *= 0.1
        else:
            damping *= 10.0
        if abs(decrease) <= 4.0 * np.finfo(float).eps * norm:
            break
    return angles, d, norm, steps


def _peak_angle(target, rational: DoublePoleRational, p: float) -> float:
    r = 1.0 - 2.0**-8
    t = 2.0 * np.pi * np.arange(256) / 256
    z = r * np.exp(1j * t)
    res = (1.0 - r * r) ** (p + 1.0) * np.abs(np.asarray(target(z)) - rational(z))
    # The residual also peaks at slightly-misplaced existing poles; mask those
    # neighborhoods so the new pole lands on genuinely unfit structure.
    masked = res.copy()
    for a in rational.angles:
        gap = np.abs((t - a + np.pi) % (2.0 * np.pi) - np.pi)
        masked[gap < np.pi / 8.0] = -1.0
    if np.max(masked) > 0.0:
        return float(t[int(np.argmax(masked))])
    return float(t[int(np.argmax(res))])


def error_curve(target, n_max: int, p: float = 2.0,
                real_strengths: bool = False) -> tuple[np.ndarray, list]:
    """Growth-norm errors of the best fits for 1 .. n_max poles.

    Each fit warm-starts from the previous pole set plus one pole at the
    residual peak; if refitting ever comes out worse, the previous approximant
    is kept with a zero-strength extra pole, so the curve never increases.
    """
    errors = np.empty(n_max)
    fits: list[FitResult] = []
    prev: FitResult | None = None
    for n in range(1, n_max + 1):
        if prev is None:
            fit = fit_double_poles(target, n, p, real_strengths)
        else:
            init = np.append(np.asarray(prev.rational.angles),
                             _peak_angle(target, prev.rational, p))
            fit = fit_double_poles(target, n, p, real_strengths, init_angles=init)
            if fit.sup_error > prev.sup_error:
                carried = DoublePoleRational(
                    prev.rational.angles + (init[-1],),
                    prev.rational.strengths + (0j,))
                fit = FitResult(carried, prev.sup_error, prev.l2_residual, fit.n_rounds)
        fits.append(fit)
        errors[n - 1] = fit.sup_error
        prev = fit
    return errors, fits
