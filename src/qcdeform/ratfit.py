"""Sums of boundary double poles as approximants in growth norm.

The model class is r(z) = sum_j d_j / (z - exp(i theta_j))^2 with all poles
on the unit circle, the natural shape for Schwarzian-type targets.  Fitting
minimizes a weighted least-squares residual (weight (1 - |z|^2)^(p+1), which
keeps boundary-singular targets square-integrable) by variable projection
(Golub & Pereyra 1973): the strengths are a linear solve for given angles, and
the angles take Levenberg-Marquardt steps with Kaufman's (1975) Jacobian.  One
reduced QR per angle set serves both the strength solve and Kaufman's
projection; the Jacobian is factored once per accepted step, so each damped
trial is a small solve on its triangular factor R_J (More 1978).

A cold fit starts from the best one-pole fit over the 64 scan angles
theta_s = 2 pi s / 64.  The samples are 17 rings of 128 equispaced angles
2 pi j / 128, so theta_s is sample angle 2s, and the scan column
a_s = w / (z - e^(i theta_s))^2 is e^(-2 i theta_s) times a_0 shifted 2s samples
along each ring.  All 64 correlations a_s^H wb are then one circular
cross-correlation per ring (one FFT of wb's rings against the cached spectrum
of a_0's), and ||a_s|| = ||a_0||; those screen the angles, and direct residual
norms decide among the few that pass (``_scan_start``).
Reported errors are growth-norm sups from :func:`qcdeform.spaces.bp_norm`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .spaces import bp_norm

__all__ = ["DoublePoleRational", "FitResult", "fit_double_poles", "error_curve"]

# Exact targets converge in 6-25 steps (19 for poles 0.02 rad apart); fits
# with a large residual converge linearly, and this caps their cost.
_MAX_STEPS = 40
# the sample rings' radii, 8 inside and 9 approaching the circle, and the
# equispaced angles 2 pi j / _RING on each
_RADII = np.concatenate([np.linspace(0.15, 0.9, 8), 1.0 - 0.5 ** np.arange(2, 11)])
_RING = 128
# the cold-start scan: every second sample angle of a ring
_SCAN = 2.0 * np.pi * np.arange(_RING // 2) / (_RING // 2)
# the scan screen's rounding from its FFTs and the direct norms, in units of
# eps ||wb||^2 (measured at most 30 over random pole sums at p = 2 and 4)
_SCREEN_ROUNDING = 1e3


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
    n_rounds: int       # Levenberg-Marquardt steps tried, over both fits of a real cold start


@lru_cache(maxsize=8)
def _sample_set(p: float) -> tuple[np.ndarray, np.ndarray]:
    """Cached: the sample points z, ring by ring, and their weights
    w = (1 - |z|^2)^(p + 1), read-only and shared by every fit with this p."""
    ang = np.exp(2j * np.pi * np.arange(_RING) / _RING)
    z = np.outer(_RADII, ang).ravel()
    w = (1.0 - np.abs(z) ** 2) ** (p + 1.0)
    for a in (z, w):
        a.setflags(write=False)
    return z, w


@lru_cache(maxsize=8)
def _scan_screen(p: float) -> tuple[np.ndarray, float, float]:
    """Cached: the conjugate DFT of each ring of the scan column a_0 = w / (z - 1)^2
    (one row per ring, read-only), ||a_0||^2, and the screen's window in units
    of eps ||wb||^2 (``_scan_start``)."""
    z, w = _sample_set(p)
    a0 = w / (z - 1.0) ** 2
    spectrum = np.conj(np.fft.fft(a0.reshape(len(_RADII), _RING), axis=1))
    spectrum.setflags(write=False)
    kappa = np.linalg.norm(a0 / (z - 1.0)) / np.linalg.norm(a0)
    return spectrum, float(np.vdot(a0, a0).real), 2.0 * (_SCREEN_ROUNDING + 16.0 * kappa)


def _pole_columns(z: np.ndarray, w: np.ndarray, angles: np.ndarray) -> np.ndarray:
    return w[:, None] / (z[:, None] - np.exp(1j * angles)[None, :]) ** 2


def _stack(x: np.ndarray) -> np.ndarray:
    return np.concatenate([x.real, x.imag])


def _strength_solve(wb: np.ndarray, z: np.ndarray, w: np.ndarray,
                    angles: np.ndarray, real_strengths: bool):
    """Strengths for fixed angles by least squares through one reduced QR of
    the pole columns A (complex strengths) or of [Re A; Im A] (real ones),
    with one step of iterative refinement; returns them, the stacked real
    residual of A d - wb, the orthonormal factor Q and A."""
    A = _pole_columns(z, w, angles)
    M, rhs = (_stack(A), _stack(wb)) if real_strengths else (A, wb)
    Q, R = np.linalg.qr(M)
    QH = Q.conj().T
    x = _r_solve(R, QH @ rhs, max(M.shape))
    x -= _r_solve(R, QH @ (M @ x - rhs), max(M.shape))
    d = x.astype(np.complex128)
    return d, _stack(A @ d - wb), Q, A


def _r_solve(R: np.ndarray, y: np.ndarray, rows: int) -> np.ndarray:
    """R^-1 y, or the minimum-norm solution when coinciding angles make R
    singular to lstsq's default cutoff on the full rows x n matrix."""
    diag = np.abs(np.diag(R))
    cutoff = np.finfo(float).eps * rows
    if diag.min() <= cutoff * diag.max():
        return np.linalg.lstsq(R, y, rcond=cutoff)[0]
    return np.linalg.solve(R, y)


def _scan_start(wb: np.ndarray, p: float) -> float:
    """The angle on the 64-point scan _SCAN whose one-pole complex fit, with
    d = a^H wb / a^H a in closed form, leaves the smallest residual norm; the
    lowest angle on a tie.

    Scan column a_s is e^(-2 i theta_s) times a_0 shifted 2s samples along each
    ring (module docstring), so a_s^H wb = e^(2 i theta_s) X_2s with X the
    circular cross-correlation of a_0 and wb summed over the rings, one inverse
    FFT of the ring spectra's products, and the squared residual norm is
    v_s = ||wb||^2 - |X_2s|^2 / ||a_0||^2.  That formula cancels digits, so it
    only rules angles out: v_s misses the directly computed squared norm by
    the FFTs' and the direct norm's rounding (_SCREEN_ROUNDING) plus the
    rotation's, which holds for the rounded samples only to about
    4 eps |z| / |z - e^(i theta_s)| in each entry, or 16 kappa eps ||wb||^2
    with kappa = ||a_0 / (z - 1)|| / ||a_0||.  Every angle whose v_s lies
    within twice their sum, times eps ||wb||^2, of min v passes, and the
    residual norms ||a_s d_s - wb|| of those, taken directly, decide.  NaN
    passes, so a non-finite target picks the first angle.
    """
    spectrum, a0_norm2, window = _scan_screen(p)
    corr = np.fft.ifft(np.sum(spectrum * np.fft.fft(wb.reshape(spectrum.shape), axis=1), axis=0))
    wb_norm2 = np.vdot(wb, wb).real
    v = wb_norm2 - np.abs(corr[::2]) ** 2 / a0_norm2
    passed = np.flatnonzero(~(v > np.min(v) + window * np.finfo(float).eps * wb_norm2))
    if len(passed) == 1:
        return float(_SCAN[passed[0]])
    z, w = _sample_set(p)
    norms = []
    for theta in _SCAN[passed]:
        a = _pole_columns(z, w, np.array([theta]))[:, 0]
        norms.append(np.linalg.norm(a * (np.vdot(a, wb) / np.linalg.norm(a) ** 2) - wb))
    return float(_SCAN[passed[int(np.argmin(norms))]])


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

    steps = 0
    if init_angles is None:
        angles = np.array([_scan_start(wb, p)])
        while len(angles) < n_poles:
            d = _strength_solve(wb, z, w, angles, False)[0]
            angles = np.append(angles, _peak_angle(target, DoublePoleRational(angles, d), p))
        if real_strengths:
            angles, _, _, steps = _refine(wb, z, w, angles, False)
    else:
        angles = np.asarray(init_angles, dtype=np.float64).copy()
        if len(angles) != n_poles:
            raise ValueError("init_angles length must equal n_poles")
        # a repeated pole makes the strength columns rank deficient
        poles = np.exp(1j * angles)
        twins = np.argwhere(np.triu(np.abs(poles[:, None] - poles) < 1e-12, 1))
        if len(twins):
            raise ValueError(f"init_angles repeats the angle {angles[twins[0, 0]]:.17g} mod 2 pi")

    angles, d, norm, more = _refine(wb, z, w, angles, real_strengths)
    rational = DoublePoleRational(angles, d)
    sup = bp_norm(lambda zz: np.asarray(target(zz)) - rational(zz), p)
    return FitResult(rational, sup, float(norm), steps + more)


def _refine(wb: np.ndarray, z: np.ndarray, w: np.ndarray, angles: np.ndarray,
            real_strengths: bool):
    """(angles, strengths, residual norm, steps tried) after Levenberg-Marquardt
    steps on the angles, each kept only if it lowers the residual norm, until
    that norm changes by no more than rounding or after _MAX_STEPS steps.

    J = Q_J R_J is factored once per kept step (More 1978), so each damped
    trial is the small least-squares problem [R_J; D] s = [-Q_J^T r; 0]."""
    n = len(angles)
    d, r, Q, A = _strength_solve(wb, z, w, angles, real_strengths)
    norm = np.linalg.norm(r)
    RJ, g = _step_system(z, angles, d, A, Q, r)
    damping = 1e-3  # relative to each Jacobian column's norm (Marquardt scaling)
    for steps in range(1, _MAX_STEPS + 1):
        scale = np.sqrt(damping) * np.linalg.norm(RJ, axis=0)
        step, *_ = np.linalg.lstsq(np.vstack([RJ, np.diag(scale)]),
                                   np.concatenate([g, np.zeros(n)]), rcond=None)
        trial = _strength_solve(wb, z, w, angles + step, real_strengths)
        norm_t = np.linalg.norm(trial[1])
        decrease = norm - norm_t
        if decrease > 0.0:
            angles, norm = angles + step, norm_t
            d, r, Q, A = trial
            RJ, g = _step_system(z, angles, d, A, Q, r)
            damping *= 0.1
        else:
            damping *= 10.0
        if abs(decrease) <= 4.0 * np.finfo(float).eps * norm:
            break
    return angles, d, norm, steps


def _step_system(z: np.ndarray, angles: np.ndarray, d: np.ndarray, A: np.ndarray,
                 Q: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """R_J and -Q_J^T r for Kaufman's Jacobian J = Q_J R_J: the columns
    d(A d)/d theta_j with range(Q) projected out, stacked real.  A complex Q
    spans the complex strengths, whose real span [A, iA] is the complex span
    of A, so that projection is complex."""
    a = np.exp(1j * angles)
    J = 2j * a * d * A / (z[:, None] - a)
    if np.iscomplexobj(Q):
        J = _stack(J - Q @ (Q.conj().T @ J))
    else:
        J = _stack(J)
        J -= Q @ (Q.T @ J)
    QJ, RJ = np.linalg.qr(J)
    return RJ, -(QJ.T @ r)


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
