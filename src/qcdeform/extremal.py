"""Coefficient extremum search over zero-free functions, and sampled
non-falsification of the coefficient-domination inequalities.

Two desk-scale tools:

* ``hsz_search`` produces certified lower bounds for the largest |c_n| among
  zero-free functions of unit Hilbert norm.  Candidates are exponentials of
  random polynomials (zero-free by construction), their homotopy dilations
  f(rz) including the constant r = 0, and coordinate-ascent tweaks of the
  incumbent.  The stream of evaluations is a deterministic function of the
  seed, so enlarging the budget only extends it: the running best never
  decreases for a fixed seed.

* ``check_thm2_consistency`` samples a family of small Schwarzian-sized
  functions, singles out the member maximizing |c_1|, and tabulates the
  domination inequalities |c_n| <= max(|c_1^0|, |c_n^0|) on the members and
  |a_m| <= |a_m^0| on the attached ratio-of-solutions expansions.  Violations
  are reported verbatim, never suppressed.  The output is exploratory
  evidence about a finite sample whose boundary hypothesis is unchecked, not
  a theorem verification; the report header says so.  The growth ceiling
  b2_bound of a random family is certified: no member exceeds it anywhere
  in the disk.  The family and every member's expansion are computed as
  whole arrays, not member by member.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .series import HoloSeries
from .spaces import SpaceSpec, hilbert_norm
from .schwarzian import _canonical_ratio, _ring_values

__all__ = [
    "SearchRecord",
    "hsz_search",
    "FamilySpec",
    "Thm2Report",
    "check_thm2_consistency",
]


@dataclass(frozen=True)
class SearchRecord:
    space: SpaceSpec
    n: int
    best_value: float
    best_f: HoloSeries | None
    samples: int
    seed: int
    history: tuple  # (evaluation index, value, candidate) at each improvement


# hsz_search candidates: exp of a degree-12 polynomial, kept to degree 48; a
# candidate replaces the best only when it beats it by more than _ULPS ulps,
# so rounding noise between equal values never steers the search
_DEGREE = 12
_N_KEEP = 48
_ULPS = 4


def _exp_coeffs(g_coeffs: np.ndarray) -> np.ndarray:
    g = np.zeros(_N_KEEP + 1, dtype=np.complex128)
    g[: len(g_coeffs)] = g_coeffs
    return HoloSeries(g, radius=np.inf).exp().coeffs


def hsz_search(space: SpaceSpec, n: int, budget: int, seed: int = 0) -> SearchRecord:
    """Lower bound for sup |c_n| over zero-free f with ||f||_H = 1.

    Every evaluated candidate is exp(polynomial of degree 12), truncated at
    degree 48 and rescaled to unit norm, so it is zero-free and on the unit
    sphere by construction.  Returns the best value found within the
    evaluation budget.
    """
    rng = np.random.default_rng(seed)
    best = 0.0
    best_f: HoloSeries | None = None
    history: list = []
    evals = 0
    sweep = (0.0, 0.25, 0.5, 0.75, 1.0)
    scales = 0.5 ** np.arange(_DEGREE + 1)
    incumbent_g: np.ndarray | None = None
    fresh_count = 0

    def consider(exp_coeffs: np.ndarray) -> bool:
        nonlocal best, best_f, evals
        if evals >= budget:
            return False
        evals += 1
        nrm = hilbert_norm(space, HoloSeries(exp_coeffs))
        f = HoloSeries(exp_coeffs / nrm, radius=1.0)
        val = abs(f.coefficient(n))
        if val - best > _ULPS * np.spacing(best):
            best = val
            best_f = f
            history.append((evals, val, f))
            return True
        return False

    while evals < budget:
        g = scales * (rng.standard_normal(_DEGREE + 1) + 1j * rng.standard_normal(_DEGREE + 1))
        fresh_count += 1
        # exp(g(r z)) = exp(g)(r z): one exp per sweep; + 0.0 makes r = 0's -0.0 the +0.0 of exp
        exp_g = _exp_coeffs(g)
        for r in sweep:
            dilation = r ** np.arange(_N_KEEP + 1)
            if consider(exp_g * dilation + 0.0):
                incumbent_g = g * dilation[: _DEGREE + 1]
        if incumbent_g is None:
            incumbent_g = g
        # periodic local ascent around the incumbent
        if fresh_count % 16 == 0 and evals < budget:
            step = 0.25
            for _ in range(8):
                if evals >= budget:
                    break
                tweak = np.zeros(_DEGREE + 1, dtype=np.complex128)
                # m >= 1: a constant tweak is a scale factor the normalization cancels
                m = int(rng.integers(1, _DEGREE + 1))
                tweak[m] = step * np.exp(2j * np.pi * rng.random())
                if consider(_exp_coeffs(incumbent_g + tweak)):
                    incumbent_g = incumbent_g + tweak
                else:
                    step *= 0.7
    return SearchRecord(space, n, best, best_f, evals, seed, tuple(history))


# ---------------------------------------------------------------------------
# sampled domination inequalities


@dataclass(frozen=True)
class FamilySpec:
    """Generator recipe for a sampled family of small disk functions.

    ``random_b2`` draws coefficients c_k = sigma0 decay^k (x + i y) with
    standard normal x, y, and scales down every member whose growth
    sup (1 - |z|^2)^2 |f(z)| could exceed ``b2_bound``: the scale uses a
    certified upper bound of that sup (:func:`_b2_ceiling`), so b2_bound is a
    ceiling of every member, not a grid estimate.
    """

    size: int = 1000
    degree: int = 10
    sigma0: float = 0.2
    decay: float = 0.5
    b2_bound: float = 0.2

    @staticmethod
    def random_b2(size: int = 1000, degree: int = 10, sigma0: float = 0.2,
                  decay: float = 0.5, b2_bound: float = 0.2) -> "FamilySpec":
        return FamilySpec(size, degree, sigma0, decay, b2_bound)

    def generate(self, seed: int) -> list[HoloSeries]:
        rng = np.random.default_rng(seed)
        sig = self.sigma0 * self.decay ** np.arange(self.degree + 1)
        # one draw, in the order of per-member (real, imaginary) draws
        g = rng.standard_normal((self.size, 2, self.degree + 1))
        c = sig * (g[:, 0] + 1j * g[:, 1])
        b2 = _b2_ceiling(c)
        over = b2 > self.b2_bound
        c[over] *= (self.b2_bound / b2[over])[:, None]
        return [HoloSeries(row, radius=np.inf) for row in c]


# growth grid: 66 rings x 128 angles; the rings are the 64ths of [0, 1) and
# 1 - 2^-7, 1 - 2^-8 (built without np.unique, which imports numpy.ma, 1.5 MB)
_RADII = np.concatenate([np.arange(64) / 64, 1.0 - 0.5 ** np.arange(7, 9)])
_N_ANGLES = 128
# members per ring pass: one block of rings is 4 x 66 x 128 complex (0.5 MB);
# 16-member blocks ran at the same speed and raised the peak RSS of the
# analysis benchmark by 1.3 MB
_BLOCK = 4


def _b2_ceiling(c: np.ndarray) -> np.ndarray:
    """Upper bound of sup_{|z| < 1} (1 - |z|^2)^2 |f(z)| for each row of c.

    With a_k = |c_k| and M(r) the maximum of |f| on |z| = r:

    * on each grid ring, the largest of the 128 values plus the angular slack
      (pi / 128) sum k a_k r^k bounds M(r), since d f / d theta is bounded by
      that sum and every angle is within pi / 128 of a grid angle;
    * between a ring r and the next one r' (or 1 after the last ring), M
      grows (maximum modulus), and along a ray |f| moves by at most
      (s - r) sum k a_k s^(k - 1) from ring r out to radius s.  So on each
      half [s0, s1] of [r, r'] the weighted modulus is at most
      (1 - s0^2)^2 times the smaller of the ring-r bound plus that move out
      to s1, and the bound of M(r') (sum a_k when r' = 1).

    The bound is certified up to rounding.  Its slack is first order in the
    grid step: on random_b2 draws it lies about 0.6 % above the grid maximum
    in the median, but several times above the sup for high-degree rows.
    """
    k = np.arange(c.shape[1])
    r, r_next = _RADII, np.append(_RADII[1:], 1.0)
    mid = 0.5 * (r + r_next)
    powers = r[:, None] ** k
    slope = (k * powers).T * (np.pi / _N_ANGLES)
    step_mid = ((mid - r)[:, None] * k * mid[:, None] ** (k - 1)).T
    step_next = ((r_next - r)[:, None] * k * r_next[:, None] ** (k - 1)).T
    out = np.empty(len(c))
    for lo in range(0, len(c), _BLOCK):
        block = c[lo : lo + _BLOCK]
        a = np.abs(block)
        ring = np.abs(_ring_values(block[:, None, :] * powers, _N_ANGLES)).max(axis=-1)
        m_ring = ring + a @ slope
        m_next = np.concatenate([m_ring[:, 1:], a.sum(axis=1, keepdims=True)], axis=1)
        inner = (1.0 - r**2) ** 2 * np.minimum(m_ring + a @ step_mid, m_next)
        outer = (1.0 - mid**2) ** 2 * np.minimum(m_ring + a @ step_next, m_next)
        out[lo : lo + _BLOCK] = np.maximum(inner, outer).max(axis=-1)
    return out


_HEADER = (
    "exploratory evidence: finite sampled family, boundary hypothesis unchecked; "
    "f0 is the sampled argmax of |c_1|, not a certified extremal; "
    "this report does not verify any theorem"
)


@dataclass(frozen=True)
class Thm2Report:
    header: str
    n: int
    n_samples: int
    seed: int
    f0_index: int
    c1_0: float
    cn_0: float
    rows: tuple               # per sample: (index, |c_n|, bound, ok)
    coeff_violations: tuple   # sample indices with |c_n| > bound + tol
    expansion_rows: tuple     # (index, m, |a_m|, |a_m^0|, ok) comparisons
    expansion_violations: tuple
    tol: float

    def to_dict(self) -> dict:
        return {
            "header": self.header,
            "n": self.n,
            "n_samples": self.n_samples,
            "seed": self.seed,
            "f0_index": self.f0_index,
            "c1_0": self.c1_0,
            "cn_0": self.cn_0,
            "coeff_violations": list(self.coeff_violations),
            "expansion_violations": [list(v) for v in self.expansion_violations],
            "rows": [list(r) for r in self.rows],
            "expansion_rows": [list(r) for r in self.expansion_rows],
            "tol": self.tol,
        }


# check_thm2_consistency: slack of every comparison, the orders m = 3..6 of
# the compared expansions, and the degree they are solved to
_TOL = 1e-9
_M_MAX = 6
_ODE_DEGREE = 16


def check_thm2_consistency(space: SpaceSpec, family, n: int = 2,
                           seed: int = 0) -> Thm2Report:
    """Tabulate the coefficient-domination inequalities on a sampled family.

    family is a FamilySpec or an iterable of HoloSeries.  The |c_n| of every
    member is compared against max(|c_1^0|, |c_n^0|) of the member maximizing
    |c_1|; the coefficients a_3..a_6 of the expansions solving the attached
    second-order equation (solved to degree 16) are compared the same way.
    Every comparison allows a slack of 1e-9, and all violations are listed.
    """
    if n < 0:
        raise ValueError("coefficient index n must be nonnegative")
    members = family.generate(seed) if isinstance(family, FamilySpec) else list(family)
    if not members:
        return Thm2Report(_HEADER, n, 0, seed, -1, 0.0, 0.0, (), (), (), (), _TOL)

    # every coefficient the report reads: c_1, c_n and the Schwarzian orders
    width = max(_ODE_DEGREE - 1, n + 1)
    coeffs = np.array([f.truncated(width - 1).coeffs for f in members])
    c1 = np.abs(coeffs[:, 1])
    cn = np.abs(coeffs[:, n])
    i0 = int(np.argmax(c1))
    c1_0 = float(c1[i0])
    cn_0 = float(cn[i0])
    bound = max(c1_0, cn_0)
    coeff_ok = cn <= bound + _TOL
    rows = tuple(zip(range(len(members)), cn.tolist(), [bound] * len(members),
                     coeff_ok.tolist()))
    bad_coeff = tuple(np.flatnonzero(~coeff_ok).tolist())

    # canonical solutions (jet 0, 1, 0) of every member at once
    w = _canonical_ratio(coeffs[:, : _ODE_DEGREE - 1], _ODE_DEGREE)
    a = np.abs(w[:, : _M_MAX + 1])
    exp_ok = a[:, 3:] <= a[i0, 3:] + _TOL
    am, am0, oks = a.tolist(), a[i0].tolist(), exp_ok.tolist()
    exp_rows = tuple((i, m, am[i][m], am0[m], oks[i][m - 3])
                     for i in range(len(members)) for m in range(3, _M_MAX + 1))
    bad_exp = tuple((int(i), int(m) + 3) for i, m in zip(*np.nonzero(~exp_ok)))

    return Thm2Report(_HEADER, n, len(members), seed, i0, c1_0, cn_0,
                      rows, bad_coeff, exp_rows, bad_exp, _TOL)
