"""Hot numerical kernels.

Every kernel exists twice: a pure-numpy implementation (suffix ``_np``) and,
when numba is importable, an ``@njit`` twin (suffix ``_nb``).  The public
names are bound to one of the two at import time.  Setting the environment
variable ``QCDEFORM_NO_NUMBA=1`` forces the numpy path; otherwise numba is
used whenever it imports cleanly.  ``benchmarks/bench_kernels.py`` times the
two paths against each other.

All kernels take plain contiguous complex128/float64 arrays.  The quadrature
sums here omit the -1/pi prefactor of the transforms; callers apply it, and
call them only at targets outside the support, where no node coincides with
a target.
"""

from __future__ import annotations

import os

import numpy as np

__all__ = [
    "USING_NUMBA",
    "HAS_NUMBA",
    "horner_many",
    "cauchy_sum",
    "beurling_points",
    "series_exp",
]

_CHUNK = 256  # target-block size for the numpy paths; keeps temporaries small


def _flag_disabled() -> bool:
    return os.environ.get("QCDEFORM_NO_NUMBA", "0").lower() in ("1", "true", "yes")


try:
    import numba

    HAS_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba installed
    numba = None
    HAS_NUMBA = False

USING_NUMBA = HAS_NUMBA and not _flag_disabled()

if USING_NUMBA:
    cap = os.environ.get("QCDEFORM_THREADS")
    if cap:
        numba.set_num_threads(max(1, min(int(cap), numba.config.NUMBA_NUM_THREADS)))


# ---------------------------------------------------------------------------
# numpy implementations


def horner_many_np(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    acc = np.full(z.shape, coeffs[-1], dtype=np.complex128)
    for k in range(len(coeffs) - 2, -1, -1):
        acc = acc * z + coeffs[k]
    return acc


def cauchy_sum_np(nodes, weights, rho, targets):
    out = np.empty(len(targets), dtype=np.complex128)
    wr = weights * rho
    for lo in range(0, len(targets), _CHUNK):
        block = targets[lo : lo + _CHUNK]
        out[lo : lo + _CHUNK] = (wr / (nodes[None, :] - block[:, None])).sum(axis=1)
    return out


def beurling_points_np(nodes, weights, rho, targets):
    out = np.empty(len(targets), dtype=np.complex128)
    wr = weights * rho
    for lo in range(0, len(targets), _CHUNK):
        diff = nodes[None, :] - targets[lo : lo + _CHUNK, None]
        out[lo : lo + _CHUNK] = (wr / (diff * diff)).sum(axis=1)
    return out


def series_exp_np(g: np.ndarray) -> np.ndarray:
    n = len(g)
    f = np.zeros(n, dtype=np.complex128)
    f[0] = np.exp(g[0])
    kg = np.arange(n) * g
    for m in range(1, n):
        # m * f_m = sum_{k=1..m} k g_k f_{m-k}
        f[m] = np.dot(kg[1 : m + 1], f[m - 1 :: -1][: m]) / m
    return f


# ---------------------------------------------------------------------------
# numba twins

if HAS_NUMBA:
    _njit = numba.njit(cache=True, fastmath=False)

    @_njit
    def horner_many_nb(coeffs, z):
        out = np.empty(z.shape[0], dtype=np.complex128)
        n = coeffs.shape[0]
        for i in range(z.shape[0]):
            acc = coeffs[n - 1]
            for k in range(n - 2, -1, -1):
                acc = acc * z[i] + coeffs[k]
            out[i] = acc
        return out

    @_njit
    def cauchy_sum_nb(nodes, weights, rho, targets):
        out = np.empty(targets.shape[0], dtype=np.complex128)
        for i in range(targets.shape[0]):
            acc = 0.0 + 0.0j
            w = targets[i]
            for q in range(nodes.shape[0]):
                acc += weights[q] * rho[q] / (nodes[q] - w)
            out[i] = acc
        return out

    @_njit
    def beurling_points_nb(nodes, weights, rho, targets):
        out = np.empty(targets.shape[0], dtype=np.complex128)
        for i in range(targets.shape[0]):
            acc = 0.0 + 0.0j
            w = targets[i]
            for q in range(nodes.shape[0]):
                d = nodes[q] - w
                acc += weights[q] * rho[q] / (d * d)
            out[i] = acc
        return out

    @_njit
    def series_exp_nb(g):
        n = g.shape[0]
        f = np.zeros(n, dtype=np.complex128)
        f[0] = np.exp(g[0])
        for m in range(1, n):
            acc = 0.0 + 0.0j
            for k in range(1, m + 1):
                acc += k * g[k] * f[m - k]
            f[m] = acc / m
        return f


if USING_NUMBA:
    horner_many = horner_many_nb
    cauchy_sum = cauchy_sum_nb
    beurling_points = beurling_points_nb
    series_exp = series_exp_nb
else:
    horner_many = horner_many_np
    cauchy_sum = cauchy_sum_np
    beurling_points = beurling_points_np
    series_exp = series_exp_np
