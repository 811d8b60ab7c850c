"""Hot numerical kernels, in plain numpy.

Polynomial evaluation at many points (``horner_many``), the Cauchy and
Beurling quadrature sums over a set of nodes (``cauchy_sum``,
``beurling_points``) and the exponential recurrence of a power series
(``series_exp``).  They live in one module so that callers and profilers
can find them by name; ``benchmarks/bench_kernels.py`` times each of them.

All kernels take plain contiguous complex128/float64 arrays.  The quadrature
sums here omit the -1/pi prefactor of the transforms; callers apply it, and
call them only at targets outside the support, where no node coincides with
a target.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "horner_many",
    "cauchy_sum",
    "beurling_points",
    "series_exp",
]

_CHUNK = 256  # target-block size for the pair sums; keeps temporaries small


def horner_many(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    acc = np.full(z.shape, coeffs[-1], dtype=np.complex128)
    for k in range(len(coeffs) - 2, -1, -1):
        acc = acc * z + coeffs[k]
    return acc


def cauchy_sum(nodes, weights, rho, targets):
    out = np.empty(len(targets), dtype=np.complex128)
    wr = weights * rho
    for lo in range(0, len(targets), _CHUNK):
        block = targets[lo : lo + _CHUNK]
        out[lo : lo + _CHUNK] = (wr / (nodes[None, :] - block[:, None])).sum(axis=1)
    return out


def beurling_points(nodes, weights, rho, targets):
    out = np.empty(len(targets), dtype=np.complex128)
    wr = weights * rho
    for lo in range(0, len(targets), _CHUNK):
        diff = nodes[None, :] - targets[lo : lo + _CHUNK, None]
        out[lo : lo + _CHUNK] = (wr / (diff * diff)).sum(axis=1)
    return out


def series_exp(g: np.ndarray) -> np.ndarray:
    n = len(g)
    f = np.zeros(n, dtype=np.complex128)
    f[0] = np.exp(g[0])
    kg = np.arange(n) * g
    for m in range(1, n):
        # m * f_m = sum_{k=1..m} k g_k f_{m-k}
        f[m] = np.dot(kg[1 : m + 1], f[m - 1 :: -1][: m]) / m
    return f
