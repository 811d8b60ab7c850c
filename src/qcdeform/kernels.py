"""Hot numerical kernels, in plain numpy.

Polynomial evaluation at many points (``horner_many``), the Cauchy
quadrature sum over a set of nodes (``cauchy_sum``) and the exponential
recurrence of a power series (``series_exp``).  They live in one module so
that callers and profilers can find them by name; perfbench traces
``horner_many`` and ``cauchy_sum`` by these module attributes.

All kernels take plain contiguous complex128/float64 arrays.  The quadrature
sum omits the -1/pi prefactor of the transform; its one caller applies it,
and calls it only at targets far outside the support, where no node
coincides with a target.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "horner_many",
    "cauchy_sum",
    "series_exp",
]

_CHUNK = 256  # target-block size for the pair sum; keeps temporaries small


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


def series_exp(g: np.ndarray) -> np.ndarray:
    n = len(g)
    f = np.zeros(n, dtype=np.complex128)
    f[0] = np.exp(g[0])
    kg = np.arange(n) * g
    for m in range(1, n):
        # m * f_m = sum_{k=1..m} k g_k f_{m-k}
        f[m] = np.dot(kg[1 : m + 1], f[m - 1 :: -1][: m]) / m
    return f
