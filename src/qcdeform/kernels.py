"""Hot numerical kernels, in plain numpy.

Polynomial evaluation at many points (``horner_many``) and the Cauchy
quadrature sum over a set of nodes (``cauchy_sum``).  They live in one module
so that callers and profilers can find them by name; perfbench traces both
by these module attributes.

Both take plain contiguous complex128/float64 arrays.  The quadrature sum
omits the -1/pi prefactor of the transform; its one caller applies it, and
calls it only at targets far outside the support, where no node coincides
with a target.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "horner_many",
    "cauchy_sum",
]

# target-block size for the pair sum: one 16 x 6144 complex block of the
# default grid (1.5 MB) is allocated per call and reused by every block;
# 256-target blocks were 5x slower (25 MB)
_CHUNK = 16


def horner_many(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    acc = np.full(z.shape, coeffs[-1], dtype=np.complex128)
    for k in range(len(coeffs) - 2, -1, -1):
        acc = acc * z + coeffs[k]
    return acc


def cauchy_sum(nodes, weights, rho, targets):
    out = np.empty(len(targets), dtype=np.complex128)
    wr = weights * rho
    buf = np.empty((min(_CHUNK, len(targets)), len(nodes)), dtype=np.complex128)
    for lo in range(0, len(targets), _CHUNK):
        block = targets[lo : lo + _CHUNK]
        pairs = buf[: len(block)]
        np.subtract(nodes[None, :], block[:, None], out=pairs)
        np.divide(wr, pairs, out=pairs)
        out[lo : lo + _CHUNK] = pairs.sum(axis=1)
    return out
