"""Hot numerical kernels, in plain numpy, in one module so that callers and
profilers (perfbench) find them by these module attributes.

``horner_many`` evaluates a polynomial at many points: Horner's rule as it
stands on 16 coefficients or fewer, such as a map's f.  Longer arrays, such
as the hundreds of ring moments of ``cauchy_sum``, are cut into blocks of
16: a power table z^0 .. z^15 per point, built by ``cumprod``, gives every
block's sum in one matrix product, and Horner's rule runs over the blocks in
z^16.  Either way the error stays within a few ulps of sum |c_k| |z|^k.

``cauchy_sum`` is S(w) = sum_n W_n rho_n / (z_n - w) over nodes on concentric
equispaced rings, computed without forming the node-target pairs.  Its one
caller is ``deform._boundary_T``: one ring of M circle nodes with the
trapezoid weights R e_k / M.  Ring m has the nodes c + b_m omega^k,
omega = e^(2 pi i / n), so the power moments of the node measure are one FFT
per ring (the trapezoid rule's identity; Trefethen & Weideman, SIAM Review
56, 2014),

    M_q = sum_n W_n rho_n ((z_n - c) / s)^q = sum_m (b_m / s)^q n ifft(W_m rho_m)[q mod n],

every FFT index read with its alias, in units of the outermost ring's radius
s = max |b_m| so that no power overflows or underflows.  Off that ring,
S(w) = -x sum_q M_q (s x)^q with x = 1 / (w - c) (Greengard & Rokhlin,
J. Comput. Phys. 73, 1987), cut after the Q moments whose geometric rest
r^Q / (1 - r), r = s |x|, is below a quarter of the unit roundoff relative
to sum |W rho| |x|.  The work is O(nodes + Q targets).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "horner_many",
    "cauchy_sum",
]


# horner_many's block length: longer coefficient arrays are summed 16 at a time
_BLOCK = 16


def horner_many(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """sum_k coeffs_k z^k at every z, complex, in z's shape (module docstring)."""
    if len(coeffs) <= _BLOCK:
        acc = np.full(z.shape, coeffs[-1], dtype=np.complex128)
        for k in range(len(coeffs) - 2, -1, -1):
            acc = acc * z + coeffs[k]
        return acc
    z = np.asarray(z, dtype=np.complex128)
    table = np.empty((z.size, _BLOCK), dtype=np.complex128)   # z^0 .. z^15, one row per z
    table[:, 0] = 1.0
    table[:, 1:] = z.reshape(-1, 1)
    np.cumprod(table, axis=1, out=table)
    blocks = np.zeros((-(-len(coeffs) // _BLOCK), _BLOCK), dtype=np.complex128)
    blocks.flat[: len(coeffs)] = coeffs
    sums = table @ blocks.T                # sum of block j's 16 terms, in units of z^(16 j)
    step = table[:, -1] * z.ravel()        # z^16
    acc = sums[:, -1]
    for j in range(len(blocks) - 2, -1, -1):
        acc = acc * step + sums[:, j]
    return acc.reshape(z.shape)


def cauchy_sum(nodes, weights, rho, targets):
    """sum_n weights_n rho_n / (nodes_n - w) at each target w, from the ring
    moments (module docstring).  nodes, weights and rho are (rings, n)
    matrices, one ring per row, such as ``PolarGrid.values_matrix`` gives.

    ValueError when the nodes are not concentric equispaced rings, or when a
    target is not outside the outermost ring (the ratio r >= 1).
    """
    targets = np.asarray(targets, dtype=np.complex128)
    if targets.size == 0:
        return np.empty(targets.shape, dtype=np.complex128)
    nodes = np.asarray(nodes, dtype=np.complex128)
    if nodes.ndim != 2:
        raise ValueError("nodes must be an (n_rad, n_ang) matrix of concentric equispaced "
                         f"rings, got shape {nodes.shape}")
    n, eps = nodes.shape[1], np.finfo(float).eps
    c = nodes.mean()
    u = nodes - c
    omega = np.exp(2j * np.pi * np.arange(n) / n)
    b = (u @ omega.conj()) / n             # each ring's least-squares c + b omega^k
    off = float(np.max(np.abs(u - b[:, None] * omega)))
    scale = abs(c) + float(np.max(np.abs(u)))
    if off > 64 * eps * scale:
        raise ValueError(
            f"nodes are not concentric equispaced rings: a node lies {off:.3g} from "
            f"c + b_m omega^k, with c = {complex(c):.6g} the node mean")
    x = 1.0 / (targets - c)
    s = float(np.max(np.abs(b)))           # the outermost ring's radius
    r = s * float(np.max(np.abs(x)))
    if r >= 1.0:
        raise ValueError(
            f"a target lies inside the outermost ring: r = max ring radius / min |w - c| "
            f"= {r:.6g} >= 1, so the moment series does not converge")
    # least Q with r^Q / (1 - r) <= eps / 4
    Q = int(np.ceil(np.log(eps / 4 * (1 - r)) / np.log(r))) if r > 0.0 else 1
    spectra = n * np.fft.ifft(np.asarray(weights) * np.asarray(rho), axis=1)
    # moments in units of s: |b_m / s| <= 1, so no power overflows or underflows
    s = s if s > 0.0 else 1.0
    q = np.arange(Q)
    powers = np.empty((len(b), Q), dtype=np.complex128)   # (b_m / s)^q
    powers[:, 0] = 1.0
    powers[:, 1:] = (b / s)[:, None]
    np.cumprod(powers, axis=1, out=powers)
    moments = np.einsum("mq,mq->q", powers, spectra[:, q % n])
    return -x * horner_many(moments, s * x)
