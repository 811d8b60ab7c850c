"""Hot numerical kernels, in plain numpy.

Polynomial evaluation at many points (``horner_many``) and the Cauchy
quadrature sum over the nodes of a polar grid (``cauchy_sum``).  They live in
one module so that callers and profilers can find them by name; perfbench
traces both by these module attributes.

Both take plain complex128/float64 arrays.  The quadrature sum omits the
-1/pi prefactor of the transform.  Its one caller is the sampled cross-check
of ``deform`` (``deform._sampled_check``), which applies the prefactor and
calls it, by module attribute, only at samples 1.25 radii or more from the
support's center; the transforms themselves use the multipole series there.

``cauchy_sum`` is the grid's own discrete sum, S(w) = sum_n W_n rho_n / (z_n - w),
computed without forming the node-target pairs.  The grid's rings are
equispaced: ring m has the nodes c + b_m omega^k, omega = e^(2 pi i / n), so
the power moments of the grid measure are one FFT per ring (the trapezoid
rule's identity; Trefethen & Weideman, SIAM Review 56, 2014),

    M_q = sum_n W_n rho_n ((z_n - c) / s)^q = sum_m (b_m / s)^q n ifft(W_m rho_m)[q mod n],

every FFT index read with its alias, scaled by the outermost ring's radius
s = max |b_m| so that no power overflows or underflows.  Off the outermost
ring, S(w) = -x sum_q M_q (s x)^q with x = 1 / (w - c) (Greengard & Rokhlin,
J. Comput. Phys. 73, 1987), cut after the Q moments whose geometric rest
r^Q / (1 - r), r = s |x|, is below a quarter of the unit roundoff relative
to sum |W rho| |x|.  The work is O(n_rad n_ang + Q targets).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "horner_many",
    "cauchy_sum",
]


def horner_many(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    acc = np.full(z.shape, coeffs[-1], dtype=np.complex128)
    for k in range(len(coeffs) - 2, -1, -1):
        acc = acc * z + coeffs[k]
    return acc


def cauchy_sum(nodes, weights, rho, targets):
    """sum_n weights_n rho_n / (nodes_n - w) at each target w, from the ring
    moments (module docstring).  nodes, weights and rho are (n_rad, n_ang)
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
    powers = (np.abs(b) / s)[:, None] ** q * np.exp(1j * np.angle(b)[:, None] * q)
    moments = np.einsum("mq,mq->q", powers, spectra[:, q % n])
    return -x * horner_many(moments, s * x)
