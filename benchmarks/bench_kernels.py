"""Time the numba kernels against their pure-numpy twins.

Run as `python3 benchmarks/bench_kernels.py [--repeats N]`.  Imports the
kernels module with numba enabled (do not set QCDEFORM_NO_NUMBA here); both
variants of each kernel are reachable directly, so the comparison runs in a
single process.  Reported times are the best of N repeats after a warmup
call that also covers JIT compilation.
"""

import argparse
import time

import numpy as np

from qcdeform import kernels
from qcdeform.quadrature import polar_grid


def best_of(fn, args, repeats):
    fn(*args)  # warmup; compiles the numba variant on first call
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - t0)
    return min(times)


def cases():
    rng = np.random.default_rng(0)
    grid = polar_grid(0.1 + 0.2j, 1.3, 48, 128)
    rho = np.exp(-np.abs(grid.nodes - 0.1 - 0.2j) ** 2) * (1 + 0.3j * grid.nodes)
    # the pair sums serve only targets outside the support disk
    targets = 0.1 + 0.2j + 1.3 * (1.3 + 1.7 * rng.random(2048)) \
        * np.exp(2j * np.pi * rng.random(2048))

    coeffs = (0.9 ** np.arange(4097) * rng.standard_normal(4097)).astype(np.complex128)
    z = 0.95 * np.exp(2j * np.pi * rng.random(4096)).astype(np.complex128)
    g = (0.5 ** np.arange(2048) * rng.standard_normal(2048)).astype(np.complex128)

    return [
        ("horner_many", "4097 coeffs x 4096 pts", (coeffs, z)),
        ("cauchy_sum", "6144 nodes x 2048 tgts", (grid.nodes, grid.weights, rho, targets)),
        ("beurling_points", "6144 nodes x 2048 tgts", (grid.nodes, grid.weights, rho, targets)),
        ("series_exp", "2048 coefficients", (g,)),
    ]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args()

    if not kernels.HAS_NUMBA:
        print("numba is not importable; only the numpy path exists on this host")
    print(f"numba active: {kernels.USING_NUMBA}")
    header = f"{'kernel':<16} {'size':<24} {'numpy':>10} {'numba':>10} {'speedup':>8}"
    print(header)
    print("-" * len(header))
    for name, size, argv in cases():
        t_np = best_of(getattr(kernels, name + "_np"), argv, args.repeats)
        row = f"{name:<16} {size:<24} {t_np * 1e3:>8.2f}ms"
        if kernels.HAS_NUMBA:
            t_nb = best_of(getattr(kernels, name + "_nb"), argv, args.repeats)
            row += f" {t_nb * 1e3:>8.2f}ms {t_np / t_nb:>7.1f}x"
        print(row)


if __name__ == "__main__":
    main()
