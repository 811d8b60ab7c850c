"""Time the hot kernels of qcdeform.kernels.

Run as `python3 benchmarks/bench_kernels.py [--repeats N]`.  Prints one row
per kernel: its name, the problem size and the best of N timed calls after
one warmup call.
"""

import argparse
import time

import numpy as np

from qcdeform import kernels
from qcdeform.quadrature import polar_grid


def best_of(fn, args, repeats):
    fn(*args)  # warmup
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

    header = f"{'kernel':<16} {'size':<24} {'best':>10}"
    print(header)
    print("-" * len(header))
    for name, size, argv in cases():
        t = best_of(getattr(kernels, name), argv, args.repeats)
        print(f"{name:<16} {size:<24} {t * 1e3:>8.2f}ms")


if __name__ == "__main__":
    main()
