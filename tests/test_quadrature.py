"""Barycentric radial interpolation on the Gauss-Legendre ring radii."""

import numpy as np
import pytest

from qcdeform.quadrature import (
    barycentric_matrix,
    barycentric_weights,
    gauss_legendre_01,
    polar_grid,
)
from qcdeform.transforms import Density, Disk


def _product_weights(x):
    # w_j = 1 / prod_{i != j} (x_j - x_i) * 4 / span, one node at a time
    scale = 4.0 / (x.max() - x.min())
    w = np.ones(len(x))
    for j in range(len(x)):
        d = (x[j] - x) * scale
        d[j] = 1.0
        w[j] = 1.0 / d.prod()
    return w


def _node_sets(radius, n_rad=48):
    t = radius * gauss_legendre_01(n_rad)[0]
    return t, np.concatenate([[0.0], t])


@pytest.mark.parametrize("radius", [1.0, 20.0])
def test_barycentric_weights_equal_the_product_formula(radius):
    for x in _node_sets(radius):
        np.testing.assert_array_equal(barycentric_weights(x), _product_weights(x))


@pytest.mark.parametrize("radius", [1.0, 20.0])
def test_barycentric_matrix_reproduces_top_degree_polynomials(radius):
    n_rad = 48
    rng = np.random.default_rng(5)
    coeffs = rng.standard_normal(n_rad)      # Legendre degree n_rad - 1 on [0, radius]
    p = lambda s: np.polynomial.legendre.legval(2.0 * s / radius - 1.0, coeffs)
    xq = radius * rng.random(200)
    for x in _node_sets(radius, n_rad):
        err = np.max(np.abs(barycentric_matrix(x, xq) @ p(x) - p(xq)))
        assert err <= 1e-12 * np.max(np.abs(p(xq)))
        # queries on the nodes select the node's own value
        B = barycentric_matrix(x, x[[0, 7, -1]])
        np.testing.assert_array_equal(B, np.eye(len(x))[[0, 7, len(x) - 1]])


def test_polar_grid_is_shared_per_disk_and_resolution_and_read_only():
    disk = Disk(0.3 - 0.4j, 1.1)
    a = Density.from_terms(disk, [(1.0, 3.0 + 0j, 1)], 16, 32)
    b = Density.from_function(disk, np.abs, 16, 32)
    assert a.grid is b.grid is polar_grid(disk.center, disk.radius, 16, 32)
    assert polar_grid(disk.center, disk.radius, 16, 64) is not a.grid
    for arr in (a.grid.nodes, a.grid.weights, a.grid.t, a.grid.angles):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0
