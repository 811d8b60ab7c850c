"""``kernels.cauchy_sum`` against the node-target pair sum it replaces."""

import numpy as np
import pytest

from qcdeform import kernels
from qcdeform.transforms import Density, Disk


def _pair_sum(nodes, weights, rho, targets):
    """The reference: sum_n weights_n rho_n / (nodes_n - w), pair by pair, in
    blocks of 16 targets."""
    nodes, wr = np.ravel(nodes), np.ravel(weights) * np.ravel(rho)
    out = np.empty(len(targets), dtype=np.complex128)
    for lo in range(0, len(targets), 16):
        block = targets[lo : lo + 16]
        out[lo : lo + 16] = (wr / (nodes[None, :] - block[:, None])).sum(axis=1)
    return out


def _density(disk: Disk, kind: str, n_rad: int, n_ang: int) -> Density:
    poles = disk.center + disk.radius * np.array([1.8, -2.1j])
    mu = Density.from_terms(disk, [(0.2, poles[0], 1), (0.1j, poles[1], 2)], n_rad, n_ang)
    if kind == "grid":
        u = (mu.grid.nodes - disk.center) / disk.radius
        mu = Density.from_grid(disk, 0.3 * np.exp(-np.abs(u) ** 2) * (1 + np.conj(u)) ** 2,
                               mu.grid)
    return mu


def _rings(mu: Density, weights: np.ndarray) -> list:
    return [mu.grid.values_matrix(a) for a in (mu.grid.nodes, weights, mu.values)]


@pytest.mark.parametrize("kind", ["terms", "grid"])
@pytest.mark.parametrize("disk", [Disk(0.3 - 0.4j, 1.2), Disk(11.7, 10.0), Disk(22.3, 20.0),
                                  Disk(190.0, 80.0), Disk(1e-3j, 1e-3)],
                         ids=["near", "wide", "wider", "large", "tiny"])
@pytest.mark.parametrize("shape", [(12, 24), (24, 64), (48, 128), (96, 256)],
                         ids=lambda s: f"{s[0]}x{s[1]}")
def test_ring_moments_match_the_pair_sum(shape, disk, kind):
    # the moments alias once q >= n_ang (Q is about 170 at 1.25 R), so the
    # coarse grids check that every FFT index is read with its alias; the
    # weights vary along each ring, so no ring is a plain trapezoid rule; at
    # radius 80, 80^Q overflows and at 1e-3, 1e-3^Q underflows unless the
    # moments are taken in units of the outermost ring
    mu = _density(disk, kind, *shape)
    weights = mu.grid.weights * np.tile(1.0 + 0.3 * np.cos(3 * mu.grid.angles), shape[0])
    rng = np.random.default_rng(7)
    rel = np.geomspace(1.25, 100.0, 40)
    w = disk.center + disk.radius * rel * np.exp(2j * np.pi * rng.random(len(rel)))
    want = _pair_sum(mu.grid.nodes, weights, mu.values, w)
    got = kernels.cauchy_sum(*_rings(mu, weights), w)
    assert np.max(np.abs(got - want) / np.abs(want)) < 1e-14


def test_target_inside_the_outermost_ring_is_refused_with_the_ratio():
    disk = Disk(2.2, 1.1)
    mu = _density(disk, "terms", 24, 64)
    w = disk.center + disk.radius * np.array([3.0, 0.95j])
    r = mu.grid.t[-1] / (0.95 * disk.radius)
    with pytest.raises(ValueError, match=f"r = .* = {r:.6g} >= 1"):
        kernels.cauchy_sum(*_rings(mu, mu.grid.weights), w)


@pytest.mark.parametrize("bend", ["node", "ring", "flat"])
def test_nodes_off_concentric_equispaced_rings_are_refused(bend):
    disk = Disk(2.2, 1.1)
    mu = _density(disk, "terms", 24, 64)
    nodes, weights, rho = _rings(mu, mu.grid.weights)
    nodes = nodes.copy()
    if bend == "node":
        nodes[5, 7] += 1e-9
    elif bend == "ring":
        nodes[3] += 1e-3
    else:
        nodes = nodes.ravel()
    w = disk.center + 3.0 * disk.radius * np.exp(1j * np.arange(5.0))
    with pytest.raises(ValueError, match="concentric equispaced rings"):
        kernels.cauchy_sum(nodes, weights, rho, w)


def test_empty_target_set_gives_an_empty_result():
    # wide disks leave no cross-check sample 1.25 radii out
    mu = _density(Disk(2.2, 1.1), "grid", 24, 64)
    out = kernels.cauchy_sum(*_rings(mu, mu.grid.weights), np.empty(0, dtype=np.complex128))
    assert out.shape == (0,) and out.dtype == np.complex128
