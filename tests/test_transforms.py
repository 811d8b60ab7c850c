"""Closed-form oracles for the disk transforms and the area pairing."""

import numpy as np
import pytest

from qcdeform.errors import SingularKernelError
from qcdeform.transforms import (
    Density,
    Disk,
    asymptotic_T,
    beurling_Pi,
    cauchy_T,
    cauchy_chi,
    pairing,
)


def test_disk_validation_and_gap():
    with pytest.raises(ValueError):
        Disk(0j, -1.0)
    assert Disk(0j, 1.0).gap_to(3.0 + 0j, 1.0) == pytest.approx(1.0)


def test_pairing_of_constant_against_mean_value():
    # 1/(z - 3) is analytic on the disk, so its area integral is pi times
    # its center value and the pairing collapses to 1/3
    nu = Density.constant(Disk(0j, 1.0), 1.0, n_rad=16, n_ang=32)
    assert pairing(nu, (3.0 + 0j, 1)) == pytest.approx(1.0 / 3.0, abs=1e-13)


def test_pairing_gram_diagonal_log_closed_form():
    # conj(1/(z-3)) against 1/(z-3) integrates |z-3|^(-2); in polar form
    # the angular average is 2 pi/(9 - t^2), leaving -log(9/8)
    nu = Density.from_terms(Disk(0j, 1.0), [(1.0, 3.0, 1)], n_rad=24, n_ang=48)
    assert pairing(nu, (3.0 + 0j, 1)) == pytest.approx(-np.log(9.0 / 8.0), abs=1e-12)


def test_pairing_accepts_callables():
    nu = Density.constant(Disk(0j, 1.0), 2.0, n_rad=16, n_ang=32)
    got = pairing(nu, lambda z: (z - 3.0) ** -1)
    assert got == pytest.approx(2.0 / 3.0, abs=1e-13)


def test_cauchy_chi_closed_forms():
    disk = Disk(1.0 + 2.0j, 0.7)
    w = np.array([disk.center + 0.3 - 0.2j, disk.center + 1.5j])
    got = cauchy_chi(disk, w)
    assert got[0] == pytest.approx(np.conj(0.3 - 0.2j))
    assert got[1] == pytest.approx(0.49 / 1.5j)


def test_cauchy_T_of_indicator_in_all_regimes():
    disk = Disk(0.4 + 0.2j, 1.3)
    rho = Density.constant(disk, 1.0, n_rad=24, n_ang=64)
    rng = np.random.default_rng(7)
    # relative radii cover the interior, the multipole near band, and the
    # plain far sum on both sides of the 1.25 handover
    rel = np.array([0.15, 0.6, 0.95, 1.05, 1.2, 1.6, 3.0, 8.0])
    w = disk.center + rel * disk.radius * np.exp(2j * np.pi * rng.random(8))
    got = cauchy_T(rho, w)
    assert np.max(np.abs(got - cauchy_chi(disk, w))) < 1e-9


def test_wirtinger_derivatives_of_cauchy_transform():
    disk = Disk(-0.3 + 0.1j, 0.9)

    def fn(z):
        u = z - disk.center
        return np.exp(-np.abs(u) ** 2) * (1.0 + 0.5 * np.conj(u))

    rho = Density.from_function(disk, fn, n_rad=24, n_ang=64)
    w = disk.center + np.array([0.2 - 0.1j, -0.35j, 0.4 + 0.3j])
    h = 1e-5
    tx = (cauchy_T(rho, w + h) - cauchy_T(rho, w - h)) / (2.0 * h)
    ty = (cauchy_T(rho, w + 1j * h) - cauchy_T(rho, w - 1j * h)) / (2.0 * h)
    d_wbar = 0.5 * (tx + 1j * ty)
    d_w = 0.5 * (tx - 1j * ty)
    assert np.max(np.abs(d_wbar - rho.eval_points(w))) < 1e-7
    assert np.max(np.abs(d_w - beurling_Pi(rho, w))) < 1e-7


def test_asymptotic_model_is_exact_for_constant_density():
    disk = Disk(2.0 - 1.0j, 0.05)
    rho = Density.constant(disk, 1.5 + 0.25j, n_rad=8, n_ang=16)
    w = np.array([5.0 + 3.0j, -4.0j, 10.0 + 0j])
    assert np.allclose(cauchy_T(rho, w), asymptotic_T(rho, w), rtol=1e-12)


def test_asymptotic_model_error_shrinks_with_the_support():
    fn = lambda z: 1.0 + 5.0 * np.real(z)
    w = np.array([1.0 + 1.0j])
    errs = []
    for radius in (0.1, 0.02):
        rho = Density.from_function(Disk(0j, radius), fn, n_rad=12, n_ang=24)
        errs.append(abs(cauchy_T(rho, w)[0] - asymptotic_T(rho, w)[0]))
    assert errs[1] < errs[0] / 10.0
    assert errs[1] < 1e-3 * abs(asymptotic_T(rho, w)[0])


def test_beurling_of_indicator_vanishes_inside_and_decays_outside():
    disk = Disk(0.2j, 1.1)
    rho = Density.constant(disk, 2.0, n_rad=20, n_ang=48)
    w_in = disk.center + np.array([0.0, 0.3 - 0.4j, 0.7j])
    assert np.max(np.abs(beurling_Pi(rho, w_in))) < 1e-10
    w_out = disk.center + np.array([2.0 + 1.0j, -3.0j])
    want = -2.0 * disk.radius**2 / (w_out - disk.center) ** 2
    assert np.allclose(beurling_Pi(rho, w_out), want, atol=1e-10)


def test_pole_touching_support_raises():
    disk = Disk(0j, 1.0)
    with pytest.raises(SingularKernelError):
        Density.from_terms(disk, [(1.0, 0.5, 1)], n_rad=8, n_ang=16)
    nu = Density.constant(disk, 1.0, n_rad=8, n_ang=16)
    with pytest.raises(SingularKernelError):
        pairing(nu, (0.9, 2))


def test_density_algebra_tracks_terms_and_values():
    disk = Disk(0j, 1.0)
    a = Density.from_terms(disk, [(2.0, 3.0, 1)], n_rad=8, n_ang=16)
    b = Density.constant(disk, 1.0j, n_rad=8, n_ang=16)
    c = a + 2.0 * b
    assert c.terms == ((2.0 + 0j, 3.0 + 0j, 1), (2.0j, 0j, 0))
    assert np.allclose(c.values, a.values + 2.0j)
    with pytest.raises(ValueError):
        a + Density.constant(disk, 1.0, n_rad=10, n_ang=16)


def test_grid_only_density_interpolates_smooth_samples():
    disk = Disk(1.0 + 0j, 0.8)

    def fn(z):
        u = z - disk.center
        return u**2 + 0.3 * np.conj(u)

    full = Density.from_function(disk, fn, n_rad=12, n_ang=32)
    bare = Density.from_grid(disk, full.values.copy(), full.grid)
    assert bare.fn is None
    z = disk.center + np.array([0.1 + 0.2j, -0.5j, 0.6, 0.05 - 0.7j])
    assert np.max(np.abs(bare.eval_points(z) - fn(z))) < 1e-11


def test_density_rejects_malformed_inputs():
    disk = Disk(0j, 1.0)
    base = Density.constant(disk, 1.0, n_rad=8, n_ang=16)
    with pytest.raises(ValueError):
        Density.from_grid(disk, np.ones(5, dtype=complex), base.grid)
    with pytest.raises(ValueError):
        Density(disk, base.grid, base.values, lambda z: np.zeros_like(z), base.terms)


@pytest.mark.parametrize("n, m", [(0, 0), (3, 0), (0, 2), (2, 1), (5, 3), (1, 4)])
def test_interior_transforms_of_grid_only_monomials(n, m):
    # rho = u^n conj(u)^m with u = z - c; inside the disk
    #   T rho  = u^n conj(u)^(m+1)/(m+1) - [n >= m+1] R^(2m+2) u^(n-m-1)/(m+1)
    #   Pi rho = d/du of T rho
    # The density carries grid samples only, so both come from its modes.
    disk = Disk(0.3 - 0.4j, 1.2)
    R = disk.radius
    grid = Density.constant(disk, 0.0, n_rad=24, n_ang=64).grid
    u_grid = grid.nodes - disk.center
    rho = Density.from_grid(disk, u_grid**n * np.conj(u_grid) ** m, grid)
    assert rho.fn is None
    rng = np.random.default_rng(5)
    rel = np.concatenate([[0.0, 0.999], 0.98 * np.sqrt(rng.random(10))])
    u = R * rel * np.exp(2j * np.pi * rng.random(12))
    want_T = u**n * np.conj(u) ** (m + 1) / (m + 1)
    want_Pi = n * u ** max(n - 1, 0) * np.conj(u) ** (m + 1) / (m + 1)
    if n >= m + 1:
        want_T = want_T - R ** (2 * m + 2) * u ** (n - m - 1) / (m + 1)
        want_Pi = want_Pi - (n - m - 1) * R ** (2 * m + 2) * u ** max(n - m - 2, 0) / (m + 1)
    w = disk.center + u
    assert np.max(np.abs(cauchy_T(rho, w) - want_T)) < 1e-12
    assert np.max(np.abs(beurling_Pi(rho, w) - want_Pi)) < 1e-12


@pytest.mark.parametrize("n, m", [(0, 0), (3, 0), (0, 2), (2, 1), (5, 3), (1, 4)])
def test_exterior_transforms_of_grid_only_monomials(n, m):
    # rho = u^n conj(u)^m with u = z - c; outside the disk, with U = w - c,
    #   T rho  = R^(2m+2) / ((m+1) U^(m-n+1))              for m >= n,
    #   Pi rho = -(m-n+1) R^(2m+2) / ((m+1) U^(m-n+2))     for m >= n,
    # and both vanish for m < n.  The radii reach to within 1e-4 R of the
    # circle and straddle T's near/far handover at 1.25 R.
    disk = Disk(0.3 - 0.4j, 1.2)
    R = disk.radius
    grid = Density.constant(disk, 0.0).grid
    u_grid = grid.nodes - disk.center
    rho = Density.from_grid(disk, u_grid**n * np.conj(u_grid) ** m, grid)
    assert rho.fn is None
    rng = np.random.default_rng(7)
    rel = np.repeat([1.0001, 1.001, 1.01, 1.02, 1.05, 1.1, 1.2, 1.249, 1.251, 1.3, 2.0, 5.0], 3)
    U = R * rel * np.exp(2j * np.pi * rng.random(len(rel)))
    want_T = np.zeros_like(U)
    want_Pi = np.zeros_like(U)
    if m >= n:
        scale = R ** (2 * m + 2) / (m + 1)
        want_T = scale / U ** (m - n + 1)
        want_Pi = -(m - n + 1) * scale / U ** (m - n + 2)
    w = disk.center + U
    assert np.max(np.abs(cauchy_T(rho, w) - want_T)) < 1e-12
    assert np.max(np.abs(beurling_Pi(rho, w) - want_Pi)) < 1e-10
