"""Oracles for the mode-space Beurling operator and the disk Beltrami solver."""

import numpy as np
import pytest

from qcdeform.beltrami import build_map, solve_neumann, verify_map
from qcdeform.config import RunConfig
from qcdeform.errors import ConvergenceError, DilatationBoundError, DivergenceError
from qcdeform.quadrature import gauss_legendre_01, polar_grid
from qcdeform.transforms import Density, Disk, _mode_operators, beurling_Pi


def test_mode_matrix_rows_against_monomial_integrals():
    t, _ = gauss_legendre_01(16)
    shell = _mode_operators(16, 16)
    # Pi's shell rows are 2 pi |k - 1| times the shell integrals
    mats = 2.0 * np.pi * np.abs(np.fft.fftfreq(16, 1.0 / 16) - 1)[:, None, None] * shell
    # mode 0 on g = 1: (2 pi / s^2) int_0^s t dt = pi
    assert np.allclose(mats[0] @ np.ones(16), np.pi, atol=1e-12)
    # mode 1 reaches Pi only through the local term; T reads its shell,
    # on g = 1: s int_s^1 dt/s = 1 - s
    assert np.allclose(t * (shell[1] @ np.ones(16)), 1.0 - t, atol=1e-12)
    # mode 2 on g = t^2: 2 pi int_s^1 t dt = pi (1 - s^2)
    assert np.allclose(mats[2] @ t**2, np.pi * (1.0 - t**2), atol=1e-12)
    # mode -1 on g = t: (4 pi / s^3) int_0^s t^3 dt = pi s
    assert np.allclose(mats[-1] @ t, np.pi * t, atol=1e-12)


def test_beurling_on_grid_monomial_closed_forms():
    center, radius = 0.5j, 1.2
    disk = Disk(center, radius)
    grid = polar_grid(center, radius, 16, 32)
    u = grid.nodes - center
    zero = np.zeros(grid.size)
    cases = [
        (np.ones(grid.size), zero),
        (u, np.conj(u)),
        (u**2, 2.0 * np.abs(u) ** 2 - radius**2),
        (np.conj(u), zero),
        (np.conj(u) ** 2, zero),
    ]
    for values, want in cases:
        got = Density(disk, grid, values.astype(complex)).beurling_on_grid()
        assert np.max(np.abs(got - want)) < 1e-12


def test_mode_sweep_agrees_with_pointwise_transform():
    # one expansion, summed two ways: by inverse FFT on the rings and by
    # pointwise phases at the same nodes
    disk = Disk(0.3 - 0.2j, 0.9)

    def fn(z):
        u = (z - disk.center) / disk.radius
        return np.exp(u) * np.conj(u) + 0.25 * u**3 - 0.1

    rho = Density.from_function(disk, fn, n_rad=24, n_ang=64)
    got = rho.beurling_on_grid()
    want = beurling_Pi(rho, rho.grid.nodes)
    assert np.max(np.abs(got - want)) < 1e-8


def test_constant_dilatation_map_hits_piecewise_closed_form():
    disk = Disk(0.4 + 0.1j, 1.0)
    rng = np.random.default_rng(11)
    w_in = disk.center + 0.9 * np.sqrt(rng.random(20)) * np.exp(
        2j * np.pi * rng.random(20))
    t_out = np.concatenate([[1.05, 1.15], 1.6 + 2.0 * rng.random(18)])
    w_out = disk.center + t_out * np.exp(2j * np.pi * rng.random(20))
    for k in (0.05, -0.03 + 0.02j):
        mu = Density.constant(disk, k, n_rad=24, n_ang=64)
        qc = build_map(mu)
        assert qc.n_terms <= 3
        want_in = w_in + k * np.conj(w_in - disk.center)
        want_out = w_out + k * disk.radius**2 / (w_out - disk.center)
        assert np.max(np.abs(qc(w_in) - want_in)) < 1e-10
        assert np.max(np.abs(qc(w_out) - want_out)) < 1e-10


def test_map_scalar_call_returns_scalar():
    disk = Disk(0j, 0.5)
    qc = build_map(Density.constant(disk, 0.1, n_rad=12, n_ang=32))
    out = qc(2.0 + 0j)
    assert isinstance(out, complex)
    assert out == pytest.approx(2.0 + 0.1 * 0.25 / 2.0)


def test_dilatation_at_admissible_bound_rejected():
    disk = Disk(0j, 1.0)
    with pytest.raises(DilatationBoundError):
        solve_neumann(Density.constant(disk, 0.5, n_rad=8, n_ang=16))
    with pytest.raises(DilatationBoundError):
        solve_neumann(Density.constant(disk, 0.3, n_rad=8, n_ang=16),
                      config=RunConfig(kappa_max=0.25))


def test_nonsmooth_angular_density_reports_divergence():
    # e^{2 i theta} times the indicator has a log-singular transform at the
    # center, so the iteration genuinely leaves the bounded class
    grid = polar_grid(0j, 1.0, 16, 32)
    vals = 0.4 * np.exp(2j * np.angle(grid.nodes))
    mu = Density(Disk(0j, 1.0), grid, vals)
    with pytest.raises(DivergenceError):
        solve_neumann(mu)


def test_convergence_refusal_names_ratio_and_predicted_terms():
    # kappa_max 0.06 gives a budget of ceil(log 1e-12 / log 0.06) + 1 = 11
    # terms; the grid's sign pattern contracts at 0.0413, not at its sup 0.05,
    # yet its last ratio predicts the 12 terms it takes under a larger budget
    disk = Disk(0j, 1.0)
    mu = Density.from_function(
        disk, lambda z: 0.05 * np.sign(z.real) * np.sign(z.imag), n_rad=12, n_ang=24)
    with pytest.raises(ConvergenceError,
                       match=r"after 11 terms .*contraction ratio 0\.0413 predicts 12 terms"):
        solve_neumann(mu, config=RunConfig(kappa_max=0.06))
    assert solve_neumann(mu).n_terms == 12


def test_budget_follows_kappa_max():
    # the radial conjugate contracts at 0.289 and needs 22 terms to reach the
    # tolerance; kappa_max 0.5 grants 41
    disk = Disk(2.2 + 0j, 1.1)

    def fn(z):
        u = (z - disk.center) / disk.radius
        return 0.3 * np.conj(u) / np.abs(u)

    _, n_terms, residual = solve_neumann(Density.from_function(disk, fn))
    assert n_terms == 22
    assert residual <= 1e-12


@pytest.mark.parametrize("sup", [0.35, 0.40, 0.45, 0.49])
def test_dilatations_below_kappa_max_build_verified_maps(sup):
    disk = Disk(0.3 + 0.2j, 1.0)

    def fn(z):
        u = z - disk.center
        return sup * np.conj(u) / np.abs(u)

    qc = build_map(Density.from_function(disk, fn))
    assert 22 < qc.n_terms <= 41
    assert qc.neumann_residual <= 1e-12
    assert verify_map(qc).ok


def test_anti_analytic_dilatation_needs_two_terms_only():
    # the transform of an anti-analytic density vanishes on the disk, so the
    # second term is pure grid noise and the series stops there
    disk = Disk(1.5 + 0j, 0.8)
    mu = Density.from_function(
        disk, lambda z: 0.3 * np.conj(z - disk.center) / disk.radius,
        n_rad=20, n_ang=48)
    rho, n_terms, residual = solve_neumann(mu)
    assert n_terms == 2
    assert residual < 1e-12
    assert np.max(np.abs(rho.values - mu.values)) < 1e-12 * mu.sup


def test_term_dilatation_is_its_own_neumann_output():
    # conjugated pole terms are antiholomorphic on the disk: Pi mu = 0 there,
    # so the series stops at rho = mu, which keeps its terms
    disk = Disk(0.2 - 0.3j, 0.9)
    poles = disk.center + disk.radius * np.array([1.6, 1.7j, -1.8 + 0.1j])
    terms = [(0.1, poles[0], 1), (0.05j, poles[1], 2), (-0.07, poles[2], 3), (0.02, 0j, 0)]
    mu = Density.from_terms(disk, terms)
    rho, n_terms, residual = solve_neumann(mu)
    assert (n_terms, residual) == (1, 0.0)
    assert rho is mu and rho.terms == mu.terms
    assert verify_map(build_map(mu)).ok
    # the sup is still checked first
    scaled = Density.from_terms(disk, [(0.51 * c / mu.sup, p, k) for c, p, k in terms])
    with pytest.raises(DilatationBoundError):
        solve_neumann(scaled)
    with pytest.raises(DilatationBoundError):
        solve_neumann(mu, RunConfig(kappa_max=0.99 * mu.sup))


def test_verify_map_passes_for_smooth_dilatation():
    disk = Disk(1.5 + 0j, 0.8)
    mu = Density.from_function(
        disk, lambda z: 0.25 * np.conj(z - disk.center) / disk.radius,
        n_rad=20, n_ang=48)
    rep = verify_map(build_map(mu), n_probes=8, seed=3)
    assert rep.ok
    assert rep.dilatation_error < 5e-3
    assert rep.conformality_error < 1e-8
    assert rep.jacobian_min > 0.0


def test_verify_map_passes_for_multi_mode_neumann_output():
    # three conjugated pole terms of orders 1-3, poles 1.6-1.8 radii out, give
    # a dilatation with many angular modes; rho from the Neumann series is
    # grid samples only, so every interior map value comes from its modes
    disk = Disk(0.2 - 0.3j, 0.9)
    poles = disk.center + disk.radius * np.array([1.6, 1.7j, -1.8 + 0.1j])
    terms = [(1.0, poles[0], 1), (0.5j, poles[1], 2), (-0.7, poles[2], 3)]
    shape = Density.from_terms(disk, terms)
    mu = Density.from_terms(disk, [(0.3 * c / shape.sup, p, k) for c, p, k in terms])
    rep = verify_map(build_map(mu))
    assert rep.ok
    assert rep.dilatation_error <= 1e-6
    assert rep.conformality_error <= 1e-8
    assert rep.jacobian_min > 0.0


class _RowByRow:
    """The map of ``qc`` evaluated one shift at a time, counting calls."""

    def __init__(self, qc):
        self.qc, self.mu, self.calls = qc, qc.mu, 0

    def __call__(self, w):
        self.calls += 1
        return np.stack([self.qc(row) for row in w])


@pytest.mark.parametrize("n_probes", [3, 12])
def test_batched_verify_map_matches_one_call_per_shift(n_probes):
    # each point's value is independent of the other targets, so the
    # (4, n) batch reproduces the per-shift calls bit for bit
    disk = Disk(0.2 - 0.3j, 0.9)
    poles = disk.center + disk.radius * np.array([1.6, 1.7j, -1.8 + 0.1j])
    terms = [(0.1, poles[0], 1), (0.05j, poles[1], 2), (-0.07, poles[2], 3)]
    for mu in (Density.from_terms(disk, terms), Density.constant(disk, 0.2 - 0.1j)):
        qc = build_map(mu)
        row_by_row = _RowByRow(qc)
        assert verify_map(qc, n_probes, seed=4) == verify_map(row_by_row, n_probes, seed=4)
        assert row_by_row.calls == 2    # one per probe set
