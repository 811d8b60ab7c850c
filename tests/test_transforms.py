"""Closed-form oracles for the disk transforms and the area pairing."""

import numpy as np
import pytest

from qcdeform import kernels
from qcdeform.errors import SingularKernelError
from qcdeform.quadrature import barycentric_matrix, gauss_legendre_01
from qcdeform.transforms import (
    Density,
    Disk,
    _mode_operators,
    _signed_freqs,
    beurling_Pi,
    cauchy_T,
    cauchy_chi,
    pairing,
    terms_sup,
)


def test_disk_validation_and_gap():
    with pytest.raises(ValueError):
        Disk(0j, -1.0)


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
    # relative radii cover the interior and the multipole series from near
    # the circle to far out
    rel = np.array([0.15, 0.6, 0.95, 1.05, 1.2, 1.6, 3.0, 8.0, 100.0])
    w = disk.center + rel * disk.radius * np.exp(2j * np.pi * rng.random(9))
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
    with pytest.raises(ValueError):
        pairing(nu, (3.0, 0))


def test_grid_only_density_interpolates_smooth_samples():
    disk = Disk(1.0 + 0j, 0.8)

    def fn(z):
        u = z - disk.center
        return u**2 + 0.3 * np.conj(u)

    full = Density.from_function(disk, fn, n_rad=12, n_ang=32)
    bare = Density(disk, full.grid, full.values.copy())
    assert bare.terms is None
    z = disk.center + np.array([0.1 + 0.2j, -0.5j, 0.6, 0.05 - 0.7j])
    assert np.max(np.abs(bare.eval_points(z) - fn(z))) < 1e-11


def test_function_density_evaluates_like_its_grid_samples():
    disk = Disk(1.0 + 0j, 0.8)
    full = Density.from_function(disk, lambda z: np.exp(1j * z) + np.conj(z) ** 2,
                                 n_rad=12, n_ang=32)
    bare = Density(disk, full.grid, full.values.copy())
    z = disk.center + np.array([0.0, 0.1 + 0.2j, -0.5j, 0.6, 0.05 - 0.79j])
    assert np.array_equal(full.eval_points(z), bare.eval_points(z))


def test_density_rejects_malformed_inputs():
    disk = Disk(0j, 1.0)
    base = Density.constant(disk, 1.0, n_rad=8, n_ang=16)
    with pytest.raises(ValueError):
        Density(disk, base.grid, np.ones(5, dtype=complex))


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
    rho = Density(disk, grid, u_grid**n * np.conj(u_grid) ** m)
    assert rho.terms is None
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
    # circle and run out to 5 R on the one multipole series.
    disk = Disk(0.3 - 0.4j, 1.2)
    R = disk.radius
    grid = Density.constant(disk, 0.0).grid
    u_grid = grid.nodes - disk.center
    rho = Density(disk, grid, u_grid**n * np.conj(u_grid) ** m)
    assert rho.terms is None
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


@pytest.mark.parametrize("kind", ["terms", "grid"])
def test_exterior_series_matches_the_direct_grid_sum(kind):
    # from 1.25 radii out the plain weighted sum over the 48 x 128 grid, taken
    # ring by ring from its power moments, is spectrally accurate; the
    # multipole series must agree with it there
    disk = Disk(0.3 - 0.4j, 1.2)
    poles = disk.center + disk.radius * np.array([1.8, -2.1j])
    mu = Density.from_terms(disk, [(0.2, poles[0], 1), (0.1j, poles[1], 2)], 48, 128)
    if kind == "grid":
        u = mu.grid.nodes - disk.center
        mu = Density(disk, mu.grid, 0.3 * np.exp(-np.abs(u) ** 2) * (1 + np.conj(u)) ** 2)
    rng = np.random.default_rng(3)
    rel = np.geomspace(1.25, 100.0, 40)
    w = disk.center + disk.radius * rel * np.exp(2j * np.pi * rng.random(len(rel)))
    rings = map(mu.grid.values_matrix, (mu.grid.nodes, mu.grid.weights, mu.values))
    direct = -kernels.cauchy_sum(*rings, w) / np.pi
    assert np.max(np.abs(cauchy_T(mu, w) - direct)) < 1e-14


def test_taylor_coeffs_of_indicator_closed_form():
    # T chi = R^2 / (w - c) outside, so at c0 = 0 its Taylor coefficients
    # are -R^2 c^-(m+1); the translation reaches m = 256 at rounding level
    disk = Disk(2.2 + 0j, 1.1)
    got = Density.constant(disk, 1.0).taylor_coeffs(0j, 256)
    want = -disk.radius**2 * disk.center ** -(np.arange(257) + 1.0)
    assert np.max(np.abs(got - want) / np.abs(want)) < 1e-13


def test_taylor_coeffs_match_pairings_of_a_neumann_output():
    # L_m is the pairing of rho with (zeta - c0)^-(m+1); on a grid-only
    # density the plain weighted grid sum of that pairing is accurate to
    # rounding at these low orders
    from qcdeform.beltrami import build_map

    disk = Disk(2.2 + 0j, 1.1)
    mu = Density.from_terms(disk, [(0.05, 0j, 1), (0.03j, 0j, 2), (0.02, 0j, 3),
                                   (-0.01, 0j, 4)])
    # mu's samples without its terms: the grid Neumann solve's output
    qc = build_map(Density(disk, mu.grid, mu.values))
    rho = qc.rho
    assert rho.terms is None and qc.n_terms >= 2
    got = rho.taylor_coeffs(0j, 30)
    grid = rho.grid
    want = np.array([-np.sum(grid.weights * rho.values * grid.nodes ** -(m + 1.0)) / np.pi
                     for m in range(31)])
    assert np.max(np.abs(got - want)) < 1e-16


def test_taylor_coeffs_refuse_a_point_on_the_disk():
    with pytest.raises(SingularKernelError):
        Density.constant(Disk(0j, 1.0), 1.0, n_rad=8, n_ang=16).taylor_coeffs(0.5, 4)


def test_sup_of_term_density_is_certified_on_the_circle():
    # |conj(z^-4)| peaks at 1.1^-4 = 0.683013 where the circle meets the
    # real axis; the grid misses that point and reads 0.68134
    mu = Density.from_terms(Disk(2.2 + 0j, 1.1), [(1.0, 0j, 4)])
    peak = 1.1**-4
    assert float(np.max(np.abs(mu.values))) == pytest.approx(0.68134, abs=1e-5)
    assert peak <= mu.sup <= peak * (1 + 1e-3)
    grid_only = Density(mu.disk, mu.grid, mu.values)
    assert grid_only.sup == pytest.approx(0.68134, abs=1e-5)


@pytest.mark.parametrize("n_ang", [4, 8, 16])
def test_terms_sup_bounds_a_dense_circle_max_near_the_pole(n_ang):
    # the derivative slack must cover poles just off the circle, where the
    # samples are sparse against the peak: |conj((z - p)^-k)| peaks at
    # (|p - c| - R)^-k, so the bound needs the nearest circle point there
    disk = Disk(0.3 - 0.2j, 1.1)
    circle = disk.center + disk.radius * np.exp(2j * np.pi * np.arange(20000) / 20000)
    ratios = []
    for k in (1, 2, 3, 5):
        for gap in (1.02, 1.05, 1.1, 1.2, 1.5):
            for angle in np.arange(6) * (2 * np.pi / 6) + 0.1:
                pole = disk.center + gap * disk.radius * np.exp(1j * angle)
                dense = np.max(np.abs(circle - pole) ** -k)
                ratios.append(terms_sup(disk, [(1.0, pole, k)], n_ang) / dense)
    assert min(ratios) >= 1.0


def test_real_mode_products_match_the_complex_products():
    # poles 1.6-2.0 radii out keep most angular modes, of both signs since
    # the density is neither holomorphic nor antiholomorphic (Pi of the
    # conjugated terms alone vanishes inside).  The operator products read
    # back from the expansions, real operators applied to the real and
    # imaginary parts side by side, must match the complex product of the
    # gathered operators at rounding level: relative to |op| |g|, since the
    # shell integrals cancel
    disk = Disk(0.3 - 0.2j, 1.2)
    poles = disk.center + disk.radius * np.array([1.6, 1.8j, -2.0 + 0.2j])
    mu = Density.from_function(disk, lambda z: 0.4 / (z - poles[0]) + np.conj(
        0.3j / (z - poles[1]) ** 2 - 0.2 / (z - poles[2]) ** 3))
    t, modes, freqs = mu._expansion("density")
    assert len(freqs) >= 60
    t01, w01 = gauss_legendre_01(mu.grid.n_rad)
    shell = _mode_operators(mu.grid.n_rad, mu.grid.n_ang)[freqs.astype(int) % mu.grid.n_ang]
    g = modes.T[..., None]
    want = (shell @ g)[..., 0].T
    # each kind scales the shell integrals by a factor per radius and mode
    read_back = {"cauchy": (1, lambda p: p[1:] / disk.radius,
                            np.where(freqs >= 1, -2.0, 2.0) * t01[:, None]),
                 "beurling": (2, lambda p: (modes - p) / 2.0, np.abs(freqs - 1)[None, :])}
    for kind, (shift, product_of, factor) in read_back.items():
        _, profiles, out_freqs = mu._expansion(kind)
        np.testing.assert_array_equal(out_freqs, freqs - shift)
        scale = np.max(np.abs(factor) * (np.abs(shell) @ np.abs(g))[..., 0].T)
        assert np.max(np.abs(product_of(profiles) - factor * want)) <= 1e-15 * scale
    # T at radius 0 keeps mode 1 only: -2 int_0^1 g_1(t) dt
    at_0 = mu._expansion("cauchy")[1][0] / disk.radius
    np.testing.assert_allclose(at_0, np.where(freqs == 1, -2.0 * (w01 @ modes), 0.0),
                               rtol=0, atol=1e-15 * np.max(2.0 * w01 @ np.abs(modes)))


def _inward_rows(n_rad, n_ang):
    """The k <= 0 modes and their shell rows: the inward shells
    D_k(s) = int_0^s g(t) (t/s)^{2-k} dt/t at the radial nodes."""
    t, _ = gauss_legendre_01(n_rad)
    ks = _signed_freqs(n_ang)
    dn = ks <= 0
    return t, ks[dn][:, None], _mode_operators(n_rad, n_ang)[dn]


def test_inward_shells_match_a_composite_rule_on_a_random_profile():
    # reference: 64 Gauss-Legendre panels of 20 nodes in t on [0, s], applied
    # to the same degree-47 interpolant of a seeded random profile
    n_rad, n_ang = 48, 128
    t, k, rows = _inward_rows(n_rad, n_ang)
    g = np.random.default_rng(20).standard_normal(n_rad)
    x, w = gauss_legendre_01(20)
    ref = np.empty((len(k), n_rad))
    for i, s in enumerate(t):
        edges = np.linspace(0.0, s, 65)
        tq = (edges[:-1, None] + np.diff(edges)[:, None] * x).ravel()
        wq = (np.diff(edges)[:, None] * w).ravel()
        ref[:, i] = (wq * (tq / s) ** (2 - k) / tq) @ (barycentric_matrix(t, tq) @ g)
    scale = np.max(np.abs(ref), axis=1)
    assert np.all(np.max(np.abs(rows @ g - ref), axis=1) <= 1e-12 * scale)


def test_outward_shells_match_a_composite_rule_on_a_random_profile():
    # reference: 400 uniform panels of 20 Gauss nodes in log radius on [s, 1],
    # applied to the same degree-47 interpolant of a seeded random profile;
    # its steepest part, near t = 1, sets the panels the smallest s needs
    n_rad, n_ang = 48, 128
    t, _ = gauss_legendre_01(n_rad)
    ks = _signed_freqs(n_ang)
    up = ks >= 1
    k, rows = ks[up][:, None], _mode_operators(n_rad, n_ang)[up]
    g = np.random.default_rng(0).standard_normal(n_rad)
    x, w = np.polynomial.legendre.leggauss(20)
    ref = np.empty((len(k), n_rad))
    for i, s in enumerate(t):
        edges = np.log(s) * (1.0 - np.arange(401) / 400)
        half = 0.5 * np.diff(edges)
        lam = (edges[:-1, None] + half[:, None] * (1.0 + x)).ravel()
        ref[:, i] = ((half[:, None] * w).ravel() * (s / np.exp(lam)) ** (k - 2)) @ (
            barycentric_matrix(t, np.exp(lam)) @ g)
    scale = np.max(np.abs(ref), axis=1)
    assert np.all(np.max(np.abs(rows @ g - ref), axis=1) <= 1e-12 * scale)


@pytest.mark.parametrize("n_rad, n_ang", [(48, 128), (24, 64)])
def test_inward_shells_of_monomials_are_exact(n_rad, n_ang):
    # D_k(s) of t^p is s^p / (p + 2 - k); p = n_rad - 1 is the top degree
    # the radial interpolant represents
    t, k, rows = _inward_rows(n_rad, n_ang)
    for p in (0, 1, 20, n_rad - 1):
        want = t**p / (p + 2 - k)
        scale = np.max(np.abs(want), axis=1)
        assert np.all(np.max(np.abs(rows @ t**p - want), axis=1) <= 1e-12 * scale)


@pytest.mark.parametrize("disk", [Disk(2.2 + 0j, 1.1), Disk(3.0 + 1.0j, 0.3),
                                  Disk(-0.5 + 4.0j, 2.5), Disk(22.3 + 0j, 20.0)])
def test_term_density_closed_form_matches_the_grid_engine(disk):
    # T and Pi of a term density come from its terms (``_exterior_terms``);
    # the same samples without the terms go through the mode engine, which
    # resolves them at 96x512.  Poles of orders 3, 2, 1 off the disk, a
    # constant with its pole at the center, a conjugated quadratic inside
    c, R = disk.center, disk.radius
    terms = [(0.3 + 0.1j, c + 1.7 * R * np.exp(0.4j), 3),
             (0.02 - 0.05j, c + 1.9 * R * np.exp(2.1j), 2),
             (0.1j, c + 1.6 * R * np.exp(-2.5j), 1), (0.1, c, 0), (0.05j, c + 0.2 * R, -2)]
    mu = Density.from_terms(disk, terms, n_rad=96, n_ang=512)
    grid = Density(disk, mu.grid, mu.values)
    rng = np.random.default_rng(5)
    ang = np.exp(2j * np.pi * rng.random(200))
    inside = c + R * 0.98 * np.sqrt(rng.random(200)) * ang
    outside = c + R * (1.0 + 2.0 * rng.random(200)) * ang
    for pts in (inside, outside):
        want = cauchy_T(grid, pts)
        assert np.max(np.abs(cauchy_T(mu, pts) - want)) <= 1e-13 * np.max(np.abs(want))
    want = beurling_Pi(grid, outside)
    assert np.max(np.abs(beurling_Pi(mu, outside) - want)) <= 1e-13 * np.max(np.abs(want))
    assert np.all(beurling_Pi(mu, inside) == 0.0)
    assert np.max(np.abs(beurling_Pi(grid, inside))) <= 1e-13 * np.max(np.abs(want))
