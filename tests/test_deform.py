"""Coefficient and norm shifts driven through disk-supported dilatations.

The worked geometry: f = z in the Hardy space, support disk centered at 2.2
with radius 1.1, controlling coefficients 2 and 3 plus the norm.  For linear
f the first-order shift identities reduce to bare kernel pairings, which
checks the solver's assembly of the coefficients of h o f.
"""

import json
import re
import warnings

import numpy as np
import pytest

from qcdeform import beltrami, deform, kernels, transforms
from qcdeform.config import RunConfig
from qcdeform.deform import (
    DeformationProblem,
    _mu_from_x,
    build_mu0,
    linearized_init,
    solve_deformation,
)
from qcdeform.errors import ConvergenceError, DilatationBoundError, ResolutionError
from qcdeform.series import HoloSeries
from qcdeform.spaces import bergman, dirichlet, hardy
from qcdeform.transforms import Disk, local_matrix, pairing

DISK = Disk(2.2 + 0j, 1.1)
CFG = RunConfig().with_updates(
    n_rad=24, n_ang=64, n_norm=128, norm_tol=2e-8)


def _linear_f() -> HoloSeries:
    return HoloSeries(np.array([0.0, 1.0], dtype=complex), radius=np.inf)


def _demo_problem(d=(0.002, 0.001), a=0.0003) -> DeformationProblem:
    return DeformationProblem(hardy(), _linear_f(), DISK, 1, 3, d, a, CFG)


def test_norm_direction_pairings():
    prob = _demo_problem()
    mu0 = build_mu0(prob)
    assert abs(pairing(mu0, (prob.c0, 1)) - 1.0) < 1e-12
    for k in prob.controlled:
        assert abs(pairing(mu0, (prob.c0, k + 1))) < 1e-12


@pytest.mark.parametrize("disk", [Disk(6.3 + 0j, 5.0), Disk(11.7 + 0j, 10.0)])
def test_mu0_is_orthogonal_in_the_moments_the_solver_reads(disk):
    # near-circle disks alias the grid pairing; mu0 must be orthogonal in the
    # closed-form moments that the affine map is built from, read here through
    # the multipole-to-local translation: L_m of T mu0 at c0 is its pairing
    # with (zeta - c0)^-(m+1)
    prob = DeformationProblem(hardy(), _linear_f(), disk, 1, 3, (0.002, 0.001), 0.0003)
    a = deform._moments(prob, build_mu0(prob).terms)
    L = local_matrix(disk.center, disk.radius, prob.c0, 3, 2 * len(a))[:, : len(a)] @ a
    assert abs(L[0] - 1.0) < 1e-13
    assert abs(L[2]) < 1e-13 and abs(L[3]) < 1e-13


def test_first_order_solution_satisfies_pairing_equations():
    # for f = z the order-k shift of the composed map is exactly the pairing
    # with (zeta - c0)^-(k+1), and the norm moves only through coefficient 1
    prob = _demo_problem()
    mu0 = build_mu0(prob)
    mu = _mu_from_x(prob, mu0, linearized_init(prob, mu0))
    for i, k in enumerate(prob.controlled):
        assert abs(pairing(mu, (0j, k + 1)) - prob.d[i]) < 1e-12
    assert pairing(mu, (0j, 2)).real == pytest.approx(prob.a, abs=1e-12)


def test_demo_deformation_hits_targets():
    with pytest.warns(UserWarning, match="polynomial"):
        res = solve_deformation(_demo_problem())
    assert np.max(np.abs(np.array(res.achieved_d) - np.array([0.002, 0.001]))) < 1e-8
    assert abs(res.achieved_a - 0.0003) < 2e-8
    assert res.sup_mu < 0.5
    assert res.eps == pytest.approx(0.002)
    assert res.m_est == pytest.approx(res.sup_mu / res.eps)
    assert res.residual_trace[-1] < res.residual_trace[0]
    doc = res.to_dict()
    json.dumps(doc)
    assert doc["neumann_terms"] == res.qcmap.n_terms


def test_deformation_scale_is_stable_under_target_halving():
    with pytest.warns(UserWarning, match="polynomial"):
        r1 = solve_deformation(_demo_problem())
    with pytest.warns(UserWarning, match="polynomial"):
        r2 = solve_deformation(_demo_problem(d=(0.001, 0.0005), a=0.00015))
    assert r2.eps == pytest.approx(r1.eps / 2.0)
    assert abs(r2.m_est - r1.m_est) < 0.25 * r1.m_est


def test_oversized_targets_rejected_before_iterating():
    prob = _demo_problem(d=(0.5, 0.25), a=0.1)
    with pytest.warns(UserWarning, match="polynomial"):
        with pytest.raises(ConvergenceError, match="workable bound"):
            solve_deformation(prob)


def test_problem_validation_rejects_bad_geometry():
    f = _linear_f()
    overlapping = DeformationProblem(
        hardy(), f, Disk(1.0 + 0j, 0.8), 1, 3, (0.01, 0.01), 0.0, CFG)
    with pytest.raises(ValueError, match="too close to the image"):
        overlapping.validate()
    with pytest.raises(ValueError, match="0 <= j < n"):
        DeformationProblem(hardy(), f, DISK, 3, 3, (), 0.0, CFG).validate()
    with pytest.raises(ValueError, match="shifts"):
        DeformationProblem(hardy(), f, DISK, 1, 3, (0.01,), 0.0, CFG).validate()
    with pytest.raises(ValueError, match="n_norm"):
        DeformationProblem(hardy(), f, DISK, 1, 3, (0.01, 0.01), 0.0,
                           CFG.with_updates(n_norm=2)).validate()
    small = HoloSeries(np.array([0.0, 1.0], dtype=complex), radius=0.8)
    with pytest.raises(ValueError, match="converge"):
        DeformationProblem(
            hardy(), small, DISK, 1, 3, (0.01, 0.01), 0.0, CFG).validate()


def test_polynomial_f_warns_and_tailed_f_does_not():
    prob = _demo_problem()
    with pytest.warns(UserWarning, match="polynomial"):
        prob.validate()
    coeffs = np.zeros(6, dtype=complex)
    coeffs[1], coeffs[5] = 1.0, 0.01
    tailed = HoloSeries(coeffs, radius=np.inf)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        DeformationProblem(
            hardy(), tailed, DISK, 1, 3, (0.001, 0.001), 1e-4, CFG).validate()


def _nonlinear_problem(space, config=RunConfig(), a=1e-4, disk=DISK,
                      d=(1e-3, 5e-4)) -> DeformationProblem:
    f = HoloSeries(np.array([0.0, 1.0, 0.01, -0.005j, 0.003, 0.001]), radius=np.inf)
    return DeformationProblem(space, f, disk, 1, 3, d, a, config)


@pytest.mark.parametrize("space", [hardy, bergman, dirichlet], ids=lambda s: s.__name__)
def test_coefficient_residual_agrees_with_sampled_recovery(space, monkeypatch):
    # the solver reads the coefficients of h o f from mu's closed form; the
    # one sampled recovery per solve is the independent check: all of its
    # samples go through one boundary-ring sum of mu's circle values, and
    # none through cauchy_T
    seen = []
    real_sum = kernels.cauchy_sum

    def counted_sum(nodes, weights, rho, targets):
        seen.append((np.shape(nodes), np.asarray(targets).copy()))
        return real_sum(nodes, weights, rho, targets)

    def no_T(rho, w):
        raise AssertionError("the solve evaluated cauchy_T")

    assert not hasattr(deform, "cauchy_T")
    monkeypatch.setattr(transforms, "cauchy_T", no_T)
    monkeypatch.setattr(beltrami, "cauchy_T", no_T)
    monkeypatch.setattr(kernels, "cauchy_sum", counted_sum)
    prob = _nonlinear_problem(space())
    res = solve_deformation(prob)
    [((rings, M), points)] = seen
    assert rings == 1 and M >= 64 and M & (M - 1) == 0
    assert len(np.unique(points)) == len(points) == deform._CHECK_SAMPLES
    assert np.all(np.abs(points - prob.disk.center) > 1.05 * prob.disk.radius)
    assert res.sampled_check <= 1e-12
    assert 0.0 <= res.tail_bound <= RunConfig().norm_tol
    doc = res.to_dict()
    assert doc["sampled_check"] == res.sampled_check
    assert doc["tail_bound"] == res.tail_bound
    assert doc["tail_radius"] == res.tail_radius > 1.0
    assert np.max(np.abs(np.array(res.achieved_d) - np.array([1e-3, 5e-4]))) < 1e-8


def test_cross_check_disagreement_is_refused_with_its_gap(monkeypatch):
    # a disagreement planted in the closed-form coefficients above the
    # controlled degrees moves neither the shift rows nor, beyond 1e-10, the
    # norm; the cross-check reads it back, scaled by 0.9^k
    cfg = RunConfig()
    k, planted = 10, 100 * cfg.coeff_tol
    real = deform._composed

    def planted_at_k(problem, terms):
        c, tail = real(problem, terms)
        return c + planted * (np.arange(len(c)) == k), tail

    monkeypatch.setattr(deform, "_composed", planted_at_k)
    with pytest.raises(ResolutionError, match=r"sampled cross-check from the \d+-point "
                                              r"boundary ring") as info:
        solve_deformation(_nonlinear_problem(hardy(), cfg))
    gap = float(re.search(r"residual by (\S+),", str(info.value)).group(1))
    assert gap == pytest.approx(planted * 0.9 ** k, rel=1e-3)
    assert f"coeff_tol {cfg.coeff_tol:.1e}" in str(info.value)


def test_cross_check_that_is_not_a_number_is_refused(monkeypatch):
    # NaN compares False both ways, so no refusal may read "x > tol"; the
    # circle recovery names the first sample that is not finite
    monkeypatch.setattr(kernels, "cauchy_sum",
                        lambda nodes, weights, rho, w: np.full(len(w), np.nan + 0j))
    with pytest.raises(ResolutionError, match=r"circle sample \d+ of 256 is not finite"):
        solve_deformation(_nonlinear_problem(hardy()))


@pytest.mark.parametrize("scale, disk", [(100.0, Disk(190.0, 80.0)), (1e-3, Disk(2.2e-3, 1.1e-3))],
                         ids=["large", "tiny"])
def test_cross_check_holds_on_large_and_tiny_disks(scale, disk):
    # the boundary ring's sum takes hundreds of moments Q: 80^Q overflows and
    # (1.1e-3)^Q underflows unless they are taken in units of the ring radius
    f = HoloSeries(scale * np.array([0.0, 1.0, 0.01, -0.005j, 0.003, 0.001]), radius=np.inf)
    prob = DeformationProblem(hardy(), f, disk, 1, 2, (1e-3 * scale,), 1e-4 * scale,
                              RunConfig())
    assert solve_deformation(prob).sampled_check <= 1e-12 * scale


def test_truncation_below_the_tail_is_refused_with_its_bound():
    cfg = RunConfig().with_updates(n_norm=4)
    with pytest.raises(ResolutionError, match="tail bound") as info:
        solve_deformation(_nonlinear_problem(hardy(), cfg))
    bound = float(re.search(r"up to (\S+) \(tail bound\)", str(info.value)).group(1))
    assert bound > cfg.norm_tol


@pytest.mark.parametrize("space", [hardy, bergman, dirichlet], ids=lambda s: s.__name__)
def test_norm_preserving_deformation_is_exact(space):
    # a = 0: the shift rows are a linear solve and the norm row a quadratic
    # in tau, so both residuals sit at rounding level with no iteration
    res = solve_deformation(_nonlinear_problem(space(), a=0.0))
    assert abs(res.achieved_a) <= 1e-14
    assert np.max(np.abs(np.array(res.achieved_d) - np.array([1e-3, 5e-4]))) <= 1e-15
    assert res.n_iter == 0
    assert res.residual_trace[-1] < res.residual_trace[0]
    doc = res.to_dict()
    assert doc["discriminant"] == res.discriminant > 0.0
    tau, other = doc["tau_roots"]
    # the roots of the monic quadratic are sqrt(discriminant) apart
    assert abs(tau - other) == pytest.approx(np.sqrt(res.discriminant), rel=1e-12)


def _rotated_problem(a: float) -> DeformationProblem:
    return _nonlinear_problem(bergman(), a=a, disk=Disk(2.2 * np.exp(2j), 1.1),
                              d=(1e-3 * np.exp(3j), 5e-4))


def test_unreachable_norm_is_refused_with_its_discriminant():
    with pytest.raises(ConvergenceError, match="discriminant") as info:
        solve_deformation(_rotated_problem(0.0))
    msg = str(info.value)
    assert -2e-5 < float(re.search(r"discriminant (\S+) <", msg).group(1)) < -1.5e-5
    # the norm-shift floor the refusal names is where real roots begin
    floor = float(re.search(r"cannot go below (\S+),", msg).group(1))
    with pytest.raises(ConvergenceError, match="discriminant"):
        solve_deformation(_rotated_problem(0.99 * floor))
    with pytest.raises(DilatationBoundError):
        solve_deformation(_rotated_problem(1.01 * floor))


def test_root_above_kappa_max_is_refused_with_its_sup():
    with pytest.raises(DilatationBoundError, match="kappa_max 0.5") as info:
        solve_deformation(_rotated_problem(1e-5))
    sup = float(re.search(r"sup (\S+) or more", str(info.value)).group(1))
    assert 0.5 <= sup < 0.51


def test_map_off_the_affine_solve_is_refused_with_its_residual(monkeypatch):
    # R / |c - c0| = 0.897: the affine solve and the built map read the same
    # closed-form moments, so the map meets the solve at rounding; a map
    # composed off the solve is refused with its miss, which names no grid
    cfg = RunConfig().with_updates(coeff_tol=1e-9)
    disk = Disk(22.3 + 0j, 20.0)
    res = solve_deformation(_nonlinear_problem(hardy(), cfg, disk=disk))
    assert np.max(np.abs(np.array(res.achieved_d) - np.array([1e-3, 5e-4]))) <= 1e-15
    real = deform._composed

    def shifted(problem, terms):
        c, tail = real(problem, terms)
        return c + 10 * cfg.coeff_tol * (np.arange(len(c)) == 2), tail

    monkeypatch.setattr(deform, "_composed", shifted)
    with pytest.raises(ResolutionError, match="misses the shifts") as info:
        solve_deformation(_nonlinear_problem(hardy(), cfg, disk=disk))
    miss = float(re.search(r"misses the shifts by (\S+) ", str(info.value)).group(1))
    assert miss > cfg.coeff_tol
    assert "n_ang" not in str(info.value)


def test_worked_f_solves_on_wide_disks():
    # the cross-check reads mu on its boundary circle, not on a grid, so up
    # to R / |c - c0| = 0.897 the default config solves, with the cross-check
    # and the shift miss both at rounding
    cfg = RunConfig()
    for disk in [Disk(6.3 + 0j, 5.0), Disk(11.7 + 0j, 10.0), Disk(22.3 + 0j, 20.0)]:
        res = solve_deformation(_nonlinear_problem(hardy(), disk=disk))
        assert res.sampled_check <= 1e-15
        assert np.max(np.abs(np.array(res.achieved_d) - np.array([1e-3, 5e-4]))) <= 1e-15
        assert abs(res.achieved_a - 1e-4) <= cfg.norm_tol


def test_boundary_ring_resolves_the_samples_nearest_the_disk():
    # on Disk(6.3, 5) the poles sit at R / |c - c0| = 0.79 but the check's
    # samples come within R / 0.93: a ring sized by the poles alone (256
    # points) aliases its trapezoid sum at 2.9e-12, above this coeff_tol
    cfg = RunConfig().with_updates(coeff_tol=1e-13)
    res = solve_deformation(_nonlinear_problem(hardy(), cfg, disk=Disk(6.3 + 0j, 5.0)))
    assert res.sampled_check <= cfg.coeff_tol


@pytest.mark.parametrize("disk", [Disk(0.3 - 0.4j, 1.2), Disk(2.2 + 0j, 1.1),
                                  Disk(3.0 + 1.0j, 0.3), Disk(22.3 + 0j, 20.0)])
def test_boundary_integral_matches_the_closed_form(disk):
    # the cross-check's T from mu's circle values alone against the
    # closed-form antiderivative with its log1p recurrence, 1.05-3.05 R out
    rng = np.random.default_rng(11)
    c, R = disk.center, disk.radius
    terms = [(complex(*rng.standard_normal(2)),
              c + R * rng.uniform(1.3, 2.5) * np.exp(2j * np.pi * rng.random()), k)
             for k in (1, 2, 3)]
    w = c + R * np.linspace(1.05, 3.05, 50) * np.exp(2j * np.pi * rng.random(50))
    T, M = deform._boundary_T(disk, terms, w)
    ref = transforms._exterior_terms(disk, terms, R / (w - c))
    assert np.max(np.abs(T - ref)) <= 1e-15 * np.max(np.abs(ref))
    assert M >= 64 and M & (M - 1) == 0


@pytest.mark.parametrize("k", [8, 10])
def test_boundary_ring_grows_with_the_pole_order(k):
    # a pole of order k at 1.2 R makes mu's circle spectrum fall like
    # n^(k-1) / 1.2^n, so a ring sized by 1.2^-M alone (256 points) aliases
    # 150 (k = 8) to 4000 (k = 10) times the rounding scale eps R max |mu|
    disk = Disk(2.2 + 0j, 1.1)
    c, R = disk.center, disk.radius
    terms = [(1.0, c + 1.2 * R * np.exp(0.3j), k)]
    w = c + R * np.linspace(2.0, 3.0, 50) * np.exp(0.7j * np.arange(50))
    T, _ = deform._boundary_T(disk, terms, w)
    ref = transforms._exterior_terms(disk, terms, R / (w - c))
    assert np.max(np.abs(T - ref)) <= np.finfo(float).eps * R * (0.2 * R) ** -k


def test_boundary_ring_above_its_cap_is_refused_naming_t():
    # a sample 1e-4 R off the circle needs about 3.7e5 ring points
    disk = Disk(2.2 + 0j, 1.1)
    w = np.array([disk.center + 1.0001 * disk.radius])
    with pytest.raises(ResolutionError, match="more than 65536 points") as info:
        deform._boundary_T(disk, [(0.1, 0j, 1)], w)
    t = float(re.search(r"at t = (\S+),", str(info.value)).group(1))
    assert t == pytest.approx(1 / 1.0001)


@pytest.mark.parametrize("disk", [Disk(2.2 + 0j, 1.1), Disk(3.0 + 1.0j, 0.3),
                                  Disk(-0.5 + 4.0j, 2.5)])
def test_closed_form_moments_match_the_grid_moments(disk):
    # poles of orders 1 and 3 off the disk, a constant, and a conjugated
    # quadratic about an interior point, whose moments stop at j = 2; the
    # grid's own aliasing sets the tolerance on the widest disk
    terms = [(0.3 + 0.1j, 0j, 1), (0.02 - 0.05j, 0j, 3), (0.1, 0.5j, 0),
             (0.05j, disk.center + 0.2 * disk.radius, -2)]
    mu = transforms.Density.from_terms(disk, terms)
    a = deform._term_moments(disk, mu.terms, 0.9)
    grid = mu._multipole()
    n = min(len(a), len(grid))
    assert np.max(np.abs(a[:n] - grid[:n])) <= 1e-14 * np.max(np.abs(a))


def test_cancelling_f_solves_just_outside_its_coefficient_sum():
    # sum_k |f_k| = 3.25 sits just inside |c - c0| = 3.26, so bounding
    # R / (f - c) by f's coefficient moduli gives 30 on |z| = 1; the closed
    # form needs only f off the disk, and the tail falls below norm_tol at 512
    prob = DeformationProblem(hardy(), _cancelling_f(), Disk(3.26 + 0j, 0.3), 1, 3,
                              (1e-9, 5e-10), 0.0, RunConfig().with_updates(n_norm=512))
    res = solve_deformation(prob)
    assert res.tail_bound <= prob.config.norm_tol
    assert np.max(np.abs(np.array(res.achieved_d) - np.array([1e-9, 5e-10]))) <= 1e-15


def _exact_composed(problem: DeformationProblem, terms, K: int) -> np.ndarray:
    """Coefficients 0 .. K of (T mu) o f for the term density mu: the Taylor
    coefficients L_m of T mu at c0 (multipole-to-local matrix) of mu's
    closed-form moments, kept until the rest is below rounding at |y| = 1,
    times the powers (f - c0)^m, built by convolution.  No aliasing.

    The powers' coefficients grow like (sum_(k>=1) |f_k|)^m while T's Taylor
    coefficients shrink like (|c - c0| - R)^-m, so the sum carries no digits
    once the first reaches the second; that is refused."""
    f = problem.f.truncated(K).coeffs.copy()
    f[0] = 0.0
    reach, radius = np.sum(np.abs(f)), abs(problem.disk.center - problem.c0) - problem.disk.radius
    if reach >= radius:
        raise ValueError(f"sum_(k>=1) |f_k| = {reach:.6g} reaches |c - c0| - R = {radius:.6g}: "
                         "the convolution powers carry no digits")
    P = np.zeros((K + 1, K + 1), dtype=complex)
    P[0, 0] = 1.0
    for m in range(1, K + 1):
        P[:, m] = np.convolve(P[:, m - 1], f)[: K + 1]
    a = deform._term_moments(problem.disk, terms, 1.0)
    M = local_matrix(problem.disk.center, problem.disk.radius, problem.c0, K, 2 * len(a))
    return P @ (M[:, : len(a)] @ a)


def test_exact_composition_refuses_an_f_that_reaches_the_disk_by_its_coefficients():
    # sum_k |f_k| = 2 - 2^-39 against |c - c0| - R = 1.1: the powers carry
    # coefficients up to 2^m while T's shrink only like 1.1^-m
    coeffs = np.concatenate([[0.0], 2.0 ** (1 - np.arange(1, 41))])
    prob = DeformationProblem(hardy(), HoloSeries(coeffs, radius=np.inf),
                              Disk(2.2 * np.exp(2j), 1.1), 1, 3, (1e-3, 5e-4), 0.0)
    with pytest.raises(ValueError, match=r"= 2 reaches \|c - c0\| - R = 1.1:"):
        _exact_composed(prob, [(1.0, prob.c0, 3)], 64)


@pytest.mark.parametrize("disk", [Disk(2.2 + 0j, 1.1), Disk(6.3 + 0j, 5.0),
                                  Disk(11.7 + 0j, 10.0), Disk(22.3 + 0j, 20.0),
                                  Disk(30.0 + 0j, 0.3)])
def test_circle_coefficients_match_the_exact_composition(disk):
    prob = _nonlinear_problem(hardy(), disk=disk)
    # on Disk(30, 0.3) the kernels are too nearly dependent for mu0 (Gram
    # condition 1e17), so the last column is mu0's log1p term alone; there
    # q = R^2 / ((f - c)(c - c0)) is about 1e-4, where numpy's complex log1p,
    # exact to about eps absolutely, would miss by eps / |q| = 2e-12 relative
    far = disk.radius < 0.5
    mu0 = (transforms.Density.from_terms(disk, [(1.0, prob.c0, 1)]) if far
           else build_mu0(prob))
    f, B = deform._affine_map(prob, mu0)
    K = prob.config.n_norm
    np.testing.assert_array_equal(f, prob.f.truncated(K).coeffs)
    # columns: Re xi_2, Im xi_2 (times i), Re xi_3, Im xi_3, tau
    for col, terms in [(0, [(1.0, prob.c0, 3)]), (2, [(1.0, prob.c0, 4)]), (4, mu0.terms)]:
        exact = _exact_composed(prob, terms, K)
        assert np.max(np.abs(B[:, col] - exact)) <= 1e-14 * np.max(np.abs(exact))


_WIDE = [Disk(6.3 + 0j, 5.0), Disk(11.7 + 0j, 10.0), Disk(22.3 + 0j, 20.0)]


# bergman on Disk(22.3, 20) is refused by its discriminant, so the wide disks
# run in hardy and dirichlet, on the 48 x 256 grid their cross-check needs
@pytest.mark.parametrize("space, K, disk, n_ang", [
    pytest.param(space, K, DISK, 128, id=f"{K}-{space.__name__}")
    for K in (8, 16, 32) for space in (bergman, dirichlet, hardy)] + [
    pytest.param(space, K, disk, 256, id=f"{K}-{space.__name__}-{disk.center.real:g}")
    for disk in _WIDE for K in (8, 16, 32) for space in (dirichlet, hardy)])
def test_tail_bound_covers_the_tail_of_the_built_map(space, K, disk, n_ang):
    # the truncation is coarse on purpose; norm_tol = 1 lets the solve report
    # its bound, and degrees K+1 .. 8K of the exact composition are a lower
    # estimate of the true tail
    cfg = RunConfig().with_updates(n_norm=K, norm_tol=1.0, n_ang=n_ang)
    res = solve_deformation(_nonlinear_problem(space(), cfg, disk=disk))
    prob = res.problem
    c = prob.f.truncated(8 * K).coeffs + _exact_composed(prob, res.mu.terms, 8 * K)
    w = prob.space.weights(8 * K + 1)
    assert res.tail_bound >= np.sqrt(np.sum(w[K + 1:] * np.abs(c[K + 1:]) ** 2))


def _cancelling_f() -> HoloSeries:
    # sum_k |f_k| = 3.25, while |f| stays well below that on the circle
    c = np.zeros(12, dtype=complex)
    c[1] = 1.0
    c[3::2] = 0.45 * np.array([1, 1j, -1, -1j, 1])
    return HoloSeries(c, radius=np.inf)


def test_slow_majorant_still_solves_within_its_tail_bound():
    res = solve_deformation(DeformationProblem(
        dirichlet(), _cancelling_f(), Disk(5.0 + 0j, 1.0), 1, 3, (1e-6, 5e-7), 1e-7))
    assert 0.0 < res.tail_bound <= 1e-8
    assert np.max(np.abs(np.array(res.achieved_d) - np.array([1e-6, 5e-7]))) < 1e-12


def test_cancelling_f_on_its_coefficient_sum_needs_a_larger_n_norm():
    # sum_k |f_k| = 3.25 reaches |c - f(0)| = 3, yet f stays off the disk: the
    # composition's coefficients decay slowly, so n_norm 256 is refused with
    # its tail bound and 1024 solves
    def problem(n_norm):
        return DeformationProblem(hardy(), _cancelling_f(), Disk(3.0 + 0j, 0.3), 1, 3,
                                  (1e-6, 5e-7), 0.0, RunConfig().with_updates(n_norm=n_norm))
    with pytest.raises(ResolutionError, match="raise n_norm") as e:
        solve_deformation(problem(256))
    bound = float(re.search(r"up to (\S+) \(tail bound\)", str(e.value)).group(1))
    assert bound > RunConfig().norm_tol
    res = solve_deformation(problem(1024))
    assert np.max(np.abs(np.array(res.achieved_d) - np.array([1e-6, 5e-7]))) <= 1e-12


def test_circle_bound_covers_the_peak_between_samples(monkeypatch):
    # f = z + (1/800) sum_(k=1)^400 (z e^-i alpha)^k spikes toward the disk in
    # a peak about 1/400 wide at arg z = alpha, midway between two of the 256
    # samples: on |z| = 1.001 they miss the peak of |T o f| by 19 %, which the
    # slack term of M must make up
    alpha = 2.0 * np.pi * 37.5 / 256
    coeffs = np.zeros(401, dtype=complex)
    coeffs[1] = 1.0
    coeffs[1:] += np.exp(-1j * alpha * np.arange(1, 401)) / 800
    f = HoloSeries(coeffs, radius=np.inf)
    disk = Disk(4.0 * np.exp(1j * alpha), 1.0)
    prob = DeformationProblem(hardy(), f, disk, 1, 3, (1e-3, 5e-4), 0.0)
    terms = [(1.0, prob.c0, 3)]
    monkeypatch.setattr(deform, "_LADDER", np.array([1.001]))
    r, M = deform._ladder_maxima(prob, terms)
    z = 1.001 * np.exp(2j * np.pi * np.arange(1 << 16) / (1 << 16))
    T = np.abs(transforms._exterior_terms(disk, terms, 1.0 / (f.evaluate(z) - disk.center)))
    dense, sampled = np.max(T), np.max(T[::256])
    assert sampled < 0.85 * dense
    assert r.tolist() == [1.001] and M[0] >= dense
    assert deform._composed(prob, terms)[1][1] == 1.001


def test_validate_refuses_an_image_that_meets_the_disk_between_samples():
    # f = z + 0.4 z^500 reaches 0.00998 into this disk only in a spike about
    # 1/500 wide near arg z = 5.563, which 256 circle samples miss; they are
    # refined until one lands in it, and the refusal names its gap
    coeffs = np.zeros(501, dtype=complex)
    coeffs[1], coeffs[500] = 1.0, 0.4
    prob = DeformationProblem(hardy(), HoloSeries(coeffs, radius=np.inf),
                              Disk(2.39 * np.exp(5.563j), 1.0), 1, 3, (1e-3, 5e-4), 0.0)
    with pytest.raises(ValueError, match="too close to the image") as info:
        prob.validate()
    gap = float(re.search(r"gap (\S+) at", str(info.value)).group(1))
    assert -0.0100 <= gap <= 0.05
    # f = 3z keeps |z| = 1 far from this disk but winds about its center,
    # which f(D) then contains: the gap is -R
    prob = DeformationProblem(hardy(), HoloSeries(np.array([0.0, 3.0]), radius=np.inf),
                              Disk(0.2 + 0j, 0.5), 1, 3, (1e-3, 5e-4), 0.0)
    with pytest.raises(ValueError, match=r"gap -0.5 .* winding number 1;"):
        prob.validate()
