"""Zero-free coefficient search and the sampled domination inequalities."""

import json

import numpy as np
import pytest

from qcdeform.extremal import FamilySpec, _b2_ceiling, check_thm2_consistency, hsz_search
from qcdeform.schwarzian import solve_schwarz
from qcdeform.series import HoloSeries
from qcdeform.spaces import bp_norm, hardy, hilbert_norm


def test_search_saturates_constant_coefficient():
    # for n = 0 the optimum is the unit constant, reached by the r = 0
    # dilation of the very first candidate
    rec = hsz_search(hardy(), 0, budget=300, seed=0)
    assert abs(rec.best_value - 1.0) < 1e-9
    assert rec.samples == 300


def test_search_with_zero_budget_is_empty():
    rec = hsz_search(hardy(), 2, budget=0, seed=0)
    assert rec.best_value == 0.0
    assert rec.best_f is None
    assert rec.samples == 0
    assert rec.history == ()


def test_search_stream_is_prefix_stable():
    small = hsz_search(hardy(), 3, budget=150, seed=7)
    large = hsz_search(hardy(), 3, budget=400, seed=7)
    assert small.best_value <= large.best_value
    head = large.history[: len(small.history)]
    assert [(h[0], h[1]) for h in head] == [(h[0], h[1]) for h in small.history]


def test_search_candidates_keep_their_invariants():
    rec = hsz_search(hardy(), 2, budget=300, seed=1)
    f = rec.best_f
    assert abs(hilbert_norm(hardy(), f) - 1.0) < 1e-10
    r = 0.9 * np.exp(2j * np.pi * np.arange(256) / 256)
    grid = np.outer(np.linspace(0.0, 1.0, 9), r).ravel()
    assert np.min(np.abs(f.evaluate(grid))) > 1e-8


def test_family_generation_is_seed_deterministic():
    spec = FamilySpec.random_b2(size=3, degree=6)
    a = spec.generate(seed=5)
    b = spec.generate(seed=5)
    for fa, fb in zip(a, b):
        assert np.array_equal(fa.coeffs, fb.coeffs)


def test_family_growth_ceiling_is_certified():
    # b2_bound caps the growth sup of every member, not just a grid estimate
    spec = FamilySpec.random_b2(size=300)
    for f in spec.generate(seed=0):
        assert bp_norm(f, 2.0) <= spec.b2_bound


@pytest.mark.parametrize("powers", [(5,), (64, 128), (200,)])
def test_growth_ceiling_covers_peaks_off_the_grid(powers):
    # z^5 peaks between two rings, z^64 + i z^128 between grid angles, and
    # z^200 folds past the 128 angles
    c = np.zeros(max(powers) + 1, dtype=complex)
    c[list(powers)] = 1j ** np.arange(len(powers))
    sup = bp_norm(HoloSeries(c, radius=np.inf), 2.0)
    assert _b2_ceiling(c[None])[0] >= sup


def test_consistency_report_expansions_match_solve_schwarz():
    # a user list with members shorter than the ODE order
    members = [HoloSeries(np.array([0.1, -0.2j], dtype=complex)),
               HoloSeries(np.array([0.05, 0.3, 0.1 + 0.1j, -0.02], dtype=complex)),
               HoloSeries(np.array([-0.2], dtype=complex))]
    rep = check_thm2_consistency(hardy(), members, n=3)
    assert rep.f0_index == 1
    assert rep.cn_0 == pytest.approx(0.02)
    # the report solves to degree 16 and compares the orders 3..6
    a0 = [abs(solve_schwarz(members[1], 16).coefficient(m)) for m in range(7)]
    for i, m, am, am0, ok in rep.expansion_rows:
        want = abs(solve_schwarz(members[i], 16).coefficient(m))
        assert am == pytest.approx(want, rel=1e-13, abs=1e-16)
        assert am0 == pytest.approx(a0[m], rel=1e-13, abs=1e-16)
        assert ok == (am <= am0 + rep.tol)
    assert len(rep.expansion_rows) == 3 * 4


def test_consistency_report_on_sampled_family():
    rep = check_thm2_consistency(hardy(), FamilySpec.random_b2(size=40), n=2, seed=0)
    assert "exploratory evidence" in rep.header
    assert "does not verify" in rep.header
    assert rep.n_samples == 40
    assert rep.coeff_violations == ()
    assert len(rep.rows) == 40
    assert rep.rows[rep.f0_index][1] == pytest.approx(rep.cn_0)
    # the ratio-expansion comparisons are tabulated for every member and
    # order; violations there are reported, not errors
    assert len(rep.expansion_rows) == 40 * 4
    json.dumps(rep.to_dict())


def test_consistency_report_on_empty_family():
    rep = check_thm2_consistency(hardy(), [], n=2)
    assert rep.n_samples == 0
    assert rep.f0_index == -1
    assert rep.rows == ()
    assert rep.coeff_violations == ()
    with pytest.raises(ValueError):
        check_thm2_consistency(hardy(), [], n=-1)
