"""Coefficient-weight spaces and growth norms."""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from qcdeform.series import HoloSeries
from qcdeform.spaces import (
    SpaceSpec,
    bergman,
    bp_norm,
    dirichlet,
    hardy,
    hilbert_norm,
    monomial_bp_sup,
)


def test_builtin_weight_sequences():
    assert np.allclose(hardy().weights(5), np.ones(5))
    assert np.allclose(bergman().weights(5), 1.0 / np.arange(1, 6))
    assert np.allclose(dirichlet().weights(5), [1, 1, 2, 3, 4])


def test_hilbert_norm_hardy_is_coefficient_l2():
    f = HoloSeries(np.array([3.0, 4.0], dtype=complex))
    assert hilbert_norm(hardy(), f) == pytest.approx(5.0)


def test_weights_validation():
    with pytest.raises(ValueError):
        SpaceSpec("bad", lambda k: np.zeros_like(k, dtype=float)).weights(3)


def test_monomial_bp_sup_closed_form():
    # sup over [0,1) of (1-t^2)^p t^n sits at t^2 = n/(n+2p)
    for n, p in [(1, 2.0), (4, 2.0), (3, 1.0), (7, 3.5)]:
        val, arg = monomial_bp_sup(n, p)
        t = np.linspace(0, 0.999999, 200001)
        scan = (1 - t**2) ** p * t**n
        assert val == pytest.approx(scan.max(), rel=1e-8)
        assert arg == pytest.approx(np.sqrt(n / (n + 2 * p)), abs=1e-9)


def test_bp_norm_matches_monomial_formula():
    for n in (2, 5):
        f = HoloSeries(np.concatenate([np.zeros(n), [1.0]]) + 0j)
        want, _ = monomial_bp_sup(n, 2.0)
        assert bp_norm(f, 2.0) == pytest.approx(want, rel=1e-6)


def test_bp_norm_of_constant():
    f = HoloSeries(np.array([2.0], dtype=complex))
    assert bp_norm(f, 2.0) == pytest.approx(2.0, rel=1e-9)


def test_bp_norm_accepts_callables():
    got = bp_norm(lambda z: np.asarray(z) ** 3, 2.0)
    want, _ = monomial_bp_sup(3, 2.0)
    assert got == pytest.approx(want, rel=1e-6)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_bp_norm_of_monomial_is_exact(n):
    f = HoloSeries(np.concatenate([np.zeros(n), [1.0]]) + 0j)
    want, _ = monomial_bp_sup(n, 2.0)
    assert bp_norm(f, 2.0) == pytest.approx(want, rel=1e-12)


def test_bp_norm_of_zero_function_is_zero():
    assert bp_norm(lambda z: np.zeros_like(z), 2.0) == 0.0


def test_bp_norm_names_a_point_where_the_target_is_not_finite():
    sizes = []

    def f(z):
        z = np.asarray(z)
        sizes.append(z.size)
        return np.where(np.abs(z) > 0.6, np.nan, z)

    with pytest.raises(ValueError, match="not finite at z = ") as info:
        bp_norm(f, 2.0)
    named = complex(str(info.value).split("z = ")[1])
    assert abs(named) > 0.6
    # the first scan already sees the NaN; no finer grid is ever built
    assert max(sizes) <= 4352


def test_bp_norm_evaluates_f_on_whole_arrays():
    calls = []

    def f(z):
        calls.append(np.size(z))
        return np.asarray(z) ** 3

    bp_norm(f, 2.0)
    assert len(calls) <= 30


def test_bp_norm_leaves_numpy_ma_unloaded():
    # numpy.ma costs the process about 1.5 MB of memory
    code = ("import sys; from qcdeform.series import HoloSeries; "
            "from qcdeform.spaces import bp_norm; import numpy as np; "
            "bp_norm(HoloSeries(np.array([0, 1, 0.5j])), 2.0); "
            "print('numpy.ma' in sys.modules)")
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_bp_norm_warns_when_tail_dominates():
    # slowly decaying coefficients keep the trusted radius away from 1
    f = HoloSeries(0.999 ** np.arange(12) + 0j, radius=1.0 / 0.999)
    with pytest.warns(UserWarning):
        bp_norm(f, 2.0)


def test_bp_norm_trusts_exact_polynomials():
    # the same slowly decaying coefficients, stored as an exact polynomial
    f = HoloSeries(0.999 ** np.arange(12) + 0j, radius=np.inf)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bp_norm(f, 2.0)

