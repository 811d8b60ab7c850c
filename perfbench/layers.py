"""Traced functions of each ``qcdeform`` layer and the per-layer metrics.

Each metric line says which end-to-end metric it should move, on which
workload:

* ``transforms.cauchy_T`` points inside / near (< 1.25 R) / far from
  ``rho.disk``: ``case_s_p50`` on verify (inside), ``cases_per_s`` on deform
  (near and far), ``peak_rss_mb`` on both (near).
* ``transforms.Density.eval_points`` and ``quadrature.barycentric_matrix``:
  ``case_s_p50`` on verify.
* ``kernels.cauchy_sum``: ``cases_per_s`` on deform, ``peak_rss_mb`` on
  deform and verify.  ``bytes_computed`` is computed from the argument shapes
  (the target-by-node complex128 pair array plus the argument and result
  arrays); it is not a measurement of memory traffic.
* ``transforms.pairing``, ``transforms.Density.from_terms``,
  ``quadrature.polar_grid``, ``series.coeffs_from_circle_samples`` and
  ``spaces.hilbert_norm``: ``case_s_p50`` on deform.
* ``beltrami.*``: ``case_s_p50`` on verify, ``cases_per_s`` on deform,
  ``setup_s`` on both.
* ``deform.*``: ``cases_per_s`` and ``case_s_tail`` on deform;
  ``deform.drift_below_max`` is informational.
* ``ratfit.fit_double_poles``, ``spaces.bp_norm``, ``kernels.horner_many``
  and ``schwarzian.covering_radius``: ``case_s_p50`` on analysis (two-pole
  fits and the covering radius sit at the median).
* ``ratfit.error_curve``, ``ratfit.lstsq_calls``, ``ratfit.fitted_frac`` and
  ``extremal.check_thm2_consistency``: ``case_s_tail`` on analysis.
* ``series.HoloSeries.*``, the other ``schwarzian.*`` functions,
  ``extremal.hsz_search`` and ``cli.main.self_s`` (parsing and JSON emission
  net of its children): ``cases_per_s`` on analysis.
* ``trace.overhead_frac``: the traced pass's ``cases_per_s`` against the
  untraced pass's in the same process, as 1 - traced / untraced.

Counts and times are totals over the traced pass of one run.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

NEAR_FACTOR = 1.25  # points closer than this many radii count as near


def _hook_cauchy_T(tr, idx, args, kwargs, result, error):
    rho = args[0]
    w = np.atleast_1d(np.asarray(args[1] if len(args) > 1 else kwargs["w"], dtype=np.complex128))
    dist = np.abs(w - rho.disk.center)
    inside = dist < rho.disk.radius
    near = ~inside & (dist < NEAR_FACTOR * rho.disk.radius)
    tr.count("transforms.cauchy_T.pts_inside", int(inside.sum()))
    tr.count("transforms.cauchy_T.pts_near", int(near.sum()))
    tr.count("transforms.cauchy_T.pts_far", int((~inside & ~near).sum()))


def _hook_eval_points(tr, idx, args, kwargs, result, error):
    tr.count("transforms.Density.eval_points.pts", np.size(args[1]))


def _hook_barycentric(tr, idx, args, kwargs, result, error):
    tr.count("quadrature.barycentric_matrix.entries", np.size(args[0]) * np.size(args[1]))


def _hook_cauchy_sum(tr, idx, args, kwargs, result, error):
    nodes, weights, rho, targets = args[:4]
    pairs = nodes.size * targets.size
    tr.count("kernels.cauchy_sum.pairs", pairs)
    tr.count("kernels.cauchy_sum.bytes_computed",
             16 * pairs + nodes.nbytes + weights.nbytes + rho.nbytes + 2 * targets.nbytes)


def _hook_neumann(tr, idx, args, kwargs, result, error):
    if result is not None:
        tr.count("beltrami.solve_neumann.terms", result.n_terms)


def _hook_solve(tr, idx, args, kwargs, result, error):
    from qcdeform.errors import ConvergenceError

    if isinstance(error, ConvergenceError):
        tr.count("deform.refusals")
    if result is not None:
        problem = args[0]
        tr.count("deform.newton_iters", result.n_iter)
        tr.notes[idx] = {"n_iter": result.n_iter, "q": problem.n - problem.j}
        tr.counters["deform.drift_below_max"] = max(
            tr.counters.get("deform.drift_below_max", 0.0), result.drift_below)


def _hook_curve(tr, idx, args, kwargs, result, error):
    if result is not None:
        _, fits = result
        tr.count("ratfit.curve_entries", len(fits))
        tr.count("ratfit.carried", sum(1 for f in fits[1:] if f.rational.strengths[-1] == 0))


def _hook_hsz(tr, idx, args, kwargs, result, error):
    if result is not None:
        tr.count("extremal.hsz_search.evaluations", result.samples)


def _hook_thm2(tr, idx, args, kwargs, result, error):
    if result is not None:
        tr.count("extremal.check_thm2_consistency.members", result.n_samples)


def targets() -> list[tuple]:
    """(span name, owner, attribute, hook) for every traced function."""
    from qcdeform import (beltrami, cli, deform, extremal, kernels, quadrature, ratfit,
                          schwarzian, series, spaces, transforms)

    Density, HoloSeries = transforms.Density, series.HoloSeries
    return [
        ("cli.main", cli, "main", None),
        ("transforms.cauchy_T", transforms, "cauchy_T", _hook_cauchy_T),
        ("transforms.Density.eval_points", Density, "eval_points", _hook_eval_points),
        ("transforms.Density.from_terms", Density, "from_terms", None),
        ("transforms.pairing", transforms, "pairing", None),
        ("quadrature.barycentric_matrix", quadrature, "barycentric_matrix", _hook_barycentric),
        ("quadrature.polar_grid", quadrature, "polar_grid", None),
        ("kernels.cauchy_sum", kernels, "cauchy_sum", _hook_cauchy_sum),
        ("kernels.horner_many", kernels, "horner_many", None),
        ("beltrami.solve_neumann", beltrami, "solve_neumann", _hook_neumann),
        ("beltrami.build_map", beltrami, "build_map", None),
        ("beltrami.verify_map", beltrami, "verify_map", None),
        ("deform.solve_deformation", deform, "solve_deformation", _hook_solve),
        ("deform.build_mu0", deform, "build_mu0", None),
        ("deform.linearized_init", deform, "linearized_init", None),
        ("series.coeffs_from_circle_samples", series, "coeffs_from_circle_samples", None),
        ("spaces.hilbert_norm", spaces, "hilbert_norm", None),
        ("series.HoloSeries.exp", HoloSeries, "exp", None),
        ("series.HoloSeries.reciprocal", HoloSeries, "reciprocal", None),
        ("series.HoloSeries.evaluate", HoloSeries, "evaluate", None),
        ("schwarzian.solve_schwarz", schwarzian, "solve_schwarz", None),
        ("schwarzian.schwarzian_of", schwarzian, "schwarzian_of", None),
        ("schwarzian.invert_expansion", schwarzian, "invert_expansion", None),
        ("schwarzian.covering_radius", schwarzian, "covering_radius", None),
        ("ratfit.fit_double_poles", ratfit, "fit_double_poles", None),
        ("ratfit.error_curve", ratfit, "error_curve", _hook_curve),
        ("spaces.bp_norm", spaces, "bp_norm", None),
        ("extremal.hsz_search", extremal, "hsz_search", _hook_hsz),
        ("extremal.check_thm2_consistency", extremal, "check_thm2_consistency", _hook_thm2),
    ]


def install(tracer) -> None:
    """Wrap every target, and count ``numpy.linalg.lstsq`` calls (ratfit's
    least-squares solves; nothing else in the package calls it)."""
    tracer.install(targets())
    lstsq = np.linalg.lstsq

    def counted(*args, **kwargs):
        tracer.count("ratfit.lstsq_calls")
        return lstsq(*args, **kwargs)

    tracer.patch(np.linalg, "lstsq", counted)


_SPANS = {  # span name -> fields reported besides the counters
    "transforms.cauchy_T": ("calls", "self_s"),
    "transforms.Density.eval_points": ("calls", "self_s"),
    "quadrature.barycentric_matrix": ("calls", "self_s"),
    "kernels.cauchy_sum": ("calls", "self_s"),
    "transforms.pairing": ("calls", "self_s"),
    "transforms.Density.from_terms": ("calls", "self_s"),
    "quadrature.polar_grid": ("calls", "self_s"),
    "beltrami.solve_neumann": ("calls", "self_s"),
    "beltrami.build_map": ("calls",),
    "beltrami.verify_map": ("calls", "self_s"),
    "deform.solve_deformation": ("calls", "self_s"),
    "deform.build_mu0": ("self_s",),
    "deform.linearized_init": ("self_s",),
    "series.coeffs_from_circle_samples": ("calls", "self_s"),
    "spaces.hilbert_norm": ("calls", "self_s"),
    "series.HoloSeries.exp": ("calls", "self_s"),
    "series.HoloSeries.reciprocal": ("calls", "self_s"),
    "series.HoloSeries.evaluate": ("calls", "self_s"),
    "kernels.horner_many": ("calls", "self_s"),
    "schwarzian.solve_schwarz": ("calls", "self_s"),
    "schwarzian.schwarzian_of": ("calls", "self_s"),
    "schwarzian.invert_expansion": ("calls", "self_s"),
    "schwarzian.covering_radius": ("calls", "self_s"),
    "ratfit.fit_double_poles": ("calls", "self_s"),
    "ratfit.error_curve": ("calls", "self_s"),
    "spaces.bp_norm": ("calls", "self_s"),
    "extremal.hsz_search": ("calls", "self_s"),
    "extremal.check_thm2_consistency": ("calls", "self_s"),
    "cli.main": ("self_s",),
}

_COUNTERS = {  # counter metric -> unit
    "transforms.cauchy_T.pts_inside": "count",
    "transforms.cauchy_T.pts_near": "count",
    "transforms.cauchy_T.pts_far": "count",
    "transforms.Density.eval_points.pts": "count",
    "quadrature.barycentric_matrix.entries": "count",
    "kernels.cauchy_sum.pairs": "count",
    "kernels.cauchy_sum.bytes_computed": "B",
    "beltrami.solve_neumann.terms": "count",
    "deform.newton_iters": "count",
    "deform.maps_per_solve": "ratio",
    "deform.backtracks": "count",
    "deform.refusals": "count",
    "deform.drift_below_max": "1",
    "ratfit.lstsq_calls": "count",
    "ratfit.fitted_frac": "ratio",
    "extremal.hsz_search.evaluations": "count",
    "extremal.check_thm2_consistency.members": "count",
    "trace.overhead_frac": "ratio",
}

_HIGHER_IS_BETTER = {"ratfit.fitted_frac"}


def metric_specs() -> list[dict]:
    """Every per-layer metric as it appears in BENCHMARK.json."""
    specs = []
    for span, fields in _SPANS.items():
        for f in fields:
            specs.append({"name": f"{span}.{f}", "unit": "s" if f == "self_s" else "count",
                          "better": "lower"})
    for name, unit in _COUNTERS.items():
        specs.append({"name": name, "unit": unit,
                      "better": "higher" if name in _HIGHER_IS_BETTER else "lower"})
    return specs


def _solve_structure(tracer) -> tuple[int, int, int]:
    """(solves, build_map calls under a solve, line-search backtracks).

    A converged solve with n_iter Newton steps on q complex targets makes
    1 + n_iter (2q + 2) maps when no trial is rejected: the initial residual,
    2q + 1 Jacobian columns and one accepted trial per step.  Maps beyond
    that are rejected line-search trials; trials refused by the sup check
    build no map and are not counted.
    """
    spans = tracer.spans
    solves = [i for i, s in enumerate(spans) if s.name == "deform.solve_deformation"]
    maps = Counter()
    for i, s in enumerate(spans):
        if s.name == "beltrami.build_map":
            owner = tracer.ancestor(i, "deform.solve_deformation")
            if owner >= 0:
                maps[owner] += 1
    backtracks = 0
    for i, note in tracer.notes.items():
        if spans[i].name == "deform.solve_deformation":
            backtracks += maps[i] - 1 - note["n_iter"] * (2 * note["q"] + 2)
    return len(solves), sum(maps.values()), backtracks


def collect(tracer, overhead_frac: float) -> dict[str, float]:
    """Per-layer metric values of a finished traced pass."""
    totals = tracer.layer_totals()
    values: dict[str, float] = {}
    for span, fields in _SPANS.items():
        for f in fields:
            values[f"{span}.{f}"] = totals.get(span, {}).get(f, 0)
    for name in _COUNTERS:
        values[name] = tracer.counters.get(name, 0)
    solves, maps, backtracks = _solve_structure(tracer)
    values["deform.maps_per_solve"] = maps / solves if solves else 0.0
    values["deform.backtracks"] = backtracks
    entries = tracer.counters.get("ratfit.curve_entries", 0)
    values["ratfit.fitted_frac"] = (
        1.0 - tracer.counters.get("ratfit.carried", 0) / entries if entries else 0.0)
    values["trace.overhead_frac"] = overhead_frac
    return values
