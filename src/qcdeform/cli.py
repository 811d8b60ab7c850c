"""Command-line front end.

Subcommands: deform, verify, schwarzian, ode, invert, approx, hsz-search,
thm2-check, covering, ops-selftest.  Each takes one JSON input file, named by
--config or its second spelling --in (series stored as [[re, im], ...]); main
loads it and resolves the run configuration for every subcommand.  Reports go
to stdout or --out as JSON or CSV.  Every report
embeds the resolved run configuration, and the same config and seed always
produce byte-identical output.  Exit codes: 0 success, 1 usage or config
error, 2 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from .beltrami import build_map, verify_map
from .config import DEFAULT_CONFIG, RunConfig
from .deform import DeformationProblem, solve_deformation
from .errors import QcdeformError
from .extremal import FamilySpec, check_thm2_consistency, hsz_search
from .ratfit import DoublePoleRational, error_curve, fit_double_poles
from .schwarzian import covering_radius, invert_expansion, schwarzian_of, solve_schwarz
from .series import HoloSeries
from .spaces import bergman, dirichlet, hardy
from .transforms import Density, Disk, beurling_Pi, cauchy_T, cauchy_chi

_SPACES = {"hardy": hardy, "bergman": bergman, "dirichlet": dirichlet}
_ODE_ORDER = 64  # default truncation degree of the ``ode`` solution


class _Usage(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _Usage(message)


def _pairs_to_complex(pairs) -> np.ndarray:
    return np.array([complex(p[0], p[1]) for p in pairs], dtype=np.complex128)


def _complex_to_pairs(arr) -> list:
    return [[float(np.real(v)), float(np.imag(v))] for v in np.atleast_1d(arr)]


_JSON_TYPES = {list: "an array", str: "a string", int: "a number", float: "a number",
               bool: "a boolean", type(None): "null"}


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"{path} holds {_JSON_TYPES[type(doc)]}, not a JSON object")
    return doc


def _series_from_spec(spec) -> HoloSeries:
    if isinstance(spec, dict):
        coeffs = _pairs_to_complex(spec["series"])
        radius = float(spec.get("radius", np.inf))
        lowest = int(spec.get("lowest", 0))
        return HoloSeries(coeffs, radius=radius, lowest=lowest)
    return HoloSeries(_pairs_to_complex(spec), radius=np.inf)


def _resolve_config(doc: dict, args) -> RunConfig:
    cfg = RunConfig.from_dict(doc["config"]) if doc.get("config") else DEFAULT_CONFIG
    updates = {}
    if args.seed is not None:
        updates["seed"] = args.seed
    if args.tol is not None:
        updates["coeff_tol"] = args.tol
        updates["norm_tol"] = args.tol
    return cfg.with_updates(**updates) if updates else cfg


def _disk_from_spec(spec: dict) -> Disk:
    c = spec["center"]
    return Disk(complex(c[0], c[1]), float(spec["radius"]))


def _mu_from_spec(spec: dict, disk: Disk, cfg: RunConfig) -> Density:
    if "constant" in spec:
        v = spec["constant"]
        return Density.constant(disk, complex(v[0], v[1]), cfg.n_rad, cfg.n_ang)
    terms = [(complex(c[0], c[1]), complex(p[0], p[1]), int(k)) for c, p, k in spec["terms"]]
    return Density.from_terms(disk, terms, cfg.n_rad, cfg.n_ang)


def _emit(report: dict, args) -> None:
    if args.format == "csv":
        text = _to_csv(report)
    else:
        text = json.dumps(report, sort_keys=True, indent=2, allow_nan=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _flatten(prefix: str, value, rows: list) -> None:
    if isinstance(value, dict):
        for k in sorted(value):
            _flatten(f"{prefix}.{k}" if prefix else str(k), value[k], rows)
    elif isinstance(value, (list, tuple)):
        for i, v in enumerate(value):
            _flatten(f"{prefix}[{i}]", v, rows)
    else:
        rows.append(f"{prefix},{value}")


def _to_csv(report: dict) -> str:
    rows: list[str] = ["key,value"]
    _flatten("", report, rows)
    return "\n".join(rows) + "\n"


# ---------------------------------------------------------------------------
# subcommand bodies


def _cmd_deform(doc: dict, cfg: RunConfig, args) -> dict:
    problem = DeformationProblem(
        space=_SPACES[doc.get("space", "hardy")](),
        f=_series_from_spec(doc["f"]),
        disk=_disk_from_spec(doc["disk"]),
        j=int(doc["j"]),
        n=int(doc["n"]),
        d=[complex(p[0], p[1]) for p in doc["d"]],
        a=float(doc["a"]),
        config=cfg,
    )
    result = solve_deformation(problem)
    return {"result": result.to_dict(),
            "mu_terms": [[_complex_to_pairs(c)[0], _complex_to_pairs(p)[0], k]
                         for c, p, k in result.mu.terms]}


def _cmd_verify(doc: dict, cfg: RunConfig, args) -> dict:
    disk = _disk_from_spec(doc["disk"])
    mu = _mu_from_spec(doc["mu"], disk, cfg)
    qc = build_map(mu, cfg)
    rep = verify_map(qc, n_probes=int(doc.get("probes", 12)), seed=cfg.seed)
    return {"neumann_terms": qc.n_terms,
            "neumann_residual": qc.neumann_residual, **vars(rep), "ok": rep.ok}


def _cmd_schwarzian(doc: dict, cfg: RunConfig, args) -> dict:
    s = schwarzian_of(_series_from_spec(doc))
    return {"schwarzian": _complex_to_pairs(s.coeffs)}


def _cmd_ode(doc: dict, cfg: RunConfig, args) -> dict:
    s = _series_from_spec(doc)
    n = int(doc.get("n", _ODE_ORDER))
    init = doc.get("init")
    if init is None:
        w0, w1, w2 = 0j, 1.0 + 0j, 0j
    else:
        w0, w1, w2 = (complex(p[0], p[1]) for p in init)
    w = solve_schwarz(s, n, w0, w1, w2)
    return {"solution": _complex_to_pairs(w.coeffs)}


def _cmd_invert(doc: dict, cfg: RunConfig, args) -> dict:
    F = invert_expansion(_series_from_spec(doc))
    return {"inverted": _complex_to_pairs(F.coeffs), "lowest": F.lowest}


def _target_from_spec(doc: dict):
    spec = doc["target"]
    if isinstance(spec, dict) and spec.get("kind") == "koebe_schwarzian":
        return lambda z: -6.0 / (1.0 - np.asarray(z, dtype=np.complex128) ** 2) ** 2
    if isinstance(spec, dict) and "poles" in spec:
        return DoublePoleRational(spec["poles"], _pairs_to_complex(spec["strengths"]))
    series = _series_from_spec(spec)
    return lambda z: series.evaluate(z)


def _cmd_approx(doc: dict, cfg: RunConfig, args) -> dict:
    target = _target_from_spec(doc)
    p = float(doc.get("p", 2.0))
    real_strengths = bool(doc.get("real_strengths", False))
    if doc.get("curve"):
        n_max = int(doc["curve"])
        errors, fits = error_curve(target, n_max, p, real_strengths)
        return {
            "p": p,
            "errors": [float(e) for e in errors],
            "fits": [{"angles": list(f.rational.angles),
                      "strengths": _complex_to_pairs(f.rational.strengths),
                      "sup_error": f.sup_error} for f in fits],
        }
    n_poles = int(doc.get("n_poles", 2))
    fit = fit_double_poles(target, n_poles, p, real_strengths)
    return {
        "p": p,
        "angles": list(fit.rational.angles),
        "strengths": _complex_to_pairs(fit.rational.strengths),
        "sup_error": fit.sup_error,
        "l2_residual": fit.l2_residual,
        "rounds": fit.n_rounds,
    }


def _cmd_hsz(doc: dict, cfg: RunConfig, args) -> dict:
    space = _SPACES[doc.get("space", "hardy")]()
    n = int(doc.get("n", 0))
    budget = int(doc.get("budget", 1000))
    rec = hsz_search(space, n, budget, seed=cfg.seed)
    return {
        "space": space.name, "n": n, "budget": budget, "seed": rec.seed,
        "best_value": rec.best_value,
        "best_f": _complex_to_pairs(rec.best_f.coeffs) if rec.best_f is not None else None,
        "evaluations": rec.samples,
        "improvements": [[int(i), float(v)] for i, v, _ in rec.history],
    }


def _cmd_thm2(doc: dict, cfg: RunConfig, args) -> dict:
    space = _SPACES[doc.get("space", "hardy")]()
    fam = FamilySpec.random_b2(
        size=int(doc.get("samples", 1000)),
        degree=int(doc.get("degree", 10)),
        sigma0=float(doc.get("sigma0", 0.2)),
        decay=float(doc.get("decay", 0.5)),
        b2_bound=float(doc.get("b2_bound", 0.2)),
    )
    rep = check_thm2_consistency(space, fam, n=int(doc.get("n", 2)), seed=cfg.seed)
    out = rep.to_dict()
    # row tables are bulky; keep them for CSV, summarize for JSON
    if args.format == "json":
        out["rows"] = len(rep.rows)
        out["expansion_rows"] = len(rep.expansion_rows)
    out["space"] = space.name
    return out


def _cmd_covering(doc: dict, cfg: RunConfig, args) -> dict:
    if "koebe" in doc:
        n = int(doc["koebe"])
        w = HoloSeries(np.arange(n + 1, dtype=np.complex128), radius=1.0)
    else:
        w = _series_from_spec(doc)
    return {"covering_radius": covering_radius(w)}


def _cmd_selftest(doc: dict, cfg: RunConfig, args) -> dict:
    rng = np.random.default_rng(0)
    checks = []

    # grid-only densities (no terms), so the mode engine is what is checked
    disk = Disk(0.4 + 0.2j, 1.0)
    rho = Density.from_function(disk, np.ones_like, cfg.n_rad, cfg.n_ang)
    probes_in = disk.center + 0.9 * np.sqrt(rng.random(40)) * np.exp(2j * np.pi * rng.random(40))
    probes_out = disk.center + (1.3 + 1.5 * rng.random(40)) * np.exp(2j * np.pi * rng.random(40))
    probes = np.concatenate([probes_in, probes_out])
    err = float(np.max(np.abs(cauchy_T(rho, probes) - cauchy_chi(disk, probes))))
    checks.append(("indicator_cauchy_closed_form", err, 1e-8))

    err = float(np.max(np.abs(beurling_Pi(rho, probes_in))))
    checks.append(("indicator_beurling_vanishes_inside", err, 1e-8))

    smooth = Density.from_function(
        disk, lambda z: np.exp(-(z - disk.center) * np.conj(z - disk.center)),
        cfg.n_rad, cfg.n_ang)
    d = 1e-4
    pts = probes_in[:8]
    xp, xm, yp, ym = cauchy_T(smooth, pts + np.array([d, -d, 1j * d, -1j * d])[:, None])
    err = float(np.max(np.abs(((xp - xm) + 1j * (yp - ym)) / (4 * d) - smooth.eval_points(pts))))
    checks.append(("dwbar_of_T_is_density", err, 1e-5))

    err = float(np.max(np.abs(((xp - xm) - 1j * (yp - ym)) / (4 * d) - beurling_Pi(smooth, pts))))
    checks.append(("dw_of_T_is_beurling", err, 1e-5))

    k = 0.05 + 0.03j
    mu = Density.from_function(disk, lambda z: np.full(z.shape, k), cfg.n_rad, cfg.n_ang)
    qc = build_map(mu, cfg)
    expected = probes + k * np.asarray(cauchy_chi(disk, probes))
    err = float(np.max(np.abs(qc(probes) - expected)))
    checks.append(("constant_dilatation_closed_form", err, 1e-7))

    all_ok = all(e <= tol for _, e, tol in checks)
    return {
        "checks": [{"name": n, "max_error": e, "tol": t, "pass": bool(e <= t)}
                   for n, e, t in checks],
        "all_pass": all_ok,
    }


_COMMANDS = {
    "deform": (_cmd_deform, True),
    "verify": (_cmd_verify, True),
    "schwarzian": (_cmd_schwarzian, True),
    "ode": (_cmd_ode, True),
    "invert": (_cmd_invert, True),
    "approx": (_cmd_approx, True),
    "hsz-search": (_cmd_hsz, False),
    "thm2-check": (_cmd_thm2, False),
    "covering": (_cmd_covering, True),
    "ops-selftest": (_cmd_selftest, False),
}


@functools.lru_cache(maxsize=1)
def _build_parser() -> _Parser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    p = _Parser(prog="qcdeform", description=__doc__)
    sub = p.add_subparsers(dest="command", metavar="COMMAND")
    for name in _COMMANDS:
        sp = sub.add_parser(name, add_help=True)
        sp.add_argument("--config", "--in", dest="config",
                        help="JSON input file; its optional \"config\" block sets run fields")
        sp.add_argument("--out", help="write the report here instead of stdout")
        sp.add_argument("--seed", type=int, help="override the config seed")
        sp.add_argument("--format", choices=("json", "csv"), default="json")
        sp.add_argument("--tol", type=float,
                        help="override coefficient and norm tolerances")
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _Usage as exc:
        sys.stderr.write(f"error: {exc}\n")
        parser.print_usage(sys.stderr)
        return 1
    if not getattr(args, "command", None):
        parser.print_usage(sys.stderr)
        return 1
    fn, needs_input = _COMMANDS[args.command]
    if needs_input and not args.config:
        sys.stderr.write(f"error: {args.command} requires --config or --in\n")
        return 1
    try:
        doc = _load_json(args.config) if args.config else {}
        cfg = _resolve_config(doc, args)
        report = {**fn(doc, cfg, args), "command": args.command, "config": cfg.to_dict()}
    except QcdeformError as exc:
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        _emit({"command": args.command, "error": str(exc),
               "error_type": type(exc).__name__}, args)
        return 2
    except (OSError, KeyError, ValueError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 1
    _emit(report, args)
    if args.command == "ops-selftest" and not report["all_pass"]:
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
