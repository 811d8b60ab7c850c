"""End-to-end checks of the command-line front end.

Everything runs in process through main(argv) with stdout captured, so
the byte-identical determinism promise can be asserted on raw text.
"""

import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qcdeform import cli
from qcdeform.cli import main

# reduced quadrature keeps the heavier subcommands fast; still well above
# the resolution floor for the smooth inputs used here
FAST = {"n_rad": 24, "n_ang": 64, "n_norm": 128}


def run(argv, capsys):
    code = main(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def write_doc(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


# ---------------------------------------------------------------------------
# usage and error paths


def test_no_subcommand_is_usage_error(capsys):
    code, out, err = run([], capsys)
    assert code == 1
    assert "usage" in err.lower()
    assert out == ""


def test_unknown_subcommand_is_usage_error(capsys):
    code, _, err = run(["frobnicate"], capsys)
    assert code == 1
    assert "usage" in err.lower()


def test_missing_input_flag(capsys):
    code, _, err = run(["verify"], capsys)
    assert code == 1
    assert "requires" in err


def _verify_with_config(tmp_path, capsys, config):
    doc = {"disk": {"center": [0.0, 0.0], "radius": 1.0},
           "mu": {"constant": [0.05, 0.0]}, "config": config}
    path = write_doc(tmp_path, "verify.json", doc)
    return run(["verify", "--config", path], capsys)


@pytest.mark.parametrize("field, value", [
    ("coeff_tol", 0.0),
    ("norm_tol", 0.0),
])
def test_unusable_config_value_is_config_error(tmp_path, capsys, field, value):
    code, out, err = _verify_with_config(tmp_path, capsys, {**FAST, field: value})
    assert code == 1
    assert out == ""
    assert err.startswith("config error") and field in err


@pytest.mark.parametrize("field, value", [
    ("rho_s", 0.9),
    ("m_samples", 256),
    ("neumann_tol", 1e-12),
    ("neumann_max_terms", 20),
])
def test_removed_config_key_is_config_error(tmp_path, capsys, field, value):
    # the cross-check sampling and the Neumann tolerance are constants, and the
    # Neumann term budget follows from kappa_max: a config naming them is refused
    code, out, err = _verify_with_config(tmp_path, capsys, {**FAST, field: value})
    assert code == 1
    assert out == ""
    assert err.startswith("config error: unknown config keys") and field in err


def test_missing_config_key_is_config_error(tmp_path, capsys):
    # deform without its disk: KeyError inside the handler, not a crash
    path = write_doc(tmp_path, "bad.json", {"f": [[0, 0], [1, 0]], "j": 1, "n": 3})
    code, _, err = run(["deform", "--config", path], capsys)
    assert code == 1
    assert "config error" in err


@pytest.mark.parametrize("command", ["hsz-search", "deform"])
@pytest.mark.parametrize("doc, kind", [([1, 2], "an array"), (3.5, "a number"),
                                       ("text", "a string")])
def test_input_that_is_not_an_object_is_config_error(tmp_path, capsys, command, doc, kind):
    path = write_doc(tmp_path, "not-object.json", doc)
    code, out, err = run([command, "--in", path], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("config error") and kind in err


def test_nonexistent_file_is_config_error(tmp_path, capsys):
    code, _, err = run(["schwarzian", "--in", str(tmp_path / "nope.json")], capsys)
    assert code == 1
    assert "config error" in err


def test_numerical_failure_exits_2(tmp_path, capsys):
    # constant dilatation 0.6 breaks the contraction bound; the error is
    # reported as machine-readable JSON and the exit code distinguishes it
    # from config mistakes
    doc = {
        "disk": {"center": [0.0, 0.0], "radius": 1.0},
        "mu": {"constant": [0.6, 0.0]},
        "config": FAST,
    }
    path = write_doc(tmp_path, "verify.json", doc)
    code, out, err = run(["verify", "--config", path], capsys)
    assert code == 2
    assert "DilatationBoundError" in err
    report = json.loads(out)
    assert report["error_type"] == "DilatationBoundError"
    assert report["command"] == "verify"


# ---------------------------------------------------------------------------
# series subcommands


def test_schwarzian_of_moebius_is_zero(tmp_path, capsys):
    # z/(1 - z/2) truncated at degree 16: the output must vanish through
    # the orders the truncation determines
    coeffs = [[0.0, 0.0]] + [[0.5 ** k, 0.0] for k in range(16)]
    path = write_doc(tmp_path, "moebius.json", {"series": coeffs})
    code, out, _ = run(["schwarzian", "--in", path], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["command"] == "schwarzian"
    s = np.array([complex(a, b) for a, b in report["schwarzian"]])
    assert np.max(np.abs(s[:10])) < 1e-10
    # reports are self-describing: the resolved config rides along
    assert report["config"]["n_rad"] == 48


def test_ode_with_zero_coefficients_gives_identity(tmp_path, capsys):
    path = write_doc(tmp_path, "zero.json", {"series": [[0.0, 0.0]], "n": 6})
    code, out, _ = run(["ode", "--in", path], capsys)
    assert code == 0
    sol = np.array([complex(a, b) for a, b in json.loads(out)["solution"]])
    want = np.zeros(7, dtype=complex)
    want[1] = 1.0
    assert np.allclose(sol, want, atol=1e-14)


@pytest.mark.parametrize("n", [-1, -3])
def test_ode_with_negative_order_is_config_error(tmp_path, capsys, n):
    path = write_doc(tmp_path, "negative.json", {"series": [[0.0, 0.0]], "n": n})
    code, out, err = run(["ode", "--in", path], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("config error") and f"n = {n}" in err
    assert "Traceback" not in err


def test_invert_reports_descending_coefficients(tmp_path, capsys):
    path = write_doc(tmp_path, "w.json", {"series": [[0, 0], [1, 0], [0.3, 0]]})
    code, out, _ = run(["invert", "--in", path], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["lowest"] == -1
    inv = [complex(a, b) for a, b in report["inverted"]]
    assert abs(inv[0] - 1.0) < 1e-12        # leading zeta term
    assert abs(inv[1] - (-0.3)) < 1e-12     # constant is -a2/a1^2


def test_covering_radius_of_identity(tmp_path, capsys):
    doc = {"series": [[0, 0], [1, 0]], "radius": 1.0}
    path = write_doc(tmp_path, "id.json", doc)
    code, out, _ = run(["covering", "--in", path, "--tol", "1e-6"], capsys)
    assert code == 0
    report = json.loads(out)
    assert abs(report["covering_radius"] - 1.0) < 1e-9
    # --tol overrides both tolerance fields of the embedded config
    assert report["config"]["coeff_tol"] == 1e-6
    assert report["config"]["norm_tol"] == 1e-6


def test_covering_koebe_shortcut(tmp_path, capsys):
    # smoke for the builtin-series path; at this truncation the probe
    # circles are far from converged, so only the report shape is checked
    path = write_doc(tmp_path, "k.json", {"koebe": 1024})
    code, out, _ = run(["covering", "--in", path], capsys)
    assert code == 0
    r = json.loads(out)["covering_radius"]
    assert isinstance(r, float) and np.isfinite(r)


# ---------------------------------------------------------------------------
# solver subcommands


def test_deform_zero_target(tmp_path, capsys):
    # all shifts zero: mu = 0 is exact and the report shows zero residuals
    doc = {
        "f": [[0, 0], [1, 0]],
        "disk": {"center": [3.0, 0.0], "radius": 0.3},
        "j": 1,
        "n": 3,
        "d": [[0.0, 0.0], [0.0, 0.0]],
        "a": 0.0,
        "config": FAST,
    }
    path = write_doc(tmp_path, "prob.json", doc)
    with pytest.warns(UserWarning, match="polynomial"):
        code, out, _ = run(["deform", "--config", path], capsys)
    assert code == 0
    report = json.loads(out)
    res = report["result"]
    assert max(abs(complex(a, b)) for a, b in res["achieved_d"]) <= 1e-10
    assert abs(res["achieved_a"]) <= 1e-10
    assert res["sup_mu"] <= 1e-10
    for c, p, k in report["mu_terms"]:
        assert abs(complex(*c)) <= 1e-10


@pytest.mark.parametrize("a, error_type, named", [
    (0.0, "ConvergenceError", "discriminant"),
    (1e-5, "DilatationBoundError", "kappa_max"),
])
def test_deform_refusal_exits_2_with_its_type(tmp_path, capsys, a, error_type, named):
    # Bergman, f = z + 0.01z^2 - 0.005i z^3 + 0.003z^4 + 0.001z^5 on
    # Disk(2.2 e^{2i}, 1.1): no norm-preserving map holds these shifts, and
    # the smaller root for a = 1e-5 needs sup 0.501
    doc = {
        "space": "bergman",
        "f": [[0, 0], [1, 0], [0.01, 0], [0, -0.005], [0.003, 0], [0.001, 0]],
        "disk": {"center": [2.2 * np.cos(2.0), 2.2 * np.sin(2.0)], "radius": 1.1},
        "j": 1,
        "n": 3,
        "d": [[1e-3 * np.cos(3.0), 1e-3 * np.sin(3.0)], [5e-4, 0.0]],
        "a": a,
    }
    path = write_doc(tmp_path, "prob.json", doc)
    code, out, err = run(["deform", "--config", path], capsys)
    assert code == 2
    report = json.loads(out)
    assert report["error_type"] == error_type
    assert named in report["error"]
    assert err.startswith(error_type)


def test_ill_conditioned_kernel_basis_exits_2_with_its_condition_number(tmp_path, capsys):
    # far from f(D), the kernel powers (zeta - c0)^-(k+1) for k = 2 .. 6 and
    # (zeta - c0)^-1 are numerically dependent on Disk(60, 1)
    doc = {
        "space": "hardy",
        "f": [[0, 0], [1, 0], [0.01, 0], [0, -0.005], [0.003, 0], [0.001, 0]],
        "disk": {"center": [60.0, 0.0], "radius": 1.0},
        "j": 1,
        "n": 6,
        "d": [[1e-3, 0.0], [5e-4, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
        "a": 1e-4,
    }
    path = write_doc(tmp_path, "prob.json", doc)
    with pytest.warns(UserWarning, match="polynomial"):
        code, out, err = run(["deform", "--config", path], capsys)
    assert code == 2
    report = json.loads(out)
    assert report["error_type"] == "IllConditionedBasisError"
    cond = float(re.search(r"condition number (\S+)", report["error"]).group(1))
    assert cond > 1e12
    assert err.startswith("IllConditionedBasisError")


def test_verify_constant_dilatation(tmp_path, capsys):
    doc = {
        "disk": {"center": [0.5, -0.2], "radius": 1.0},
        "mu": {"constant": [0.05, 0.0]},
        "probes": 8,
        "config": FAST,
    }
    path = write_doc(tmp_path, "verify.json", doc)
    code, out, _ = run(["verify", "--config", path], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert report["neumann_terms"] <= 3
    assert report["dilatation_error"] < 5e-3
    assert report["jacobian_min"] > 0


@pytest.mark.parametrize("mu", [
    {"terms": [[[0.1, 0.0], [1.64, -0.3], 1], [[0.0, 0.05], [0.2, 1.23], 2],
               [[-0.02, 0.01], [-1.5, -0.4], 3]]},
    {"constant": [0.05, -0.1]},
])
def test_verify_of_a_term_dilatation_reads_no_grid(tmp_path, capsys, monkeypatch, mu):
    # a term density's map is its closed form: verify builds no mode
    # expansion and never evaluates the density's grid samples
    from qcdeform.transforms import Density

    def refuse(self, kind):
        raise AssertionError(f"mode expansion {kind!r} built")

    built = []
    from_terms = Density.from_terms

    def kept(*args):
        built.append(from_terms(*args))
        return built[-1]

    monkeypatch.setattr(Density, "_expansion", refuse)
    monkeypatch.setattr(Density, "from_terms", staticmethod(kept))
    path = write_doc(tmp_path, "verify.json",
                     {"disk": {"center": [0.2, -0.3], "radius": 0.9}, "mu": mu})
    code, out, _ = run(["verify", "--config", path], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert (report["neumann_terms"], report["neumann_residual"]) == (1, 0.0)
    assert len(built) == 1 and built[0]._values is None


def test_approx_recovers_two_poles(tmp_path, capsys):
    doc = {
        "target": {"poles": [0.6, 2.9], "strengths": [[1.2, -0.3], [0.8, 0.5]]},
        "n_poles": 2,
    }
    path = write_doc(tmp_path, "target.json", doc)
    code, out, _ = run(["approx", "--config", path], capsys)
    assert code == 0
    report = json.loads(out)
    got = np.sort(np.asarray(report["angles"]) % (2 * np.pi))
    assert np.allclose(got, [0.6, 2.9], atol=1e-8)
    assert report["l2_residual"] < 1e-8


def test_hsz_search_report_and_seed_flag(tmp_path, capsys):
    path = write_doc(tmp_path, "search.json", {"n": 0, "budget": 60})
    code, out, _ = run(["hsz-search", "--config", path], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["evaluations"] == 60
    assert report["best_value"] <= 1.0 + 1e-9
    assert report["best_f"] is not None

    code, out, _ = run(["hsz-search", "--config", path, "--seed", "5"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["seed"] == 5
    assert report["config"]["seed"] == 5


def test_thm2_check_small_family(tmp_path, capsys):
    path = write_doc(tmp_path, "fam.json", {"samples": 5, "degree": 6, "n": 2})
    code, out, _ = run(["thm2-check", "--config", path], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["command"] == "thm2-check"
    assert "exploratory evidence" in report["header"]
    assert report["coeff_violations"] == []
    # JSON keeps the bulky row tables as counts only
    assert report["rows"] == 5
    assert report["expansion_rows"] == 20


def test_ops_selftest_passes(capsys, monkeypatch):
    # the self-test checks the grid engine: its densities reach the shell operators
    from qcdeform import transforms

    shapes = []
    real = transforms._mode_operators

    def counted(n_rad, n_ang):
        shapes.append((n_rad, n_ang))
        return real(n_rad, n_ang)

    monkeypatch.setattr(transforms, "_mode_operators", counted)
    code, out, _ = run(["ops-selftest"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["all_pass"] is True
    assert len(report["checks"]) == 5
    assert all(c["pass"] for c in report["checks"])
    assert shapes


# ---------------------------------------------------------------------------
# report plumbing


_DEFORM_DOC = {
    "f": [[0, 0], [1, 0], [0.01, 0], [0, -0.005], [0.003, 0], [0.001, 0]],
    "disk": {"center": [2.2, 0.0], "radius": 1.1},
    "j": 1,
    "n": 3,
    "d": [[1e-5, 0], [5e-6, 0]],
    "a": 1e-6,
    "config": FAST,
}
_APPROX_DOC = {"target": {"poles": [0.6, 2.9], "strengths": [[1.2, -0.3], [0.8, 0.5]]},
               "n_poles": 2}


@pytest.mark.parametrize("command, doc", [
    ("deform", _DEFORM_DOC),
    ("approx", _APPROX_DOC),
    ("hsz-search", {"n": 1, "budget": 30, "config": {"seed": 3}}),
], ids=["deform", "approx", "hsz-search"])
def test_in_is_a_second_spelling_of_config(tmp_path, capsys, command, doc):
    path = write_doc(tmp_path, "input.json", doc)
    code, via_config, _ = run([command, "--config", path], capsys)
    assert code == 0
    code, via_in, _ = run([command, "--in", path], capsys)
    assert code == 0
    assert via_in == via_config


def test_same_config_and_seed_byte_identical(tmp_path, capsys):
    path = write_doc(tmp_path, "search.json", {"n": 0, "budget": 40})
    _, first, _ = run(["hsz-search", "--config", path], capsys)
    _, second, _ = run(["hsz-search", "--config", path], capsys)
    assert first == second
    assert first != ""


def test_parser_is_reused_across_calls_in_one_process(tmp_path, capsys):
    # a usage error between two runs leaves the shared parser unchanged
    doc = {"disk": {"center": [0.5, -0.2], "radius": 1.0},
           "mu": {"constant": [0.05, 0.0]}, "probes": 4, "config": FAST}
    path = write_doc(tmp_path, "verify.json", doc)
    code, first, _ = run(["verify", "--config", path], capsys)
    assert code == 0
    code, out, err = run(["bogus"], capsys)
    assert code == 1 and out == ""
    assert "usage" in err.lower()
    code, second, _ = run(["verify", "--config", path], capsys)
    assert code == 0
    assert first == second
    assert cli._build_parser() is cli._build_parser()


def test_console_script_resolves_to_cli_main():
    # the installed qcdeform command runs the target named in pyproject.toml;
    # tomllib is in the standard library from Python 3.11
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"qcdeform": "qcdeform.cli:main"}
    module, name = scripts["qcdeform"].split(":")
    assert getattr(importlib.import_module(module), name) is main


def test_module_entry_point_runs_ops_selftest():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "qcdeform.cli", "ops-selftest"],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["all_pass"] is True


def test_out_writes_file_not_stdout(tmp_path, capsys):
    src = write_doc(tmp_path, "w.json", {"series": [[0, 0], [1, 0]]})
    dst = tmp_path / "report.json"
    code, out, _ = run(["schwarzian", "--in", src, "--out", str(dst)], capsys)
    assert code == 0
    assert out == ""
    report = json.loads(dst.read_text())
    assert report["command"] == "schwarzian"


def test_csv_format_flattens_report(tmp_path, capsys):
    doc = {"series": [[0, 0], [1, 0]], "radius": 1.0}
    path = write_doc(tmp_path, "id.json", doc)
    code, out, _ = run(["covering", "--in", path, "--format", "csv"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "key,value"
    assert any(line.startswith("covering_radius,") for line in lines)
    assert any(line.startswith("config.n_rad,") for line in lines)
