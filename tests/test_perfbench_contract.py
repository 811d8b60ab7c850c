"""The package names that perfbench reaches into still exist.

perfbench wraps functions by module attribute (``perfbench/layers.py``) and
calls the public API from its workloads (``perfbench/workloads.py``); its own
tests are not part of this suite, so a deleted or renamed name would
otherwise surface only when the benchmark runs.  These checks read
perfbench's files and change nothing there.
"""

import ast
import dataclasses
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import qcdeform
from qcdeform import deform
from qcdeform.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(stem: str):
    # a private module name, so no generic "layers" or "workloads" lands in
    # sys.modules
    name = f"_perfbench_{stem}_contract"
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{stem}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert name not in sys.modules and stem not in sys.modules
    return module


def _q_chains(tree: ast.AST) -> set:
    """Every attribute chain q.<name> or q.<name>.<attr> in the tree."""
    chains = set()
    for node in ast.walk(tree):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name) and node.id == "q" and parts:
            parts.reverse()
            chains.add(tuple(parts[:2]))
    return chains


def _resolve(owner, chain):
    for attr in chain:
        owner = getattr(owner, attr)
    return owner


def test_traced_targets_resolve():
    targets = _load("layers").targets()
    names = {span for span, *_ in targets}
    assert {"kernels.cauchy_sum", "kernels.horner_many"} <= names
    for span, owner, attr, _hook in targets:
        assert callable(getattr(owner, attr, None)), span


def test_workload_api_resolves():
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    chains = _q_chains(tree)
    assert {("Density", "from_terms"), ("RunConfig", "from_dict"), ("build_map",)} <= chains
    for chain in sorted(chains):
        _resolve(qcdeform, chain)
    # shifts_of calls the displacement of the map that build_map returns
    assert callable(qcdeform.QcMap.displacement)


def test_case_generator_first_order_sup_runs():
    # the deform case generator builds mu0 and the first-order x through the
    # public API and reads mu0.terms; its sup is the solver's own
    f = np.array([complex(*p) for p in _DEFORM["f"]])
    d, a = [1e-3, 5e-4], 1e-4
    sup = _load("workloads")._first_order_sup("hardy", f, 2.2, 1.1, d, a)
    prob = qcdeform.DeformationProblem(qcdeform.hardy(), qcdeform.HoloSeries(f, radius=np.inf),
                                       qcdeform.Disk(2.2, 1.1), 1, 3, d, a)
    mu0 = qcdeform.build_mu0(prob)
    x = qcdeform.linearized_init(prob, mu0)
    assert 0.0 < sup == pytest.approx(deform._sup_from_x(prob, mu0, x), rel=1e-12)


# the result fields perfbench's hooks read (``perfbench/layers.py``), by type
_HOOK_FIELDS = {
    qcdeform.NeumannResult: {"n_terms"},
    qcdeform.DeformationResult: {"n_iter", "drift_below"},
    qcdeform.SearchRecord: {"samples"},
    qcdeform.Thm2Report: {"n_samples"},
}


def _fields(cls) -> set:
    if dataclasses.is_dataclass(cls):
        return {f.name for f in dataclasses.fields(cls)}
    return set(cls._fields)


def test_hook_result_fields_exist():
    tree = ast.parse((PERFBENCH / "layers.py").read_text())
    read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "result"}
    assert read == set().union(*_HOOK_FIELDS.values())
    for cls, names in _HOOK_FIELDS.items():
        assert names <= _fields(cls), cls.__name__


_DEFORM = {
    "space": "hardy",
    "f": [[0, 0], [1, 0], [0.01, 0], [0, -0.005], [0.003, 0], [0.001, 0]],
    "disk": {"center": [2.2, 0.0], "radius": 1.1},
    "j": 1, "n": 3, "d": [[1e-3, 0.0], [5e-4, 0.0]], "a": 1e-4,
}


def test_report_config_round_trips(tmp_path, capsys):
    # the deform oracle rebuilds the run's RunConfig from the report's config block
    problem = {**_DEFORM, "config": {"n_rad": 24, "n_ang": 64, "n_norm": 128}}
    path = tmp_path / "prob.json"
    path.write_text(json.dumps(problem))
    assert main(["deform", "--config", str(path)]) == 0
    block = json.loads(capsys.readouterr().out)["config"]
    cfg = qcdeform.RunConfig.from_dict(block)
    assert cfg.to_dict() == block
    assert cfg == qcdeform.RunConfig(n_rad=24, n_ang=64, n_norm=128)


def test_direct_grid_sum_runs_on_deform_only(tmp_path, capsys, monkeypatch):
    # perfbench's run test requires kernels.cauchy_sum pairs on traced deform;
    # its one caller is deform's cross-check, and verify on pole terms needs
    # no grid sum at all
    pairs = []
    real = qcdeform.kernels.cauchy_sum

    def counted(nodes, weights, rho, targets):
        pairs.append(len(nodes) * len(targets))
        return real(nodes, weights, rho, targets)

    monkeypatch.setattr(qcdeform.kernels, "cauchy_sum", counted)
    path = tmp_path / "prob.json"
    path.write_text(json.dumps(_DEFORM))
    assert main(["deform", "--config", str(path)]) == 0
    assert any(n > 0 for n in pairs)

    pairs.clear()
    capsys.readouterr()
    doc = {"disk": {"center": [0.2, -0.3], "radius": 0.9},
           "mu": {"terms": [[[0.1, 0.0], [1.64, -0.3], 1], [[0.0, 0.05], [0.2, 1.23], 2]]}}
    path.write_text(json.dumps(doc))
    assert main(["verify", "--config", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["ok"]
    assert pairs == []
