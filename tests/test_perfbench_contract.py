"""The package names that perfbench reaches into still exist.

perfbench wraps functions by module attribute (``perfbench/layers.py``) and
calls the public API from its workloads (``perfbench/workloads.py``); its own
tests are not part of this suite, so a deleted or renamed name would
otherwise surface only when the benchmark runs.  These checks read
perfbench's files and change nothing there.
"""

import ast
import importlib.util
import sys
from pathlib import Path

import qcdeform

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_layers():
    # a private module name, so no generic "layers" lands in sys.modules
    name = "_perfbench_layers_contract"
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / "layers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert name not in sys.modules and "layers" not in sys.modules
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
    targets = _load_layers().targets()
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
