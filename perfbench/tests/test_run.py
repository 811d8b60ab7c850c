"""Whole runs of every workload, one round each (about a minute in total)."""

import json
import sys

import pytest

import layers
import run
import workloads


def attribute_snapshot() -> dict:
    """Every attribute of every qcdeform module and of the classes they define."""
    snap = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "qcdeform" or name.startswith("qcdeform.")):
            continue
        for key, val in vars(mod).items():
            snap[(name, key)] = val
            if isinstance(val, type) and val.__module__.startswith("qcdeform"):
                for ck, cv in vars(val).items():
                    snap[(name, key, ck)] = cv
    return snap


def last_line(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def same_objects(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(a[k] is b[k] for k in a)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_case_passes_its_oracle_and_nothing_is_rebound(workload, capsys):
    run.import_package()
    before = attribute_snapshot()
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0"]) == 0
    res = last_line(capsys)
    assert res["correct"] is True and res["failed"] == 0
    assert res["attempted"] == len(workloads.WORKLOADS[workload].round)
    assert set(res["metrics"]) == set(run.E2E_UNITS)
    assert same_objects(attribute_snapshot(), before)


def test_traced_run_reports_every_layer_metric_and_restores(capsys):
    run.import_package()
    before = attribute_snapshot()
    assert run.main(["--workload", "deform", "--seed", "4", "--seconds", "0",
                     "--trace", "1"]) == 0
    res = last_line(capsys)
    assert res["correct"] is True and res["failed"] == 0
    assert [m["name"] for m in layers.metric_specs()] == list(res["metrics"])
    m = {k: v["value"] for k, v in res["metrics"].items()}
    assert m["deform.solve_deformation.calls"] == len(workloads.WORKLOADS["deform"].round)
    assert m["deform.refusals"] == 1 and m["transforms.cauchy_T.pts_inside"] == 0
    assert m["kernels.cauchy_sum.pairs"] > 0 and m["deform.backtracks"] >= 0
    assert same_objects(attribute_snapshot(), before)
