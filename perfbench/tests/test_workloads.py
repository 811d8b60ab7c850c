"""Seeded input generation, and agreement of BENCHMARK.json with the code."""

import filecmp
import json
import os

import pytest

import layers
import run
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(workload, tmp_path):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    workloads.generate(workload, 5, 1, str(a))
    workloads.generate(workload, 5, 1, str(b))
    workloads.generate(workload, 6, 1, str(c))
    names = sorted(os.listdir(a))
    assert names == sorted(os.listdir(b)) and len(names) > 1
    match, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
    assert mismatch == [] and errors == []
    seeded = [n for n in names if n != "manifest.json"]
    assert any(not filecmp.cmp(a / n, c / n, shallow=False) for n in seeded)


def test_rounds_repeat_the_same_mix():
    wl = workloads.WORKLOADS["analysis"]
    assert workloads.rounds_for(wl, 0.0) == 1
    assert workloads.rounds_for(wl, 3 * wl.round_seconds) == 3


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert {w["name"]: w["why"] for w in bench["workloads"]} == {
        w.name: w.why for w in workloads.WORKLOADS.values()}
    assert all(len(w["why"]) <= 200 for w in bench["workloads"])
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.E2E_UNITS
    assert bench["per_layer"] == layers.metric_specs()
