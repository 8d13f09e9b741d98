"""Checks on the traced output that each workload reaches the layers it is
meant to reach and bypasses the ones it is meant to bypass.

    python3 -m pytest perfbench/bypass_check.py

The file name keeps it out of the repository's default test collection,
so the tier-1 suite does not grow.  Each workload runs once, traced, for
one second at seed 1.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

import tracer

HERE = Path(__file__).resolve().parent
WORKLOADS = ("action-laws", "roundtrip", "paradox-census", "cli-battery")
CYLINDER_OPS = ("boundary.compact_open_init", "boundary.intersect",
                "boundary.difference", "boundary.set_eq")


@pytest.fixture(scope="module")
def traced():
    out = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", "1", "--seconds", "1", "--trace", "1"],
            stdout=subprocess.PIPE, text=True, timeout=600, check=True)
        out[name] = json.loads(proc.stdout.splitlines()[-1])
    return out


def metric(res, name):
    return res["metrics"][name]["value"]


def self_share(res, layers):
    total = sum(v["value"] for k, v in res["metrics"].items()
                if k.endswith(".self_s"))
    return sum(metric(res, f"{layer}.self_s") for layer in layers) / total


def test_every_layer_metric_on_every_workload(traced):
    want = tracer.metric_names()
    for name, res in traced.items():
        assert res["correct"] and res["attempted"] >= 100, name
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        assert got == want, name


def test_paradox_census_makes_no_point_action(traced):
    assert metric(traced["paradox-census"], "boundary.act_point.calls") == 0


def test_roundtrip_spends_little_on_cylinder_algebra(traced):
    assert self_share(traced["roundtrip"], CYLINDER_OPS) < 0.05


def test_semigroup_layers_only_on_cli_battery(traced):
    layers = [layer for layer, _ in tracer.LAYERS
              if layer.startswith(("semigroups.", "invsgp."))]
    for name, res in traced.items():
        calls = [metric(res, f"{layer}.calls") for layer in layers]
        if name == "cli-battery":
            assert all(calls), dict(zip(layers, calls))
        else:
            assert not any(calls), (name, dict(zip(layers, calls)))
