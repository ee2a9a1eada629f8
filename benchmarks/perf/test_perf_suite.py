"""Tier-1 checks of the layer-resolved benchmark, on tiny grids.

Every workload runs in-process, traced and untraced, through the same
``run.measure`` the benchmark command uses; the grids are passed as
arguments so no extra CLI flag exists for the test.
"""

from __future__ import annotations

import json

import pytest

import compare
import run
import workloads
from repro.systems import lumi

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())

TINY = {
    "campaign_cold": {
        "grids": (
            (workloads.CAMPAIGN_COLLECTIVES, (16,), 1),
            (("allreduce",), (32,), 2),
        ),
        "sizes": (1024, 1048576),
    },
    "des_timeline": {
        "collectives": ("bcast",), "node_counts": (16,),
        "sizes": (1024, 1048576),
        "scenarios": workloads.TIMELINE_SCENARIOS[:2],
    },
    "verify_grid": {"collectives": ("bcast", "allreduce"), "node_counts": (16,)},
    "retune_warm": {
        "collectives": ("bcast", "allreduce"), "node_counts": (16, 32),
        "sizes": (1024, 1048576),
        "variants": workloads.cost_variants(lumi().params)[::24],
        "queries": 200, "scalar_queries": 20,
    },
}


def _measure(name, trace, grid=None):
    return run.measure(name, 0, 0, trace, grid or TINY[name], setups=0)


def test_benchmark_json_declares_the_measured_metrics():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    for section, declared in (("end_to_end", run.END_TO_END),
                              ("per_layer", run.PER_LAYER)):
        assert {
            m["name"]: (m["unit"], m["better"]) for m in BENCH[section]
        } == declared
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    assert all(0 < b <= 0.25 for b in bounds.values())


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_is_deterministic_covered_and_complete(name):
    traced = _measure(name, True)
    again = _measure(name, True)
    untraced = _measure(name, False)
    for result in (traced, again, untraced):
        assert result["problems"] == [] and result["failed"] == 0
    # traced == untraced, and the same inputs give the same outputs
    assert traced["digest"] is not None
    assert traced["digest"] == again["digest"] == untraced["digest"]
    assert list(traced["metrics"]) == list(run.PER_LAYER)
    assert list(untraced["metrics"]) == list(run.END_TO_END)
    assert all(v > 0 for v in untraced["metrics"].values())


def test_fresh_setup_times_a_new_process():
    # campaign_cold's own set-up is cheap: this is mostly interpreter + imports
    assert 0 < run.fresh_setup("campaign_cold", 0) < 60


def test_coverage_guard_fails_a_layer_without_calls(monkeypatch):
    monkeypatch.setattr(
        workloads.VerifyGrid, "layers",
        workloads.VerifyGrid.layers + ("des.simulate",),
    )
    result = _measure("verify_grid", True)
    assert result["problems"] == ["required layer des.simulate saw no call"]


def test_shims_are_removed_after_a_traced_run():
    from repro.analysis import sweep

    before = sweep.sweep_system
    _measure("campaign_cold", True)
    assert sweep.sweep_system is before


@pytest.mark.parametrize("a, b, bound, expected", [
    ([1.0, 1.01, 0.99, 1.0], [1.3, 1.31, 1.29, 1.3], 0.15, "worse"),
    ([1.0, 1.01, 0.99, 1.0], [1.05, 1.06, 1.04, 1.05], 0.15, "within bound"),
    ([1.0, 1.01, 0.99, 1.0], [0.8, 0.81, 0.79, 0.8], 0.15, "better"),
    ([1.0, 1.5, 0.6, 1.2], [1.1, 1.0, 1.2, 0.9], 0.15, "unresolved"),
    ([1.0, 1.01, 0.99, 1.0], [1.05, 1.06, 1.04, 1.05], None, "worse"),
    ([1.0, 1.5, 0.6, 1.2], [1.1, 1.0, 1.2, 0.9], None, "unresolved"),
])
def test_compare_verdicts(a, b, bound, expected):
    assert compare.verdict(a, b, bound, "lower") == expected


def _suite_entry(values, **status):
    entry = {"correct": True, "digests_agree": True, "error_rate": 0.0} | status
    for section in ("end_to_end", "per_layer"):
        entry[section] = {m["name"]: {"values": values} for m in BENCH[section]}
    return {"workloads": {"campaign_cold": entry}}


def test_compare_does_not_gate_on_unbounded_wall_s():
    base = _suite_entry([1.0, 1.01, 0.99, 1.0])
    slower = _suite_entry([1.0, 1.01, 0.99, 1.0])
    slower["workloads"]["campaign_cold"]["per_layer"]["wall_s"]["values"] = [2.0] * 4
    rows, rejected = compare.compare(base, slower, BENCH)
    wall_cell = rows[0].split(" | ")[-1]
    assert wall_cell.startswith("wall_s") and wall_cell.endswith("s worse")
    assert not rejected


@pytest.mark.parametrize("status, reason", [
    ({"correct": False}, "wrong outputs"),
    ({"digests_agree": False}, "disagree on the output digest"),
    ({"error_rate": 0.25}, "fails more"),
])
def test_compare_refuses_a_faster_change_with_bad_outputs(status, reason):
    base = _suite_entry([1.0, 1.01, 0.99, 1.0])
    faster = _suite_entry([0.5, 0.51, 0.49, 0.5], **status)
    rows, rejected = compare.compare(base, faster, BENCH)
    assert rejected and "invalid" in rows[0] and reason in rows[0]
    rows, rejected = compare.compare(base, _suite_entry([0.5, 0.51, 0.49, 0.5]), BENCH)
    # every end-to-end metric and the per-layer wall_s
    assert not rejected and rows[0].count("better") == len(BENCH["end_to_end"]) + 1
