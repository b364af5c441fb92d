"""Smoke tests of the benchmark itself, at tiny sizes.

    python3 -m pytest bench/test_bench.py

They check metric names, units and exact counts, never timings.
"""

import os

import pytest

import run
from workloads import WORKLOADS

TINY = 0.2


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_untraced_reports_every_end_to_end_metric(name):
    report, table = run.measure(name, seed=3, seconds=0, trace=False, scale=TINY)
    assert report["correct"] and report["failed"] == 0
    assert report["attempted"] == run.MIN_REPS
    assert {k: v["unit"] for k, v in report["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in report["metrics"].values())
    assert table[0].startswith(f"{name} seed=3 attempted={run.MIN_REPS} failed=0")


@pytest.fixture(scope="module")
def traced():
    reports = {}
    for name in WORKLOADS:
        report, _ = run.measure(name, seed=3, seconds=0, trace=True, scale=TINY)
        assert report["correct"] and report["failed"] == 0
        reports[name] = {k: v["value"] for k, v in report["metrics"].items()}
        assert {k: v["unit"] for k, v in report["metrics"].items()} == run.PER_LAYER
    return reports


def test_steady_rr_costs_four_events_per_job(traced):
    m = traced["steady_rr"]
    jobs = WORKLOADS["steady_rr"](3, TINY).jobs
    assert m["engine.events_per_job"] == 4
    for kind in ("JobArrival", "JobStart", "JobFinish", "DeadlineExpiry"):
        assert m[f"engine.events.{kind}"] == jobs
    assert m["engine.events.MigrationCheck"] == 0
    assert m["policies.migration_decision_calls"] == 0
    assert m["metrics.rejected_pct"] == 0


def test_overload_migrate_moves_jobs(traced):
    m = traced["overload_migrate"]
    jobs = WORKLOADS["overload_migrate"](3, TINY).jobs
    assert m["engine.migrations"] > 0
    # a migration transit ends in a JobArrival of its own
    assert m["engine.events.JobArrival"] == jobs + m["engine.migrations"]
    assert m["policies.migration_useful_ratio"] == (
        m["engine.migrations"] / m["policies.migration_decision_calls"]
    )


def test_qcap_sweep_rejects_at_admission(traced):
    m = traced["qcap_sweep"]
    jobs = WORKLOADS["qcap_sweep"](3, TINY).jobs
    assert m["model.admit_calls"] == jobs
    assert m["model.admit_rejected"] > 0
    assert m["engine.events.DeadlineExpiry"] == 0
    assert m["engine.events.MigrationCheck"] == 0
    admitted = jobs - m["model.admit_rejected"]
    assert m["engine.events"] == jobs + 2 * admitted
    assert m["policies.rr_next_vm_calls"] >= admitted


def test_bundled_paper_tables_rr(tmp_path):
    out = str(tmp_path / "out")
    res = run.run_child(["run", "paper_tables.scn", "--out", out], True, str(tmp_path), 120)
    counts, layers = res["counts"], res["layers"]
    assert counts["submitted"] == counts["completed"] == 14_400
    assert counts["events"] == layers["engine.events"] == 57_600
    for kind in ("JobArrival", "JobStart", "JobFinish", "DeadlineExpiry"):
        assert layers[f"engine.events.{kind}"] == 14_400
    assert sorted(res["digests"]) == sorted(os.listdir(out))
