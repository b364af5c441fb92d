"""Acceptance suite: one test per exit criterion, each printing a
PASS line (visible with pytest -s / -v -rA)."""

import itertools
import math
import random
import time

from dispatchsim.cli import main
from dispatchsim.engine import Simulation
from dispatchsim.metrics import queue_wait, rejection_percentage, starvation_report
from dispatchsim.model import Datacenter, VmInstance
from dispatchsim.policies import rr_next_vm

from conftest import bundled, completed_traces, network_response, sjf_at_zero, summarize

SWEEP_LEVELS = [5, 10, 15, 20, 25, 30]


def _passed(name):
    print(f"[ACCEPTANCE] {name}: PASS")


def test_worked_example_exact_reproduction(capsys):
    t0 = time.monotonic()
    code = main(["demo"])
    elapsed = time.monotonic() - t0
    out = capsys.readouterr().out
    assert code == 0
    assert "order: 1 4 2 5 3" in out
    assert "wait job=1 0" in out
    assert "wait job=4 3" in out
    assert "wait job=2 9" in out
    assert "wait job=5 8" in out
    assert "wait job=3 16" in out
    assert elapsed < 1.0
    with capsys.disabled():
        _passed("worked-example exact reproduction (order 1,4,2,5,3; waits 0,3,9,8,16)")


def _brute_force_min_mean_wait(bursts):
    best = None
    for perm in itertools.permutations(bursts):
        t = 0.0
        waits = 0.0
        for b in perm:
            waits += t
            t += b
        best = waits if best is None else min(best, waits)
    return best / len(bursts)


def test_sjf_optimality_oracle(capsys):
    t0 = time.monotonic()
    rng = random.Random(1234)
    for _ in range(200):
        n = rng.randint(1, 7)
        bursts = [float(rng.randint(1, 100)) for _ in range(n)]
        traces = Simulation(sjf_at_zero(bursts)).run().traces
        mean_wait = sum(t.start - t.arrival for t in traces) / n
        assert mean_wait == _brute_force_min_mean_wait(bursts)
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    with capsys.disabled():
        _passed("engine SJF mean wait equals brute-force minimum on 200 random instances")


def test_rr_fairness(capsys):
    t0 = time.monotonic()
    for v in (1, 20, 35, 40, 50):
        for k in (1, 3, 7):
            dc = Datacenter(
                id="DC",
                vms=[VmInstance(id=i) for i in range(v)],
                capacity=math.inf,
            )
            counts = [0] * v
            for _ in range(k * v):
                counts[rr_next_vm(dc).id] += 1
            assert counts == [k] * v
    assert time.monotonic() - t0 < 1.0
    with capsys.disabled():
        _passed("RR fairness: k*V dispatches give every VM exactly k jobs")


def _sweep_percentages(scheduler):
    config = bundled("sweep_demo.scn")
    config.policy.scheduler = scheduler
    pcts = []
    for level in SWEEP_LEVELS:
        m = Simulation(config, total_jobs=level).run()
        assert m.submitted == level
        pcts.append(rejection_percentage(m.submitted, m.rejected))
    return pcts


def test_rejection_trend(capsys):
    t0 = time.monotonic()
    rr = _sweep_percentages("rr")
    sjf = _sweep_percentages("sjf")
    assert rr == sorted(rr), f"RR percentages not non-decreasing: {rr}"
    assert sjf == sorted(sjf), f"SJF percentages not non-decreasing: {sjf}"
    assert sjf[0] <= rr[0]
    assert time.monotonic() - t0 < 30.0
    with capsys.disabled():
        _passed(
            f"rejection trend non-decreasing over 5..30 (RR {rr}, SJF {sjf}), "
            "SJF <= RR at level 5"
        )


def test_stat_summary_bounds_and_processing_anchor(capsys):
    t0 = time.monotonic()
    metrics = Simulation(bundled("paper_tables.scn")).run()
    done = completed_traces(metrics)
    response = summarize([network_response(t) for t in done])
    processing = summarize([t.demand / t.batch_size for t in done])
    wait = summarize([queue_wait(t) for t in done])
    for s in (response, processing, wait):
        assert s.min <= s.avg <= s.max
    assert 2.0 <= processing.avg <= 3.0
    assert time.monotonic() - t0 < 30.0
    with capsys.disabled():
        _passed(
            f"summaries ordered and per-request processing avg "
            f"{processing.avg:.2f} ms in [2.0, 3.0]"
        )


def test_migration_liveness(capsys):
    t0 = time.monotonic()
    config = bundled("migration_demo.scn")
    deadline_ms = config.policy.deadline  # scenario is in ms
    on = Simulation(config).run()
    # scenario sanity: aggregate demand under aggregate capacity over the run
    demand = sum(j.burst for j in config.jobs)
    total_vms = sum(dc.vm_count for dc in config.datacenters)
    makespan = max(t.finish for t in on.traces if t.finish is not None)
    assert demand < total_vms * makespan
    config.policy.migration = False
    off = Simulation(config).run()
    pct_on = rejection_percentage(on.submitted, on.rejected)
    pct_off = rejection_percentage(off.submitted, off.rejected)
    assert pct_on <= pct_off
    assert starvation_report(on.traces, deadline_ms) == []
    assert time.monotonic() - t0 < 10.0
    with capsys.disabled():
        _passed(
            f"migration liveness: rejection {pct_on}% (on) <= {pct_off}% (off), "
            "empty starvation report with migration on"
        )


def test_determinism_byte_identical_outputs(tmp_path, capsys):
    t0 = time.monotonic()
    for scn in ("table6_demo.scn", "paper_tables.scn", "migration_demo.scn"):
        out_a = tmp_path / scn / "a"
        out_b = tmp_path / scn / "b"
        assert main(["run", scn, "--seed", "42", "--out", str(out_a)]) == 0
        assert main(["run", scn, "--seed", "42", "--out", str(out_b)]) == 0
        for name in ("summary.csv", "rejections.csv", "jobs.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    assert time.monotonic() - t0 < 30.0
    with capsys.disabled():
        _passed("same scenario + seed twice gives byte-identical CSV outputs")


def test_conservation_on_all_scenarios(capsys):
    scenarios = [
        bundled("table6_demo.scn"),
        bundled("paper_tables.scn"),
        bundled("migration_demo.scn"),
    ]
    runs = [Simulation(c).run() for c in scenarios]
    sweep = bundled("sweep_demo.scn")
    runs += [Simulation(sweep, total_jobs=n).run() for n in SWEEP_LEVELS]
    for m in runs:
        assert m.submitted == m.completed + m.rejected
    with capsys.disabled():
        _passed("conservation: submitted = completed + rejected on every scenario")
