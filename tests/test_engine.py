import dataclasses
import gc
import heapq
import os
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from dispatchsim import engine
from dispatchsim.cli import _read_scenario_text
from dispatchsim.engine import (
    EventCalendar,
    HorizonExceeded,
    PastEvent,
    Simulation,
    TooManyJobs,
)
from dispatchsim.model import MS_PER_HOUR, Job, transfer_time
from dispatchsim.scenario import ScenarioConfig, PolicyConfig, load_scenario

from conftest import TABLE6_ORDER, TABLE6_WAITS


def test_calendar_single_element():
    cal = EventCalendar()
    job = Job(id=1, arrival=5.0, demand=1.0)
    cal.schedule(5.0, "JobArrival", job)
    ev = cal.pop()
    # the fields the benchmark's traced pop and the run loop read
    assert ev.fire_at == 5.0 and ev.kind == "JobArrival" and ev.subject is job
    assert len(cal) == 0


def test_calendar_fifo_tie_break():
    # Jobs do not order, so this raises TypeError if the heap ever
    # compares the subjects of two events at the same instant
    cal = EventCalendar()
    a, b = Job(id=1, arrival=5.0, demand=1.0), Job(id=2, arrival=5.0, demand=1.0)
    cal.schedule(5.0, "JobArrival", a)
    cal.schedule(5.0, "JobArrival", b)
    assert cal.pop().subject is a
    assert cal.pop().subject is b


def test_calendar_rejects_past_event():
    cal = EventCalendar()
    cal.schedule(10.0, "JobArrival")
    cal.pop()
    with pytest.raises(PastEvent):
        cal.schedule(7.0, "JobArrival")


@given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=50))
def test_calendar_pop_order_monotone(times):
    cal = EventCalendar()
    for t in times:
        cal.schedule(t, "JobArrival")
    popped = [cal.pop().fire_at for _ in range(len(times))]
    assert popped == sorted(popped)


# A step schedules (kind, fire time - clock), or pops when None. Offsets
# from a small set make ties, events at the clock, and in-order and
# out-of-order events of one kind all common; -1 is before the clock.
CALENDAR_STEPS = st.lists(
    st.none() | st.tuples(st.sampled_from("abc"), st.sampled_from((-1.0, 0.0, 0.5, 1.0, 2.0))),
    max_size=120,
)


@settings(max_examples=400, deadline=None)
@given(CALENDAR_STEPS)
def test_calendar_matches_a_plain_heap(steps):
    """The lanes pop exactly what one heap of (fire_at, seq) pops."""
    cal = EventCalendar()
    ref: list = []
    seq = 0
    in_order = set()  # seqs that sorted after every pending event of their kind
    at_clock = set()  # seqs scheduled at offset 0.0
    for step in steps + [None] * len(steps):  # then drain what is left
        if step is None:
            if not ref:
                continue
            expected = heapq.heappop(ref)
            assert tuple(cal.pop()) == expected and cal.clock == expected[0]
        else:
            kind, offset = step
            fire_at = cal.clock + offset
            if offset < 0:
                with pytest.raises(PastEvent):
                    cal.schedule(fire_at, kind)
            else:
                subject = object()
                cal.schedule(fire_at, kind, subject)
                if all(ev[2] != kind or ev[0] <= fire_at for ev in ref):
                    in_order.add(seq)
                if offset == 0.0:
                    at_clock.add(seq)
                heapq.heappush(ref, (fire_at, seq, kind, subject))
                seq += 1
        assert len(cal) == len(ref)
        if ref:
            assert cal.peek_time() == ref[0][0]
        # the heap stays shallow: events scheduled in order wait in their
        # kind's lane, and only the gate of each kind is on the heap
        gates = Counter(ev.kind for ev in cal._heap if ev.seq in in_order)
        assert max(gates.values(), default=0) <= 1
        # and an event scheduled at the clock never goes on the heap
        assert not any(ev.seq in at_clock for ev in cal._heap)


def test_calendar_event_at_the_clock_pops_after_pending_ones():
    """An event scheduled at the clock t pops after every event already
    pending at t and before any later one."""
    cal = EventCalendar()
    cal.schedule(2.0, "JobArrival", "x")
    cal.schedule(2.0, "JobFinish", "a")  # pending before the clock reaches t
    cal.schedule(3.0, "JobArrival", "b")
    assert cal.pop().subject == "x" and cal.clock == 2.0
    cal.schedule(2.0, "JobStart", "c")
    assert (len(cal), cal.peek_time()) == (3, 2.0)
    assert [cal.pop().subject for _ in range(3)] == ["a", "c", "b"]
    assert cal.clock == 3.0
    # only the current-instant FIFO holds an event
    cal.schedule(3.0, "JobStart", "d")
    assert not cal._heap and not any(cal._lanes.values())
    assert (len(cal), cal.peek_time()) == (1, 3.0)
    with pytest.raises(PastEvent):
        cal.schedule(2.5, "JobStart", "e")
    assert len(cal) == 1
    ev = cal.pop()
    assert (ev.fire_at, ev.kind, ev.subject, cal.clock, len(cal)) == (3.0, "JobStart", "d", 3.0, 0)


def _empty_config():
    return ScenarioConfig(
        name="empty",
        time_unit="ms",
        horizon=1000.0,
        seed=1,
        policy=PolicyConfig(deadline=10.0),
    )


def test_run_zero_user_bases():
    metrics = Simulation(_empty_config()).run()
    assert metrics.submitted == 0
    assert metrics.rejected == 0
    assert metrics.completed == 0


def test_run_table6_demo_waits(table6_config):
    metrics = Simulation(table6_config).run()
    waits = {
        t.id: (t.start - t.arrival) / MS_PER_HOUR
        for t in metrics.traces
        if t.start is not None
    }
    assert waits == TABLE6_WAITS
    order = sorted((t for t in metrics.traces), key=lambda t: t.start)
    assert [t.id for t in order] == TABLE6_ORDER


def test_sjf_tie_breaks_by_arrival_then_id():
    # job 1 runs first; jobs 2-4 share a burst and wait for it, so sjf
    # picks by earlier arrival, then by smaller id
    text = """
[scenario]
name = ties
time_unit = ms
horizon = 0
seed = 1
[datacenter.DC1]
vms = 1
rate = 1
memory = 1
bandwidth = 1
bandwidth_unit = units_per_ms
[policy]
scheduler = sjf
deadline = 100
[jobs]
job = 1 0 10
job = 4 2 3
job = 3 1 3
job = 2 2 3
"""
    traces = Simulation(load_scenario(text)).run().traces
    assert [t.id for t in sorted(traces, key=lambda t: t.start)] == [1, 3, 2, 4]


def test_run_deterministic_replay(sweep_config):
    a = Simulation(sweep_config).run()
    b = Simulation(sweep_config).run()
    assert [dataclasses.astuple(t) for t in a.traces] == [
        dataclasses.astuple(t) for t in b.traces
    ]
    assert a.event_count == b.event_count
    assert a.migration_log == b.migration_log


def test_run_event_cap(table6_config):
    with pytest.raises(HorizonExceeded):
        Simulation(table6_config, event_cap=3).run()


def test_sweep_level_over_event_cap_builds_no_jobs(sweep_config, monkeypatch):
    def unreachable(*args):
        raise AssertionError("jobs generated for a level over the cap")

    monkeypatch.setattr(engine, "generate_sweep_arrivals", unreachable)
    with pytest.raises(TooManyJobs, match="11 jobs, more than the event cap 10"):
        Simulation(sweep_config, event_cap=10, total_jobs=11)


def test_traces_are_the_run_jobs(migration_config):
    sim = Simulation(migration_config)
    traces = sim.run().traces
    # the run's own jobs in id order; jobs compare by identity
    assert traces == sorted(sim.jobs, key=lambda j: j.id)
    # what reporting and the benchmark's outcome counts read off a trace
    read = ("state", "arrival", "start", "finish", "reject_reason", "demand", "vm_history")
    assert all(hasattr(t, name) for t in traces for name in read)


def test_conservation(table6_config, sweep_config, migration_config):
    for config in (table6_config, sweep_config, migration_config):
        m = Simulation(config).run()
        assert m.submitted == m.completed + m.rejected
        for t in m.traces:
            assert t.state in ("completed", "rejected")


def test_clock_monotone_over_run(migration_config):
    sim = Simulation(migration_config)
    cal = sim.calendar
    seen = []
    original_pop = cal.pop

    def tracking_pop():
        ev = original_pop()
        seen.append((ev.fire_at, ev.seq))
        return ev

    cal.pop = tracking_pop
    sim.run()
    # the exact order of one heap of (fire_at, seq), not only a monotone clock
    assert all(a < b for a, b in zip(seen, seen[1:]))


def test_event_heap_stays_shallow(paper_config):
    """Each VM has at most one finish pending, each kind one gate, and a
    run one tick: starts fire at the clock and wait in the current-
    instant FIFO, and the pending arrivals and expiries wait in their
    lanes, not on the heap."""
    sim = Simulation(paper_config)
    cal = sim.calendar
    depths = []
    original_pop = cal.pop

    def tracking_pop():
        depths.append(len(cal._heap))
        assert all(ev.kind != engine.JOB_START for ev in cal._heap)
        return original_pop()

    cal.pop = tracking_pop
    sim.run()
    vms = sum(dc.vm_count for dc in paper_config.datacenters)
    assert (vms, len(depths)) == (145, 57_600)
    assert max(depths) <= vms + 6


def test_migration_cap_and_rule(migration_config):
    sim = Simulation(migration_config)
    metrics = sim.run()
    cap = migration_config.policy.migration_cap
    moves = Counter(entry[0] for entry in metrics.migration_log)
    assert moves and max(moves.values()) <= cap
    for t in metrics.traces:
        # every move of a started job landed on the VM that ran it
        if t.start is not None:
            assert len(t.vm_history) - 1 == moves[t.id]
        if not t.vm_history:
            assert t.start is None
    # every logged move strictly improved the predicted wait
    for _, _, _, _, current_wait, target_wait in metrics.migration_log:
        assert target_wait < current_wait


def test_explicit_jobs_route_to_first_datacenter():
    config = load_scenario(
        """
[scenario]
name = two_dc
time_unit = ms
horizon = 100
seed = 1

[datacenter.A]
vms = 1
rate = 100
memory = 1
bandwidth = 1
bandwidth_unit = units_per_ms

[datacenter.B]
vms = 1
rate = 100
memory = 1
bandwidth = 1
bandwidth_unit = units_per_ms

[policy]
scheduler = rr
admission = deadline
deadline = 50

[jobs]
job = 1 0 5
"""
    )
    m = Simulation(config).run()
    assert m.completed == 1


TWO_RATES = """
[scenario]
name = two_rates
time_unit = hours
horizon = 1
seed = 3

[datacenter.FAST]
vms = 2
rate = 100
memory = 1
bandwidth = 1
bandwidth_unit = units_per_ms

[datacenter.SLOW]
vms = 1
rate = 40
memory = 1
bandwidth = 2
bandwidth_unit = mbps

[userbase.UBF]
requests_per_user_per_hour = 1
data_size_per_request = 1
datacenter = FAST
user_grouping = 10
request_grouping = 3
instruction_length = 50

[userbase.UBS]
requests_per_user_per_hour = 1
data_size_per_request = 1
datacenter = SLOW
user_grouping = 7
request_grouping = 3
instruction_length = 50

[policy]
admission = deadline
deadline = 1

[jobs]
job = 4 0 0.001
job = 9 0.5 0.002 5
"""


@pytest.mark.parametrize(
    "total_jobs, demands",
    # (user base, demand, transfer time) of its generated jobs
    [
        # 10 and 7 requests in batches of 3, the last batch of each short
        (
            None,
            {("UBF", 1.5, 3.0), ("UBF", 0.5, 1.0), ("UBS", 3.75, 0.012), ("UBS", 1.25, 0.004)},
        ),
        (9, {("UBF", 1.5, 3.0), ("UBS", 3.75, 0.012)}),  # sweep jobs are full batches
    ],
)
def test_each_job_demand_uses_its_datacenter_rate(total_jobs, demands):
    """Set-up fixes each job's demand and transfer time from its
    datacenter's rate and bandwidth; the run adds both to its start."""
    config = load_scenario(TWO_RATES)
    user_bases = {ub.id: ub for ub in config.user_bases}
    rates = {dc.id: dc.rate for dc in config.datacenters}
    bandwidths = {dc.id: dc.bandwidth_per_ms for dc in config.datacenters}
    assert bandwidths == {"FAST": 1.0, "SLOW": 250.0}  # 2 Mbit/s
    rows = {j.id: j for j in config.jobs}
    sim = Simulation(config, total_jobs=total_jobs)
    for job in sim.jobs:
        if job.origin_ub is None:
            # [jobs] rows run on the first datacenter
            assert job.demand == rows[job.id].burst * config.unit_ms
            assert job.transfer == transfer_time(rows[job.id].data_size, bandwidths["FAST"])
        else:
            ub = user_bases[job.origin_ub]
            assert job.demand == ub.instruction_length * job.batch_size / rates[ub.target_dc]
            assert job.transfer == transfer_time(
                ub.data_size_per_request * job.batch_size, bandwidths[ub.target_dc]
            )
    assert {(j.origin_ub, j.demand, j.transfer) for j in sim.jobs if j.origin_ub} == demands
    assert [j.transfer for j in sim.jobs[:2]] == [0.0, 5.0]  # row 4 has no data
    metrics = sim.run()
    completed = [j for j in metrics.traces if j.finish is not None]
    assert completed
    assert all(j.finish == j.start + j.demand + j.transfer for j in completed)


@pytest.mark.parametrize("total_jobs", [None, 500])
def test_generated_jobs_follow_explicit_ones_in_arrival_order(total_jobs):
    config = load_scenario(
        _read_scenario_text("paper_tables.scn") + "\n[jobs]\njob = 7 5 1\njob = 3 0 2\n"
    )
    jobs = Simulation(config, total_jobs=total_jobs).jobs
    explicit, generated = jobs[:2], jobs[2:]
    assert [j.id for j in explicit] == [7, 3]
    assert [j.id for j in generated] == list(range(8, 8 + len(generated)))
    arrivals = [j.arrival for j in generated]
    assert arrivals == sorted(arrivals)
    assert {j.origin_ub for j in generated} == {"UB1", "UB2", "UB3", "UB4", "UB5"}


@pytest.mark.parametrize(
    "hop_time, state, vm_history, event_count",
    [
        # lands at 71, after its deadline at 60: expires in transit
        (70, "rejected", (0,), 12),
        # lands at 51 on the idle VM 1 and starts there at once
        (50, "completed", (0, 1), 14),
    ],
)
def test_migration_landing_and_expiry_in_transit(hop_time, state, vm_history, event_count):
    # jobs 1 and 3 queue on VM 0, job 2 on VM 1; job 2's finish at t = 1
    # moves job 3 to VM 1 (wait 99 on VM 0 against the hop time)
    text = f"""
[scenario]
name = landing
time_unit = ms
horizon = 0
seed = 1
[datacenter.DC1]
vms = 2
rate = 1
memory = 1
bandwidth = 1
bandwidth_unit = units_per_ms
[policy]
scheduler = rr
migration = on
hop_time = {hop_time}
migration_cadence = 1000
deadline = 60
[jobs]
job = 1 0 100
job = 2 0 1
job = 3 0 100
"""
    metrics = Simulation(load_scenario(text)).run()
    assert [entry[:4] for entry in metrics.migration_log] == [(3, 0, 1, 1.0)]
    job = metrics.traces[2]
    assert (job.id, job.state, job.vm_history) == (3, state, vm_history)
    if state == "rejected":
        assert (job.reject_reason, job.rejected_at, job.start) == ("DeadlineExpired", 60.0, None)
    else:
        assert (job.start, job.finish) == (51.0, 151.0)
    assert metrics.event_count == event_count


@pytest.mark.parametrize("deadline, expired", [(150, 0), (30, 2)])
def test_no_job_holds_a_vm_after_the_run(migration_config, deadline, expired):
    # migration_demo moves two jobs; at deadline 30 one job expires
    # queued and one in transit
    migration_config.policy.deadline = deadline
    sim = Simulation(migration_config)
    metrics = sim.run()
    assert len(metrics.migration_log) == 2
    assert [t.reject_reason for t in metrics.traces].count("DeadlineExpired") == expired
    assert [t for t in metrics.traces if t.vm is not None] == []


QCAP_DEMO = os.path.join(os.path.dirname(os.path.abspath(__file__)), "qcap_demo.scn")


@pytest.mark.parametrize("migration", [False, True])
@pytest.mark.parametrize("scheduler", ["rr", "sjf"])
@pytest.mark.parametrize(
    "scenario, deadline",
    [
        ("migration_demo.scn", None),
        ("paper_tables.scn", None),
        ("sweep_demo.scn", None),
        ("table6_demo.scn", None),
        (QCAP_DEMO, None),
        ("migration_demo.scn", 30),  # jobs expire both queued and in transit
    ],
)
def test_set_up_and_run_make_no_cyclic_garbage(scenario, deadline, scheduler, migration):
    # the cyclic collector is paused while the jobs are built and run,
    # which is safe only while they leave no cycle behind for it to free
    config = load_scenario(_read_scenario_text(scenario))
    config.policy.scheduler = scheduler
    config.policy.migration = migration
    if deadline is not None:
        config.policy.deadline = deadline
    gc.collect()
    gc.disable()
    try:
        sim = Simulation(config)
        sim.run()
        # `sim` still holds its datacenters, which cycle with their VMs
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_set_up_and_run_restore_the_collector(table6_config):
    sim = Simulation(table6_config)
    assert gc.isenabled()
    sim.run()
    assert gc.isenabled()
    with pytest.raises(HorizonExceeded):
        Simulation(table6_config, event_cap=len(table6_config.jobs)).run()
    assert gc.isenabled()
    gc.disable()
    try:
        Simulation(table6_config).run()
        assert not gc.isenabled()
    finally:
        gc.enable()
