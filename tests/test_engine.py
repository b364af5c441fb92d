import gc
import heapq
import math
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
from dispatchsim.model import MS_PER_HOUR, transfer_time
from dispatchsim.reporting import write_metrics_csv
from dispatchsim.scenario import ScenarioConfig, PolicyConfig, load_scenario

from conftest import TABLE6_ORDER, TABLE6_WAITS, make_job, trace_fields


def test_calendar_single_element():
    cal = EventCalendar()
    job = make_job(1, 5.0, 1.0)
    cal.schedule(5.0, "JobArrival", job)
    ev = cal.pop()
    # the fields the benchmark's traced pop and the run loop read
    assert ev.fire_at == 5.0 and ev.kind == "JobArrival" and ev.subject is job
    assert len(cal) == 0


def test_calendar_fifo_tie_break():
    # Jobs do not order, so this raises TypeError if the heap ever
    # compares the subjects of two events at the same instant
    cal = EventCalendar()
    a, b = make_job(1, 5.0, 1.0), make_job(2, 5.0, 1.0)
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
    """The lane, the heap and the current-instant FIFO pop exactly what
    one heap of (fire_at, seq) pops."""
    cal = EventCalendar()
    ref: list = []
    seq = 0
    in_order = set()  # seqs that sorted at or after every pending event, of any kind
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
                if all(ev[0] <= fire_at for ev in ref):
                    in_order.add(seq)
                if offset == 0.0:
                    at_clock.add(seq)
                heapq.heappush(ref, (fire_at, seq, kind, subject))
                seq += 1
        assert len(cal) == len(ref)
        if ref:
            assert cal.peek_time() == ref[0][0]
        # the heap stays shallow: events scheduled in order wait in the
        # lane, and only its gate is on the heap
        assert sum(ev.seq in in_order for ev in cal._heap) <= 1
        # and an event scheduled at the clock never goes on the heap
        assert not any(ev.seq in at_clock for ev in cal._heap)


# Up-front arrivals for the cursors: ties, the clock's own start, and
# times so large that a deadline of 0.5 or 1.0 is at most half an ulp of
# them. With 1.0, 2**53 and 2**53 + 4 expire at their arrival (ties round
# to even), while 2**53 + 2 expires at 2**53 + 4, so the expiry cursor can
# hold expiries at the clock behind events already pending there.
CURSOR_ARRIVALS = st.lists(
    st.sampled_from((0.0, 1.0, 1.0, 2.5, 2.0**53, 2.0**53 + 2, 2.0**53 + 4)), max_size=12
).map(sorted)


@settings(max_examples=400, deadline=None)
@given(CURSOR_ARRIVALS, st.sampled_from((None, 0.5, 1.0, 1.5, 3.0)), CALENDAR_STEPS)
def test_calendar_cursors_match_a_plain_heap(arrivals, deadline, steps):
    """With up-front arrivals and their expiries held in the two cursors,
    the calendar still pops exactly what one heap of (fire_at, seq) pops
    that holds every event from the start: the arrivals with seqs 0…n−1,
    then each expiry with the seq it took when its arrival popped. Its
    length and next fire time count the events still in a cursor."""
    jobs = [make_job(i, a, 1.0) for i, a in enumerate(arrivals)]
    n = len(jobs)
    cal = EventCalendar(jobs, deadline)
    ref = [(job.arrival, k, engine.JOB_ARRIVAL, job) for k, job in enumerate(jobs)]
    seq = n
    at_clock = set()  # seqs of events that fire at the clock they were scheduled at

    def push(fire_at, kind, subject):
        nonlocal seq
        if fire_at == cal.clock:
            at_clock.add(seq)
        heapq.heappush(ref, (fire_at, seq, kind, subject))
        seq += 1

    for step in steps + [None] * (len(steps) + 2 * n):  # then drain what is left
        if step is None:
            if not ref:
                continue
            expected = heapq.heappop(ref)
            assert tuple(cal.pop()) == expected and cal.clock == expected[0]
            if expected[1] < n and deadline is not None:  # an up-front arrival
                cal.schedule_expiry()
                push(expected[0] + deadline, engine.DEADLINE_EXPIRY, expected[3])
        else:
            kind, offset = step
            if kind == "c":  # a landing: the arrivals' kind, but not their cursor
                kind = engine.JOB_ARRIVAL
            fire_at = cal.clock + offset  # offset -1 may round to the clock
            if fire_at < cal.clock:
                with pytest.raises(PastEvent):
                    cal.schedule(fire_at, kind)
            else:
                subject = object()
                cal.schedule(fire_at, kind, subject)
                push(fire_at, kind, subject)
        assert len(cal) == len(ref)
        if ref:
            assert cal.peek_time() == ref[0][0]
        # each cursor keeps one gate on the heap, and an event at the
        # clock never goes there, but for the expiry cursor's gate
        assert sum(ev.seq < n for ev in cal._heap) <= 1
        assert sum(ev.kind == engine.DEADLINE_EXPIRY for ev in cal._heap) <= 1
        assert not any(
            ev.seq in at_clock and ev.kind != engine.DEADLINE_EXPIRY for ev in cal._heap
        )
    assert not ref and len(cal) == 0


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
    assert not cal._heap and not cal._lane
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
    assert [trace_fields(t) for t in a.traces] == [trace_fields(t) for t in b.traces]
    assert a.event_count == b.event_count
    assert a.migration_log == b.migration_log


def test_run_event_cap(table6_config, monkeypatch):
    monkeypatch.setattr(engine, "EVENT_CAP", 3)
    with pytest.raises(HorizonExceeded):
        Simulation(table6_config).run()


def test_sweep_level_over_event_cap_builds_no_jobs(sweep_config, monkeypatch):
    def unreachable(*args):
        raise AssertionError("jobs generated for a level over the cap")

    monkeypatch.setattr(engine, "generate_sweep_arrivals", unreachable)
    monkeypatch.setattr(engine, "EVENT_CAP", 10)
    with pytest.raises(TooManyJobs, match="11 jobs, more than the event cap 10"):
        Simulation(sweep_config, total_jobs=11)


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
    _, seen = _tracked_run(sim)
    # the run loop takes every event through `pop`, which the benchmark's
    # tracer wraps
    assert len(seen) == sim.event_count > 0
    # the exact order of one heap of (fire_at, seq), not only a monotone clock
    keys = [(ev.fire_at, ev.seq) for ev in seen]
    assert all(a < b for a, b in zip(keys, keys[1:]))


@pytest.mark.parametrize(
    "config_name, vms, events",
    [("paper_config", 145, 57_600), ("migration_config", 2, 42)],
    ids=["paper_tables", "migration_demo"],
)
def test_event_heap_stays_shallow(request, config_name, vms, events):
    """Each VM has at most one start or finish pending, each cursor and
    the lane one gate, a run one tick, and each job in transit one
    landing. Starts fire at the clock and wait in the current-instant
    FIFO; the up-front arrivals and the expiries wait in their cursors,
    not on the heap and not in the lane. So the events held at any one
    time, on the heap, in the FIFO and in the lane, less the landings,
    stay within a few of the VM count, however many jobs wait."""
    config = request.getfixturevalue(config_name)
    sim = Simulation(config)
    cal = sim.calendar
    all_vms = [vm for dc in sim.datacenters.values() for vm in dc.vms]
    held = []
    original_pop = cal.pop

    def tracking_pop():
        in_transit = sum(len(vm.incoming) for vm in all_vms)
        held.append(len(cal._heap) + len(cal._now) + len(cal._lane) - in_transit)
        assert all(ev.kind != engine.JOB_START for ev in cal._heap)
        # only finishes, ticks and landings wait in the lane
        assert all(
            ev.kind in (engine.JOB_FINISH, engine.MIGRATION_CHECK)
            or (ev.kind == engine.JOB_ARRIVAL and ev.subject.vm_history)
            for ev in cal._lane
        )
        return original_pop()

    cal.pop = tracking_pop
    sim.run()
    assert (len(all_vms), len(held)) == (vms, events)
    assert max(held) <= vms + 6


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


def _one_dc(policy: str, jobs, user_base: str = "", vms: int = 1) -> str:
    """Scenario text: one datacenter of `vms` VMs doing 1 instruction per
    ms, `[jobs]` rows from `(id, arrival, burst)` triples, in ms."""
    rows = "".join(f"job = {i} {a} {b}\n" for i, a, b in jobs)
    return f"""
[scenario]
name = one_vm
time_unit = ms
horizon = 40
seed = 1
[datacenter.DC1]
vms = {vms}
rate = 1
memory = 1
bandwidth = 1
bandwidth_unit = units_per_ms
{user_base}
[policy]
scheduler = rr
{policy}
[jobs]
{rows}"""


def _tracked_run(sim):
    """Run `sim` and return its metrics and the events it popped."""
    seen = []
    pop = sim.calendar.pop

    def tracking_pop():
        ev = pop()
        seen.append(ev)
        return ev

    sim.calendar.pop = tracking_pop
    return sim.run(), seen


def test_expiry_at_the_clock_pops_after_the_events_pending_there():
    """With a deadline of 1.0 ms, job 1 (2**53 + 2) expires at 2**53 + 4,
    and jobs 2 and 3, arriving then, expire at their arrival: 1.0 is half
    an ulp there, and the tie rounds to even. Like every event scheduled
    at the clock, such an expiry pops after those already pending at that
    instant. Job 2's expiry and then its start are scheduled at the
    current instant, and job 3's expiry after them; job 1's expiry pops
    first. Job 2 expires queued, the start takes job 3, and job 3's
    expiry finds it started. The cursor holds both expiries at the clock,
    and `pop` takes the start before job 3's because its seq is smaller;
    were a heap head at the clock to pop before `_now`'s head, jobs 2 and
    3 would both expire."""
    t0, t = 2.0**53 + 2, 2.0**53 + 4
    rows = [(1, int(t0), 0.5), (2, int(t), 5), (3, int(t), 5)]
    sim = Simulation(load_scenario(_one_dc("deadline = 1", rows)))
    metrics, seen = _tracked_run(sim)
    job1, job2, job3 = metrics.traces
    assert (job1.start, job1.finish) == (t0, t0)  # 0.5 ms rounds away at t0
    assert (job2.reject_reason, job2.rejected_at, job2.start) == ("DeadlineExpired", t, None)
    assert (job3.reject_reason, job3.start, job3.finish) == (None, t, t + 5)
    # job ids, and VM 0 for the starts and the finishes
    assert [(ev.kind, ev.subject.id) for ev in seen] == [
        ("JobArrival", 1), ("JobStart", 0), ("JobFinish", 0),
        ("JobArrival", 2), ("JobArrival", 3), ("DeadlineExpiry", 1), ("DeadlineExpiry", 2),
        ("JobStart", 0), ("DeadlineExpiry", 3), ("JobFinish", 0),
    ]


def test_arrival_at_negative_zero_keeps_its_sign(tmp_path):
    """`validate` accepts a `[jobs]` arrival of -0, and the job's arrival
    and start keep the sign: the arrival event fires at the job's own
    arrival, so `jobs.csv` writes -0 for both. Jobs 1 and 3 are the
    arrival cursor's first event and a later one."""
    rows = [(1, "-0", 5), (2, 0, 5), (3, "-0", 5)]
    metrics = Simulation(load_scenario(_one_dc("deadline = 50", rows, vms=3))).run()
    write_metrics_csv(metrics, tmp_path)
    assert (tmp_path / "jobs.csv").read_text().splitlines()[1:] == [
        "1,-0,-0,5,0,0,completed", "2,0,0,5,0,1,completed", "3,-0,-0,5,0,2,completed",
    ]
    assert [math.copysign(1.0, t.start) for t in metrics.traces] == [-1.0, 1.0, -1.0]


# Out of order, with ties among the rows and with the clock's start.
EXPLICIT_ROWS = st.lists(
    st.tuples(st.integers(0, 40), st.integers(1, 6)), min_size=1, max_size=12
)
GENERATED_3MS = """
[userbase.UB1]
requests_per_user_per_hour = 720000
data_size_per_request = 1
datacenter = DC1
user_grouping = 1
request_grouping = 1
instruction_length = 3
"""


@settings(max_examples=60, deadline=None)
@given(EXPLICIT_ROWS, st.sampled_from([2.5, 10**6]))
def test_rows_out_of_order_mixed_with_generated_jobs(rows, deadline):
    """`[jobs]` rows in any order, before generated 3 ms jobs in the
    list, arrive in (arrival, list position) order. On one VM under rr,
    that order is a FIFO queue whose jobs expire `deadline` after their
    arrival unless started by then, so each job's fate follows from its
    predecessors; a deadline of 2.5 against whole-ms rows leaves no tie
    between a start and an expiry."""
    jobs = [(i, a, b) for i, (a, b) in enumerate(rows, start=1)]
    text = _one_dc(f"deadline = {deadline}", jobs, GENERATED_3MS)
    sim = Simulation(load_scenario(text))
    assert sim.jobs[len(rows):]  # some generated jobs follow the rows
    order = sorted(sim.jobs, key=lambda j: j.arrival)  # stable: list position breaks ties
    metrics, seen = _tracked_run(sim)
    assert [ev.subject for ev in seen if ev.kind == engine.JOB_ARRIVAL] == order
    assert len(seen) == metrics.event_count
    free = 0.0  # when the VM is next idle
    for job in order:
        start = max(job.arrival, free)
        if start > job.arrival + deadline:
            assert (job.start, job.reject_reason) == (None, "DeadlineExpired")
            assert job.rejected_at == job.arrival + deadline
        else:
            assert (job.start, job.finish) == (start, start + job.demand + job.transfer)
            free = start + job.demand


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


# [jobs] rows whose (start + demand) + transfer is not start + (demand +
# transfer) for some of them: tenths of a ms and data of 0.3 units
FRACTIONAL_ROWS = "".join(
    f"job = {i} {i / 10!r} {0.2 + i / 10!r} 0.3\n" for i in range(1, 13)
)


def test_a_running_job_has_no_finish_until_it_completes():
    """While its VM runs it, a job reads state running and no finish.
    Its finish event leaves it completed with finish `(start + demand)
    + transfer`, the clock at that event plus its transfer time."""
    checked = []

    class Watched(Simulation):
        def _on_finish(self, vm, now):
            job = vm.running
            assert (job.state, job.finish, job.reject_reason) == ("running", None, None)
            Simulation._on_finish(self, vm, now)
            assert (job.state, job.finish) == ("completed", now + job.transfer)
            checked.append(job)

        _HANDLERS = {**Simulation._HANDLERS, engine.JOB_FINISH: _on_finish}

    text = _one_dc("deadline = 100", [], vms=2).replace("[jobs]\n", "[jobs]\n" + FRACTIONAL_ROWS)
    traces = Watched(load_scenario(text)).run().traces
    assert checked and sorted(checked, key=lambda j: j.id) == traces
    for j in traces:
        assert j.finish == (j.start + j.demand) + j.transfer
    # the rows tell the two ways of adding the three apart
    assert any(j.finish != j.start + (j.demand + j.transfer) for j in traces)


def test_a_queue_full_job_is_rejected_at_its_arrival():
    traces = Simulation(load_scenario(_read_scenario_text(QCAP_DEMO))).run().traces
    full = [t for t in traces if t.reject_reason == "QueueFull"]
    assert full
    assert all(t.rejected_at == t.arrival and t.state == "rejected" for t in full)
    assert all(t.finish is None and t.start is None for t in full)


def test_collect_returns_the_jobs_in_id_order():
    """`_collect` returns the simulation's own job list while it is in
    id order, and a sorted copy when the `[jobs]` rows are not."""
    def simulation(rows):
        return Simulation(load_scenario(_one_dc("deadline = 100", rows, GENERATED_3MS)))

    in_order = simulation([(1, 2, 1), (2, 0, 1)])
    assert in_order.run().traces is in_order.jobs
    sim = simulation([(3, 0, 1), (1, 2, 1), (2, 1, 1)])
    traces = sim.run().traces
    assert sim.jobs[3:] and [t.id for t in sim.jobs[:3]] == [3, 1, 2]
    assert [t.id for t in traces] == list(range(1, len(sim.jobs) + 1))


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


@pytest.mark.parametrize("migration", [False, True])
def test_jobs_that_never_move_share_their_vm_history(migration_config, migration):
    # every job that stays on its first VM holds that VM's one (id,)
    # tuple; a moved job holds a tuple of its own listing every VM it joined
    migration_config.policy.migration = migration
    metrics = Simulation(migration_config).run()
    moved = {}
    for job_id, source, target, *_ in metrics.migration_log:
        moved.setdefault(job_id, [source]).append(target)
    assert bool(moved) == migration
    stayed = [t for t in metrics.traces if t.id not in moved]
    shared = {id(t.vm_history) for t in stayed}
    # both VMs of migration_demo run jobs, and every job completes
    assert len(shared) == len({t.vm_history for t in stayed}) == 2
    for t in metrics.traces:
        if t.id in moved:
            assert t.vm_history == tuple(moved[t.id])
            assert id(t.vm_history) not in shared


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


def test_set_up_and_run_restore_the_collector(table6_config, monkeypatch):
    sim = Simulation(table6_config)
    assert gc.isenabled()
    sim.run()
    assert gc.isenabled()
    with monkeypatch.context() as m, pytest.raises(HorizonExceeded):
        m.setattr(engine, "EVENT_CAP", len(table6_config.jobs))
        Simulation(table6_config).run()
    assert gc.isenabled()
    gc.disable()
    try:
        Simulation(table6_config).run()
        assert not gc.isenabled()
    finally:
        gc.enable()
