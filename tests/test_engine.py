import dataclasses

import pytest
from hypothesis import given, strategies as st

from dispatchsim import engine
from dispatchsim.engine import (
    EventCalendar,
    HorizonExceeded,
    PastEvent,
    Simulation,
    TooManyJobs,
)
from dispatchsim.model import MS_PER_HOUR, Job
from dispatchsim.scenario import ScenarioConfig, PolicyConfig, load_scenario

from conftest import TABLE6_ORDER, TABLE6_WAITS


def test_calendar_single_element():
    cal = EventCalendar()
    job = Job(id=1, arrival=5.0)
    cal.schedule(5.0, "JobArrival", job)
    ev = cal.pop()
    # the fields the benchmark's traced pop and the run loop read
    assert ev.fire_at == 5.0 and ev.kind == "JobArrival" and ev.subject is job
    assert len(cal) == 0


def test_calendar_fifo_tie_break():
    # Jobs do not order, so this raises TypeError if the heap ever
    # compares the subjects of two events at the same instant
    cal = EventCalendar()
    a, b = Job(id=1, arrival=5.0), Job(id=2, arrival=5.0)
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
        seen.append(ev.fire_at)
        return ev

    cal.pop = tracking_pop
    sim.run()
    assert seen == sorted(seen)


def test_migration_cap_and_rule(migration_config):
    sim = Simulation(migration_config)
    metrics = sim.run()
    cap = migration_config.policy.migration_cap
    for t in metrics.traces:
        assert t.migrations <= cap
        assert len(t.vm_history) - 1 == t.migrations
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
