"""Metamorphic relations: the engine compared with itself on a
transformed scenario, with no model of the answer.

Time scaling: doubling every duration of a scenario (horizon, job
arrivals and bursts, instruction lengths, hop time, migration cadence
and deadline) and halving every request rate and bandwidth must double
every time in every trace and in `migration_log`, and leave everything
else equal. A factor of 2 commutes with float rounding, so the relation
is exact.

Datacenter independence: jobs never leave their datacenter, so a
scenario of several datacenters must give each job the outcome it gets
when its datacenter runs alone with its own user bases. Job ids differ
between the runs, so jobs are matched on `(origin_ub, arrival)`.
"""

import pytest
from hypothesis import given, settings, strategies as st

from dispatchsim.engine import Simulation
from dispatchsim.scenario import load_scenario

from conftest import trace_fields

# Job fields that hold a time.
TIME_FIELDS = ("arrival", "demand", "transfer", "start", "finish", "rejected_at")
TIME_LOG_FIELDS = (3, 4, 5)  # now, current wait and cost of a migration_log entry

durations = st.one_of(
    st.integers(1, 60).map(float),
    st.floats(min_value=0.25, max_value=60.0, allow_subnormal=False),
)


@st.composite
def scalable_scenarios(draw):
    """A small scenario as a function of the time scale k: 1-2
    datacenters of 1-3 VMs, up to 2 generated user bases and up to 12
    `[jobs]` rows, both admission modes, migration on or off."""
    horizon = draw(st.integers(20, 400).map(float) | st.floats(20.0, 400.0))
    dcs = [
        (f"DC{i}", draw(st.integers(1, 3)), draw(st.sampled_from([1, 4, 100])),
         draw(st.sampled_from([1.0, 37.5, 1000.0])))
        for i in range(1, draw(st.integers(1, 2)) + 1)
    ]
    ubs = [
        (f"UB{i}", draw(st.integers(1, 30)) * 3_600_000.0 / horizon,
         draw(st.sampled_from([1, 250])), draw(st.sampled_from(dcs))[0], draw(durations))
        for i in range(1, draw(st.integers(0, 2)) + 1)
    ]
    rows = [
        (i, draw(st.floats(0.0, horizon)), draw(durations), draw(st.sampled_from([0, 0, 10])))
        for i in range(1, draw(st.integers(0, 12)) + 1)
    ]
    scheduler = draw(st.sampled_from(["rr", "sjf"]))
    migration = draw(st.sampled_from(["on", "off"]))
    hop, cadence = draw(st.integers(0, 10).map(float)), draw(durations)
    cap = draw(st.integers(0, 3))
    admission = draw(st.sampled_from(["deadline", "queue_cap"]))
    deadline, queue_capacity = draw(durations), draw(st.integers(1, 3))

    def text(k):
        lines = [
            "[scenario]", "name = scaled", "time_unit = ms", f"horizon = {k * horizon!r}",
            "seed = 7", "[advanced]", "user_grouping = 1", "request_grouping = 1",
        ]
        for dc_id, vms, rate, bandwidth in dcs:
            lines += [
                f"[datacenter.{dc_id}]", f"vms = {vms}", f"rate = {rate}", "memory = 1",
                f"bandwidth = {bandwidth / k!r}", "bandwidth_unit = units_per_ms",
            ]
        for ub_id, rph, data_size, dc_id, instructions in ubs:
            lines += [
                f"[userbase.{ub_id}]", f"requests_per_user_per_hour = {rph / k!r}",
                f"data_size_per_request = {data_size}", f"datacenter = {dc_id}",
                f"instruction_length = {k * instructions * 100!r}",
            ]
        lines += [
            "[policy]", f"scheduler = {scheduler}", f"migration = {migration}",
            f"hop_time = {k * hop!r}", f"migration_cadence = {k * cadence!r}",
            f"migration_cap = {cap}", f"admission = {admission}",
            f"deadline = {k * deadline!r}"
            if admission == "deadline"
            else f"queue_capacity = {queue_capacity}",
        ]
        if rows:
            lines.append("[jobs]")
            lines += [f"job = {i} {k * a!r} {k * b!r} {d}" for i, a, b, d in rows]
        return "\n".join(lines) + "\n"

    return text


def doubled(trace):
    fields = trace_fields(trace)
    for name in TIME_FIELDS:
        if fields[name] is not None:
            fields[name] *= 2
    return fields


@settings(max_examples=120, deadline=None)
@given(scalable_scenarios())
def test_doubling_every_duration_doubles_every_time(text):
    base = Simulation(load_scenario(text(1))).run()
    scaled = Simulation(load_scenario(text(2))).run()
    assert (scaled.submitted, scaled.completed, scaled.rejected, scaled.event_count) == (
        base.submitted, base.completed, base.rejected, base.event_count
    )
    assert [trace_fields(t) for t in scaled.traces] == [doubled(t) for t in base.traces]
    assert scaled.migration_log == [
        tuple(2 * x if i in TIME_LOG_FIELDS else x for i, x in enumerate(entry))
        for entry in base.migration_log
    ]


# Job fields that make up a job's outcome.
OUTCOME_FIELDS = ("state", "start", "finish", "vm_history", "reject_reason", "rejected_at")
MIX_MS = (("UBS", 50), ("UBL", 450))  # a short and a long class


def datacenters_text(dcs, scheduler, migration, seed, jobs=150, vms=4, rho=1.2):
    """Datacenters `DC<r>` of `vms` VMs for each r in `dcs`, each fed by
    its own short/long user-base pair of `jobs` jobs per class at load
    `rho`, under deadline admission with migration `migration`."""
    horizon = jobs * sum(ms for _, ms in MIX_MS) / (rho * vms)
    lines = [
        "[scenario]", "name = independence", "time_unit = ms", f"horizon = {horizon!r}",
        f"seed = {seed}", "[advanced]", "user_grouping = 1", "request_grouping = 1",
    ]
    for r in dcs:
        lines += [
            f"[datacenter.DC{r}]", f"vms = {vms}", "rate = 100", "memory = 1",
            "bandwidth = 1000", "bandwidth_unit = units_per_ms",
        ]
        for ub_id, ms in MIX_MS:
            lines += [
                f"[userbase.{ub_id}{r}]",
                # the half request keeps the hourly total from rounding down
                f"requests_per_user_per_hour = {(jobs + 0.5) * 3_600_000 / horizon!r}",
                "data_size_per_request = 100", f"datacenter = DC{r}",
                f"instruction_length = {ms * 100}",
            ]
    lines += [
        "[policy]", f"scheduler = {scheduler}", f"migration = {migration}",
        "admission = deadline", "deadline = 3000", "hop_time = 5",
        "migration_cadence = 10", "migration_cap = 3",
    ]
    return "\n".join(lines) + "\n"


def outcomes(text):
    traces = Simulation(load_scenario(text)).run().traces
    return {
        (t.origin_ub, t.arrival): tuple(getattr(t, name) for name in OUTCOME_FIELDS)
        for t in traces
    }


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("scheduler", ["rr", "sjf"])
@pytest.mark.parametrize("migration", [
    "off",
    pytest.param("on", marks=pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="a migration tick skips to the next event of the whole calendar, so one "
        "datacenter's events move another's ticks (ROADMAP item 2)",
    )),
])
def test_each_datacenter_runs_as_if_alone(migration, scheduler, seed):
    whole = outcomes(datacenters_text((1, 2), scheduler, migration, seed))
    alone = {}
    for r in (1, 2):
        alone.update(outcomes(datacenters_text((r,), scheduler, migration, seed)))
    assert len(whole) == 600
    assert whole.keys() == alone.keys()
    assert [key for key in whole if whole[key] != alone[key]] == []
