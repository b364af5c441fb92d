import dataclasses
import math
import random
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from dispatchsim.engine import AdmissionResult, Simulation, admit
from dispatchsim.model import (
    COMPLETED,
    Datacenter,
    Job,
    UserBase,
    VmInstance,
    arrival_count,
    generate_arrivals,
    generate_sweep_arrivals,
    processing_time,
    requests_over,
    sum_in_order,
    transfer_time,
)
from dispatchsim.scenario import load_scenario

from conftest import make_job, trace_fields


def test_processing_time_default_rate():
    assert processing_time(250, 100) == 2.5


def test_processing_time_zero_length():
    assert processing_time(0, 100) == 0


def test_processing_time_half_rate():
    assert processing_time(250, 50) == 5.0


def test_transfer_time_ub3_dc1():
    assert transfer_time(100000, 1000) == 100


def test_transfer_time_zero_data():
    assert transfer_time(0, 1000) == 0


def test_transfer_time_ub2_dc3():
    assert transfer_time(10000, 10000) == 1


@given(
    st.floats(min_value=0, max_value=1e9),
    st.floats(min_value=1e-3, max_value=1e6),
    st.integers(min_value=0, max_value=1000),
)
def test_duration_arithmetic_is_linear(x, r, k):
    assert math.isclose(processing_time(k * x, r), k * processing_time(x, r), abs_tol=1e-6)
    assert math.isclose(transfer_time(k * x, r), k * transfer_time(x, r), abs_tol=1e-6)


def _ub(rate=12, grouping=1000, batch=100, **kw):
    defaults = dict(
        id="UB1",
        requests_per_user_per_hour=rate,
        data_size_per_request=100,
        target_dc="DC1",
        user_grouping=grouping,
        request_grouping=batch,
        instruction_length=250,
    )
    defaults.update(kw)
    return UserBase(**defaults)


RATES = {"DC1": (100.0, 1000.0)}


def test_sum_in_order_is_not_compensated():
    """Left to right, 1.0 is lost against 1e16 and the tenths round:
    0.0 on every interpreter, where a compensated `sum()` (CPython 3.12
    on) gives 2.0."""
    assert sum_in_order([0.1] * 10 + [1e16, 1.0, -1e16]) == 0.0
    assert sum_in_order([]) == 0.0


def test_generate_arrivals_batch_count_one_hour():
    jobs = generate_arrivals(_ub(), 3_600_000.0, 42, {"DC1": (40.0, 1000.0)})
    assert len(jobs) == 120  # 12 * 1000 requests in batches of 100
    assert all(j.batch_size == 100 for j in jobs)
    assert all(j.demand == 625.0 for j in jobs)  # 100 x 250 instructions at 40 per ms


def test_generate_arrivals_zero_horizon():
    assert generate_arrivals(_ub(), 0.0, 42, RATES) == []


def test_generate_arrivals_deterministic():
    a = generate_arrivals(_ub(), 3_600_000.0, 42, RATES)
    b = generate_arrivals(_ub(), 3_600_000.0, 42, RATES)
    assert [j.arrival for j in a] == [j.arrival for j in b]


@settings(deadline=None)
@given(
    st.integers(min_value=1, max_value=20),
    st.integers(min_value=1, max_value=200),
    st.integers(min_value=1, max_value=50),
    st.floats(min_value=0.01, max_value=3.0),
)
def test_generate_arrivals_count_matches_enumeration(rate, grouping, batch, hours):
    ub = _ub(rate=rate, grouping=grouping, batch=batch)
    horizon = hours * 3_600_000.0
    jobs = generate_arrivals(ub, horizon, 1, RATES)
    total_requests = int(grouping * rate * hours)
    expected = math.ceil(total_requests / batch)
    assert len(jobs) == expected == arrival_count(ub, horizon)
    assert sum(j.batch_size for j in jobs) == total_requests


def _per_job(ub, arrival, batch, dc_rates):
    rate, bandwidth = dc_rates
    return make_job(
        0,
        arrival,
        processing_time(ub.instruction_length * batch, rate),
        origin_ub=ub.id,
        transfer=transfer_time(ub.data_size_per_request * batch, bandwidth),
        batch_size=batch,
    )


def reference_arrivals(ub, horizon, seed, rates):
    """`generate_arrivals` by the per-job formula: one `uniform` draw and
    one `processing_time` and one `transfer_time` per job, batch k
    holding min(full, requests - k * full) requests."""
    rng = random.Random(f"{seed}:{ub.id}")
    requests = int(requests_over(ub, horizon))
    full = ub.request_grouping
    return [
        _per_job(ub, rng.uniform(0.0, horizon), min(full, requests - k * full), rates[ub.target_dc])
        for k in range(arrival_count(ub, horizon))
    ]


def reference_sweep(user_bases, horizon, seed, counts, rates):
    """`generate_sweep_arrivals` by the per-job formula, given the jobs
    each user base makes."""
    jobs = []
    for ub, n in zip(user_bases, counts):
        rng = random.Random(f"{seed}:sweep:{sum(counts)}:{ub.id}")
        batch, dc_rates = ub.request_grouping, rates[ub.target_dc]
        jobs += [_per_job(ub, rng.uniform(0.0, horizon), batch, dc_rates) for _ in range(n)]
    return jobs


def _counts(jobs, user_bases):
    return [sum(j.origin_ub == ub.id for j in jobs) for ub in user_bases]


user_bases = st.builds(
    _ub,
    rate=st.floats(min_value=0, max_value=20),
    grouping=st.integers(min_value=1, max_value=200),
    batch=st.integers(min_value=1, max_value=50),
    instruction_length=st.floats(min_value=1, max_value=1e4),
    data_size_per_request=st.floats(min_value=0, max_value=1e6),
)
horizons = st.floats(min_value=1.0, max_value=2 * 3_600_000.0)
# (VM rate, bandwidth) of a datacenter
dc_rates = st.tuples(
    st.floats(min_value=1e-3, max_value=1e3), st.floats(min_value=1e-3, max_value=1e6)
)
R40 = (40.0, 1000.0)
seeds = st.integers(min_value=0, max_value=2**32)


def _fields(jobs):
    return [trace_fields(j) for j in jobs]


@settings(deadline=None)
@given(ub=user_bases, horizon=horizons, dc_rate=dc_rates, seed=seeds)
@example(ub=_ub(grouping=21), horizon=3_600_000.0, dc_rate=R40, seed=1)  # 252: short last
@example(ub=_ub(grouping=25), horizon=3_600_000.0, dc_rate=R40, seed=1)  # 300: exact
@example(ub=_ub(rate=1, grouping=1), horizon=3_600_000.0, dc_rate=R40, seed=1)  # 1 request
@example(ub=_ub(rate=0), horizon=3_600_000.0, dc_rate=R40, seed=1)  # no request
def test_generate_arrivals_matches_the_per_job_formula(ub, horizon, dc_rate, seed):
    rates = {"DC1": dc_rate}
    jobs = generate_arrivals(ub, horizon, seed, rates)
    assert _fields(jobs) == _fields(reference_arrivals(ub, horizon, seed, rates))


@settings(deadline=None)
@given(
    ubs=st.lists(user_bases, min_size=1, max_size=3),
    horizon=horizons,
    dc_rate=dc_rates,
    seed=seeds,
    total=st.integers(min_value=0, max_value=300),
)
def test_generate_sweep_arrivals_matches_the_per_job_formula(ubs, horizon, dc_rate, seed, total):
    ubs = [dataclasses.replace(ub, id=f"UB{i}") for i, ub in enumerate(ubs)]
    rates = {"DC1": dc_rate}
    jobs = generate_sweep_arrivals(ubs, horizon, seed, total, rates)
    expected = reference_sweep(ubs, horizon, seed, _counts(jobs, ubs), rates)
    assert _fields(jobs) == _fields(expected)


@settings(deadline=None)
@given(
    ubs=st.lists(user_bases, min_size=1, max_size=4),
    horizon=horizons,
    total=st.integers(min_value=1, max_value=300),
)
def test_sweep_makes_total_jobs_split_by_largest_remainder(ubs, horizon, total):
    ubs = [dataclasses.replace(ub, id=f"UB{i}") for i, ub in enumerate(ubs)]
    jobs = generate_sweep_arrivals(ubs, horizon, 1, total, RATES)
    assert len(jobs) == total
    batch = {ub.id: ub.request_grouping for ub in ubs}
    assert all(j.batch_size == batch[j.origin_ub] for j in jobs)
    weights = [max(requests_over(ub, horizon), 1.0) for ub in ubs]
    exact = [total * w / sum(weights) for w in weights]
    counts = _counts(jobs, ubs)
    # each user base gets its share rounded down or up, and the ones
    # rounded up have the largest remainders
    assert all(int(x) <= n <= int(x) + 1 for x, n in zip(exact, counts))
    up = [x - int(x) for x, n in zip(exact, counts) if n > int(x)]
    down = [x - int(x) for x, n in zip(exact, counts) if n == int(x)]
    assert not up or not down or min(up) >= max(down)


def test_sweep_split_ties_go_to_the_earlier_user_base():
    equal = [_ub(id=f"UB{i}") for i in range(3)]
    assert _counts(generate_sweep_arrivals(equal, 3_600_000.0, 1, 4, RATES), equal) == [2, 1, 1]
    assert _counts(generate_sweep_arrivals(equal, 3_600_000.0, 1, 5, RATES), equal) == [2, 2, 1]
    # a user base with no requests weighs as one request
    idle = [_ub(id="UB0", rate=0), _ub(id="UB1", rate=0)]
    assert _counts(generate_sweep_arrivals(idle, 3_600_000.0, 1, 3, RATES), idle) == [2, 1]
    uneven = [_ub(id="UB0", rate=12), _ub(id="UB1", rate=24)]  # shares 10/3 and 20/3
    assert _counts(generate_sweep_arrivals(uneven, 3_600_000.0, 1, 10, RATES), uneven) == [3, 7]


@pytest.mark.parametrize(
    "ubs, horizon, total",
    [
        ([_ub()], 3_600_000.0, 0),
        ([_ub()], 3_600_000.0, -1),
        ([], 3_600_000.0, 10),
        ([_ub()], 0.0, 10),
        ([_ub()], -1.0, 10),
    ],
)
def test_sweep_makes_no_jobs(ubs, horizon, total):
    assert generate_sweep_arrivals(ubs, horizon, 1, total, RATES) == []


def test_sweep_level_arrivals_depend_only_on_seed_user_base_and_level():
    ubs = [_ub(id="UB0"), _ub(id="UB1", rate=30)]
    level = generate_sweep_arrivals(ubs, 3_600_000.0, 7, 10, RATES)
    for other in (5, 15, 20):
        generate_sweep_arrivals(ubs, 3_600_000.0, 7, other, RATES)
    assert _fields(generate_sweep_arrivals(ubs, 3_600_000.0, 7, 10, RATES)) == _fields(level)
    # each user base draws from its own stream: alone, UB0 makes all ten
    # jobs, and the first of them are the ones it made beside UB1
    alone = generate_sweep_arrivals(ubs[:1], 3_600_000.0, 7, 10, RATES)
    ub0 = [j for j in level if j.origin_ub == "UB0"]
    assert _fields(alone[: len(ub0)]) == _fields(ub0)
    other_seed = generate_sweep_arrivals(ubs, 3_600_000.0, 8, 10, RATES)
    assert [j.arrival for j in other_seed] != [j.arrival for j in level]


def test_a_job_is_96_bytes_and_each_batch_class_shares_one_spec():
    """A job holds 8 slots, at most 96 bytes. The full batches of a user
    base share one `spec`, its short last batch has its own, and the
    jobs of one user base at a sweep level share one."""
    jobs = generate_arrivals(_ub(grouping=21), 3_600_000.0, 1, RATES)  # 252 requests
    assert max(map(sys.getsizeof, jobs)) <= 96
    *full, last = jobs
    assert [j.batch_size for j in jobs] == [100, 100, 52]
    assert full[0].spec is full[1].spec
    assert last.spec is not full[0].spec
    level = generate_sweep_arrivals([_ub()], 3_600_000.0, 1, 10, RATES)
    assert len(level) == 10 and len({id(j.spec) for j in level}) == 1


def _dc_with_queues(queue_lens, capacity):
    vms = []
    for i, n in enumerate(queue_lens):
        vm = VmInstance(id=i)
        vm.queue = [make_job(100 * i + k, 0.0, 1.0) for k in range(n)]
        vms.append(vm)
    return Datacenter(id="DC1", vms=vms, capacity=capacity)


def test_admit_queue_cap_saturated():
    dc = _dc_with_queues([1, 1], capacity=1)
    result = admit(make_job(9, 0.0, 1.0), dc, 0.0)
    assert result == AdmissionResult(False, "QueueFull")


def test_admit_queue_cap_with_free_slot():
    dc = _dc_with_queues([1, 0], capacity=1)
    assert admit(make_job(9, 0.0, 1.0), dc, 0.0).admitted


def test_open_vms_counts_jobs_in_transit():
    dc = _dc_with_queues([1, 0, 0], capacity=1)
    assert dc.open_ids == [1, 2]
    dc.vms[1].incoming.append(make_job(8, 0.0, 1.0))
    assert Datacenter(id="DC1", vms=dc.vms, capacity=dc.capacity).open_ids == [2]


def test_datacenter_counts_queued_jobs_not_jobs_in_transit():
    dc = _dc_with_queues([3, 0, 2], capacity=4)
    assert dc.queued == 5
    dc.vms[1].incoming.append(make_job(8, 0.0, 1.0))
    assert Datacenter(id="DC1", vms=dc.vms, capacity=dc.capacity).queued == 5


def test_datacenter_sets_each_vm_dc():
    dc = _dc_with_queues([1, 0], capacity=1)
    assert all(vm.dc is dc for vm in dc.vms)
    assert "dc=" not in repr(dc.vms[0])  # the back-reference stays out of repr


def test_admit_deadline_mode_always_admits():
    dc = _dc_with_queues([5, 5], capacity=math.inf)
    assert admit(make_job(9, 0.0, 1.0), dc, 0.0).admitted


def test_job_state_follows_its_times():
    """`state` is read from start and outcome, is no field, and cannot
    be assigned; neither can the finish it implies."""
    assert "state" not in [f.name for f in dataclasses.fields(Job)]
    job = make_job(1, 0.0, 1.0)
    assert job.state == "queued"
    job.start = 2.0
    assert job.state == "running"
    job.outcome = COMPLETED
    assert job.state == "completed"
    rejected = make_job(2, 0.0, 1.0, outcome="QueueFull")
    assert rejected.state == "rejected"
    with pytest.raises(AttributeError):
        job.state = "queued"
    with pytest.raises(AttributeError):
        job.finish = 3.0
    with pytest.raises(TypeError):
        Job(3, 0.0, 1.0, (None, 0.0, 1), state="queued")


DEADLINE_SCN = """
[scenario]
name = deadline_trace
time_unit = ms
horizon = 100
seed = 1

[datacenter.DC1]
vms = 1
rate = 100
memory = 1
bandwidth = 1000
bandwidth_unit = units_per_ms

[policy]
scheduler = rr
admission = deadline
deadline = 10

[jobs]
job = 1 0 20
job = 2 0 5
"""


def test_deadline_expiry_rejects_queued_job():
    # one VM, first job occupies it past the second job's deadline
    metrics = Simulation(load_scenario(DEADLINE_SCN)).run()
    by_id = {t.id: t for t in metrics.traces}
    assert by_id[1].state == "completed"
    assert by_id[2].state == "rejected"
    assert by_id[2].reject_reason == "DeadlineExpired"
    assert by_id[2].rejected_at - by_id[2].arrival == 10.0
    assert by_id[2].start is None


def test_deadline_wait_invariant(sweep_config):
    deadline_ms = sweep_config.policy.deadline
    metrics = Simulation(sweep_config, total_jobs=25).run()
    for t in metrics.traces:
        if t.state == "completed":
            assert t.start - t.arrival < deadline_ms
        else:
            # expiry fires at arrival + deadline; allow float subtraction noise
            assert t.rejected_at - t.arrival >= deadline_ms - 1e-6
