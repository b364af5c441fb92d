import math

import pytest
from hypothesis import given, settings, strategies as st

from dispatchsim.engine import Simulation
from dispatchsim.model import (
    AdmissionResult,
    Datacenter,
    Job,
    UserBase,
    VmInstance,
    ZeroBandwidth,
    ZeroRate,
    admit,
    arrival_count,
    generate_arrivals,
    processing_time,
    transfer_time,
)
from dispatchsim.scenario import load_scenario


def test_processing_time_default_rate():
    assert processing_time(250, 100) == 2.5


def test_processing_time_zero_length():
    assert processing_time(0, 100) == 0


def test_processing_time_half_rate():
    assert processing_time(250, 50) == 5.0


def test_processing_time_zero_rate():
    with pytest.raises(ZeroRate):
        processing_time(250, 0)


def test_transfer_time_ub3_dc1():
    assert transfer_time(100000, 1000) == 100


def test_transfer_time_zero_data():
    assert transfer_time(0, 1000) == 0


def test_transfer_time_ub2_dc3():
    assert transfer_time(10000, 10000) == 1


def test_transfer_time_zero_bandwidth():
    with pytest.raises(ZeroBandwidth):
        transfer_time(100, 0)


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


RATES = {"DC1": 100.0}


def test_generate_arrivals_batch_count_one_hour():
    jobs = generate_arrivals(_ub(), 3_600_000.0, 42, {"DC1": 40.0})
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


def _dc_with_queues(queue_lens, capacity):
    vms = []
    for i, n in enumerate(queue_lens):
        vm = VmInstance(id=i, bandwidth=1)
        vm.queue = [Job(id=100 * i + k, arrival=0.0, demand=1.0) for k in range(n)]
        vms.append(vm)
    return Datacenter(id="DC1", vms=vms, capacity=capacity)


def test_admit_queue_cap_saturated():
    dc = _dc_with_queues([1, 1], capacity=1)
    result = admit(Job(id=9, arrival=0.0, demand=1.0), dc, 0.0)
    assert result == AdmissionResult(False, "QueueFull")


def test_admit_queue_cap_with_free_slot():
    dc = _dc_with_queues([1, 0], capacity=1)
    assert admit(Job(id=9, arrival=0.0, demand=1.0), dc, 0.0).admitted


def test_open_vms_counts_jobs_in_transit():
    dc = _dc_with_queues([1, 0, 0], capacity=1)
    assert dc.open_vms == 2
    dc.vms[1].incoming.append(Job(id=8, arrival=0.0, demand=1.0))
    assert Datacenter(id="DC1", vms=dc.vms, capacity=dc.capacity).open_vms == 1


def test_datacenter_sets_each_vm_dc():
    dc = _dc_with_queues([1, 0], capacity=1)
    assert all(vm.dc is dc for vm in dc.vms)
    assert "dc=" not in repr(dc.vms[0])  # the back-reference stays out of repr


def test_admit_deadline_mode_always_admits():
    dc = _dc_with_queues([5, 5], capacity=math.inf)
    assert admit(Job(id=9, arrival=0.0, demand=1.0), dc, 0.0).admitted


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
