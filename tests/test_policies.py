import itertools

import pytest
from hypothesis import given, settings, strategies as st

from dispatchsim.engine import Simulation
from dispatchsim.model import AdmissionPolicy, Datacenter, Job, VmInstance
from dispatchsim.policies import (
    PolicyError,
    migration_decision,
    rr_next_vm,
)

from conftest import sjf_at_zero


def _dc(n_vms):
    vms = [VmInstance(id=i, rate=100, bandwidth=1) for i in range(n_vms)]
    return Datacenter(
        id="DC", vms=vms, admission=AdmissionPolicy(mode="deadline", deadline=1.0)
    )


def test_rr_wheel_semantics():
    dc = _dc(3)
    assert [rr_next_vm(dc).id for _ in range(4)] == [0, 1, 2, 0]


def test_rr_single_vm():
    dc = _dc(1)
    assert all(rr_next_vm(dc).id == 0 for _ in range(5))


def test_rr_pigeonhole_40_vms():
    dc = _dc(40)
    seen = [rr_next_vm(dc).id for _ in range(40)]
    assert sorted(seen) == list(range(40))


def test_rr_empty_datacenter():
    dc = _dc(1)
    dc.vms = []
    with pytest.raises(PolicyError):
        rr_next_vm(dc)


def _queue_cap_dc(queue_lens, capacity=1):
    dc = _dc(len(queue_lens))
    dc.admission = AdmissionPolicy(mode="queue_cap", capacity=capacity)
    for vm, n in zip(dc.vms, queue_lens):
        vm.queue = [Job(id=100 * vm.id + k, arrival=0.0) for k in range(n)]
    return dc


def test_rr_skips_vms_without_room():
    dc = _queue_cap_dc([0, 1, 1, 0])
    dc.rr_pointer = 1
    assert rr_next_vm(dc).id == 3
    assert dc.rr_pointer == 0
    assert rr_next_vm(dc).id == 0
    assert dc.rr_pointer == 1


def test_rr_queue_cap_counts_queued_and_incoming_jobs():
    dc = _queue_cap_dc([1, 0, 0])
    dc.vms[1].incoming.append(Job(id=2, arrival=0.0))
    assert rr_next_vm(dc).id == 2
    assert dc.rr_pointer == 0


def test_rr_no_vm_with_room():
    dc = _queue_cap_dc([2, 2, 2], capacity=2)
    dc.rr_pointer = 2
    with pytest.raises(PolicyError):
        rr_next_vm(dc)
    assert dc.rr_pointer == 2


@given(st.integers(min_value=1, max_value=50), st.integers(min_value=1, max_value=6))
def test_rr_fairness_after_full_cycles(v, k):
    dc = _dc(v)
    counts = {}
    for _ in range(k * v):
        vm = rr_next_vm(dc)
        counts[vm.id] = counts.get(vm.id, 0) + 1
    assert all(counts[i] == k for i in range(v))


def _mean_wait_of_order(jobs, order):
    by_id = {j[0]: j for j in jobs}
    t = 0.0
    waits = []
    for jid in order:
        _, arrival, burst = by_id[jid]
        t = max(t, arrival)
        waits.append(t - arrival)
        t += burst
    return sum(waits) / len(waits)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.integers(min_value=1, max_value=50), min_size=1, max_size=6, unique=True
    )
)
def test_sjf_at_zero_matches_brute_force(bursts):
    jobs = [(i + 1, 0.0, float(b)) for i, b in enumerate(bursts)]
    traces = Simulation(sjf_at_zero(bursts)).run().traces
    order = [t.id for t in sorted(traces, key=lambda t: t.start)]
    assert order == [j[0] for j in sorted(jobs, key=lambda j: (j[2], j[0]))]
    best = min(
        _mean_wait_of_order(jobs, perm)
        for perm in itertools.permutations(j[0] for j in jobs)
    )
    got = sum(t.start - t.arrival for t in traces) / len(jobs)
    assert got == best


def test_migration_decision_adds_hop_to_every_candidate():
    # 5 + 4 beats staying at 10; 5 + 5 only ties it
    assert migration_decision(10.0, {1: 5.0, 2: 7.0}, 4.0) == 1
    assert migration_decision(10.0, {1: 5.0, 2: 7.0}, 5.0) is None


def test_migration_decision_idle_candidate():
    assert migration_decision(10.0, {2: 0.0}, 4.0) == 2


def test_migration_decision_hop_too_expensive():
    assert migration_decision(3.0, {1: 0.0}, 5.0) is None


def test_migration_decision_no_candidates():
    assert migration_decision(10.0, {}, 0.0) is None


def test_migration_decision_exact_tie_means_stay():
    assert migration_decision(4.0, {1: 0.0}, 4.0) is None


def test_migration_decision_tie_breaks_to_smaller_vm():
    assert migration_decision(10.0, {2: 3.0, 1: 3.0}, 1.0) == 1
