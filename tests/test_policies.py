import itertools
import math

from hypothesis import given, settings, strategies as st

from dispatchsim.engine import Simulation, migration_decision, rr_next_vm
from dispatchsim.model import Datacenter, VmInstance

from conftest import make_job, sjf_at_zero


def _dc(n_vms):
    vms = [VmInstance(id=i) for i in range(n_vms)]
    return Datacenter(id="DC", vms=vms, capacity=math.inf)


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


def _queue_cap_dc(queue_lens, capacity=1, incoming_lens=None):
    """A datacenter built from VMs whose queues (and incoming lists) are
    already filled, so `Datacenter.open_ids` indexes them."""
    vms = [VmInstance(id=i) for i in range(len(queue_lens))]
    for vm, n, m in zip(vms, queue_lens, incoming_lens or [0] * len(vms)):
        vm.queue = [make_job(100 * vm.id + k, 0.0, 1.0) for k in range(n)]
        vm.incoming = [make_job(100 * vm.id + 50 + k, 0.0, 1.0) for k in range(m)]
    return Datacenter(id="DC", vms=vms, capacity=capacity)


def test_rr_skips_vms_without_room():
    dc = _queue_cap_dc([0, 1, 1, 0])
    dc.rr_pointer = 1
    assert rr_next_vm(dc).id == 3
    assert dc.rr_pointer == 0
    assert rr_next_vm(dc).id == 0
    assert dc.rr_pointer == 1


def test_rr_queue_cap_counts_queued_and_incoming_jobs():
    dc = _queue_cap_dc([1, 0, 0], incoming_lens=[0, 1, 0])
    assert rr_next_vm(dc).id == 2
    assert dc.rr_pointer == 0


def _wheel_scan(dc):
    """Round-robin by stepping the wheel one VM at a time past full VMs:
    the VM found and the pointer after it. Some VM must have room."""
    n = len(dc.vms)
    for step in range(n):
        vm = dc.vms[(dc.rr_pointer + step) % n]
        if dc.has_room(vm):
            return vm, (vm.id + 1) % n


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 4), st.integers(0, 3)), min_size=1, max_size=12),
    st.sampled_from([1, 2, 3, 5, math.inf]),
    st.data(),
)
def test_rr_index_matches_the_wheel_scan(lens, capacity, data):
    # rr runs only after admission found room, so one drawn VM is empty
    lens[data.draw(st.integers(0, len(lens) - 1))] = (0, 0)
    dc = _queue_cap_dc([q for q, _ in lens], capacity, [m for _, m in lens])
    dc.rr_pointer = data.draw(st.integers(0, len(lens) - 1))
    want_vm, want_pointer = _wheel_scan(dc)
    assert rr_next_vm(dc) is want_vm
    assert dc.rr_pointer == want_pointer


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
    _, vm1, vm2 = _dc(3).vms
    # 5 + 4 beats staying at 10; 5 + 5 only ties it
    assert migration_decision(10.0, [(vm1, 5.0), (vm2, 7.0)], 4.0) == (vm1, 9.0)
    assert migration_decision(10.0, [(vm1, 5.0), (vm2, 7.0)], 5.0) is None


def test_migration_decision_idle_candidate():
    vm2 = _dc(3).vms[2]
    assert migration_decision(10.0, [(vm2, 0.0)], 4.0) == (vm2, 4.0)


def test_migration_decision_hop_too_expensive():
    vm1 = _dc(2).vms[1]
    assert migration_decision(3.0, [(vm1, 0.0)], 5.0) is None


def test_migration_decision_no_candidates():
    assert migration_decision(10.0, [], 0.0) is None


def test_migration_decision_exact_tie_means_stay():
    vm1 = _dc(2).vms[1]
    assert migration_decision(4.0, [(vm1, 0.0)], 4.0) is None


def test_migration_decision_tie_breaks_to_smaller_vm():
    # the engine passes targets in VM order, so the earlier pair is the
    # smaller VM id; the rule itself sorts nothing
    _, vm1, vm2 = _dc(3).vms
    assert migration_decision(10.0, [(vm1, 3.0), (vm2, 3.0)], 1.0) == (vm1, 4.0)
    assert migration_decision(10.0, [(vm2, 3.0), (vm1, 3.0)], 1.0) == (vm2, 4.0)
