"""Engine-level checks of the wait-vs-hop migration check and of
queue_cap admission.

The differential oracle runs random overloaded 2-4 VM scenarios through
the engine and through a subclass that keeps the original code: the
O(V^2 Q^2) rescan of every queue as `_migration_check` (which never
skips a settled datacenter), the `all()` scan as admission and the
skip-full-VM loop as `_dispatch_vm`. It requires identical migration
logs and job traces.

Demands are whole milliseconds. The engine sums sjf queues in service
order while the rescan sums them in queue order; the two orders agree
exactly for integer-valued demands, but other float demands can differ
in the last ulp.
"""

import copy
import dataclasses
from unittest import mock

from hypothesis import example, given, settings, strategies as st

from dispatchsim import engine
from dispatchsim.engine import JOB_ARRIVAL, Simulation
from dispatchsim.model import AdmissionResult
from dispatchsim.policies import migration_decision
from dispatchsim.scenario import load_scenario


def _step_wheel(dc):
    """The plain round-robin wheel: the VM under the pointer, full or not."""
    vm = dc.vms[dc.rr_pointer]
    dc.rr_pointer = (dc.rr_pointer + 1) % len(dc.vms)
    return vm


def _all_full_admit(job, dc, now):
    """`model.admit` as it was before `Datacenter.open_vms`."""
    policy = dc.admission
    if policy.mode == "queue_cap":
        if all(len(vm.queue) + len(vm.incoming) >= policy.capacity for vm in dc.vms):
            return AdmissionResult(False, "QueueFull")
    return AdmissionResult(True)


class RescanSimulation(Simulation):
    """Reference: recomputes every wait from the queues on each decision,
    admits by scanning every VM and dispatches by stepping the plain
    round-robin wheel past full VMs."""

    def run(self):
        with mock.patch.object(engine, "admit", _all_full_admit):
            return super().run()

    def _dispatch_vm(self, dc):
        vm = _step_wheel(dc)
        if self.admission.mode == "queue_cap":
            # admission guaranteed a free slot somewhere; skip full VMs,
            # counting jobs in transit toward each VM as queued
            for _ in range(len(dc.vms)):
                if len(vm.queue) + len(vm.incoming) < self.admission.capacity:
                    break
                vm = _step_wheel(dc)
        return vm

    def _sjf_key(self, job, rate):
        return (job.service_demand(rate), job.arrival, job.id)

    def _wait_ahead_of(self, vm, job, now):
        w = self._residual(vm, now)
        if self.scheduler == "sjf":
            key = self._sjf_key(job, vm.rate)
            ahead = [j for j in vm.queue if j is not job and self._sjf_key(j, vm.rate) < key]
        else:
            idx = vm.queue.index(job)
            ahead = vm.queue[:idx]
        return w + sum(j.service_demand(vm.rate) for j in ahead)

    def _wait_if_added(self, vm, job, now):
        w = self._residual(vm, now)
        if self.scheduler == "sjf":
            key = self._sjf_key(job, vm.rate)
            w += sum(
                j.service_demand(vm.rate)
                for j in vm.queue
                if self._sjf_key(j, vm.rate) < key
            )
        else:
            w += sum(j.service_demand(vm.rate) for j in vm.queue)
        w += sum(j.service_demand(vm.rate) for j in vm.incoming)
        return w

    def _migration_check(self, dc, now):
        if len(dc.vms) < 2:
            return
        for vm in dc.vms:
            for job in list(vm.queue):
                if job.migrations >= self.migration_cap:
                    continue
                mean_qlen = sum(len(v.queue) for v in dc.vms) / len(dc.vms)
                candidates = {
                    v.id: self._wait_if_added(v, job, now)
                    for v in dc.vms
                    if v is not vm
                    and len(v.queue) < mean_qlen
                    and (
                        self.admission.mode != "queue_cap"
                        or len(v.queue) + len(v.incoming) < self.admission.capacity
                    )
                }
                if not candidates:
                    continue
                current_wait = self._wait_ahead_of(vm, job, now)
                target_id = migration_decision(current_wait, candidates, self.hop_ms)
                if target_id is None:
                    continue
                target = dc.vms[target_id]
                vm.queue.remove(job)
                job.migrations += 1
                target.incoming.append(job)
                self._job_vm[job.id] = target
                hop = self.hop_ms
                self.migration_log.append(
                    (job.id, vm.id, target_id, now, current_wait,
                     candidates[target_id] + hop)
                )
                self.calendar.schedule(now + hop, JOB_ARRIVAL, job)


@st.composite
def overloaded_scenarios(draw, admission, migration="on"):
    """Scenario text: one 2-4 VM datacenter fed explicit jobs with
    whole-ms bursts, at a load of up to 4x its capacity."""
    vms = draw(st.integers(2, 4))
    n = draw(st.integers(10, 60))
    bursts = draw(st.lists(st.integers(1, 40), min_size=n, max_size=n))
    rho = draw(st.sampled_from([0.5, 1.2, 2.0, 4.0]))
    span = max(1, int(sum(bursts) / (vms * rho)))
    arrivals = sorted(draw(st.lists(st.integers(0, span), min_size=n, max_size=n)))
    policy = [
        f"scheduler = {draw(st.sampled_from(['rr', 'sjf']))}",
        f"migration = {migration}",
        f"hop_time = {draw(st.integers(0, 10))}",
        f"migration_cadence = {draw(st.integers(1, 20))}",
        f"migration_cap = {draw(st.integers(0, 3))}",
    ]
    if admission == "deadline":
        policy += ["admission = deadline", f"deadline = {draw(st.sampled_from([20, 80, 10**6]))}"]
    else:
        policy += ["admission = queue_cap", f"queue_capacity = {draw(st.integers(1, 4))}"]
    jobs = [f"job = {i} {a} {b}" for i, (a, b) in enumerate(zip(arrivals, bursts), start=1)]
    return "\n".join(
        [
            "[scenario]",
            "name = random",
            "time_unit = ms",
            f"horizon = {span + 1}",
            "seed = 1",
            "[datacenter.DC1]",
            f"vms = {vms}",
            "rate = 100",
            "memory = 1",
            "bandwidth = 1000",
            "bandwidth_unit = units_per_ms",
            "[policy]",
            *policy,
            "[jobs]",
            *jobs,
        ]
    ) + "\n"


def assert_same_run(text):
    fast = Simulation(load_scenario(text)).run()
    ref = RescanSimulation(load_scenario(text)).run()
    assert fast.migration_log == ref.migration_log
    assert [dataclasses.astuple(t) for t in fast.traces] == [
        dataclasses.astuple(t) for t in ref.traces
    ]
    assert fast.event_count == ref.event_count


ADMISSION_MODES = st.sampled_from(["deadline", "queue_cap"])


@settings(max_examples=150, deadline=None)
@given(ADMISSION_MODES.flatmap(overloaded_scenarios))
def test_migration_check_matches_rescan(text):
    assert_same_run(text)


@settings(max_examples=60, deadline=None)
@given(overloaded_scenarios("queue_cap", migration="off"))
def test_queue_cap_admission_matches_rescan_without_migration(text):
    assert_same_run(text)


def checked_simulation(check):
    """Simulation subclass that calls check(sim, kind, now) after every
    event, where kind is the event's kind."""

    def checked(kind, handler):
        def run_and_check(sim, subject, now):
            handler(sim, subject, now)
            check(sim, kind, now)

        return run_and_check

    class CheckedSimulation(Simulation):
        _HANDLERS = {kind: checked(kind, h) for kind, h in Simulation._HANDLERS.items()}

    return CheckedSimulation


@settings(max_examples=150, deadline=None)
@given(overloaded_scenarios("queue_cap"))
def test_queue_cap_holds_under_migration(text):
    config = load_scenario(text)
    capacity = config.policy.queue_capacity

    def queues_within_capacity(sim, kind, now):
        for vm in sim.datacenters["DC1"].vms:
            assert len(vm.queue) <= capacity, (kind, now, vm.id)

    metrics = checked_simulation(queues_within_capacity)(config).run()
    assert metrics.completed + metrics.rejected == metrics.submitted


# sjf and queue_cap: a pass that moves jobs can leave a move for a
# second pass at the same instant (a VM that shed jobs becomes a
# target), so only a pass that moved nothing may settle its datacenter.
SECOND_PASS_MOVES = "\n".join(
    [
        "[scenario]", "name = random", "time_unit = ms", "horizon = 444", "seed = 1",
        "[datacenter.DC1]", "vms = 3", "rate = 100", "memory = 1", "bandwidth = 1000",
        "bandwidth_unit = units_per_ms",
        "[policy]", "scheduler = sjf", "migration = on", "hop_time = 6",
        "migration_cadence = 1", "migration_cap = 3", "admission = queue_cap",
        "queue_capacity = 3",
        "[jobs]",
        *(
            f"job = {i} {a} {b}"
            for i, a, b in [
                (22, 7, 35), (25, 11, 34), (27, 16, 11), (28, 16, 1), (30, 20, 36),
                (31, 21, 7), (32, 23, 33), (33, 24, 5), (34, 28, 16), (37, 31, 16),
                (40, 34, 40), (41, 35, 39), (45, 40, 21),
            ]
        ),
    ]
) + "\n"


@settings(max_examples=80, deadline=None)
@given(ADMISSION_MODES.flatmap(overloaded_scenarios))
@example(SECOND_PASS_MOVES)
def test_datacenter_summaries_hold_after_every_event(text):
    """After every event each `open_vms` equals a recount, and a rescan
    of a settled datacenter, run on a copy, moves no job. Once an
    instant's events are done, no VM is idle with a non-empty queue."""
    config = load_scenario(text)
    settled_checks = 0

    def summaries_hold(sim, kind, now):
        nonlocal settled_checks
        instant_done = not len(sim.calendar) or sim.calendar.peek_time() > now
        for dc in sim.datacenters.values():
            assert dc.open_vms == sum(map(dc.admission.has_room, dc.vms)), (kind, now)
            if instant_done:
                for vm in dc.vms:
                    assert vm.running is not None or not vm.queue, (kind, now, vm.id)
            if dc.settled:
                settled_checks += 1
                twin = copy.deepcopy(sim)
                twin.__class__ = RescanSimulation
                twin._migration_check(twin.datacenters[dc.id], now)
                assert twin.migration_log == sim.migration_log, (kind, now)

    metrics = checked_simulation(summaries_hold)(config).run()
    assert metrics.completed + metrics.rejected == metrics.submitted
    assert settled_checks > 0
