"""Engine-level checks of the wait-vs-hop migration check.

The differential oracle runs random overloaded 2-4 VM scenarios through
the engine and through a subclass whose `_migration_check` is the
original O(V^2 Q^2) rescan of every queue, and requires identical
migration logs and job traces.

Demands are whole milliseconds. The engine sums sjf queues in service
order while the rescan sums them in queue order; the two orders agree
exactly for integer-valued demands, but other float demands can differ
in the last ulp.
"""

import dataclasses

from hypothesis import given, settings, strategies as st

from dispatchsim.engine import JOB_ARRIVAL, Event, Simulation
from dispatchsim.policies import migration_decision
from dispatchsim.scenario import load_scenario


class RescanSimulation(Simulation):
    """Reference: recomputes every wait from the queues on each decision."""

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
                    if v is not vm and len(v.queue) < mean_qlen
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
                self._job_vm[job.id] = None
                hop = self.hop_ms
                self.migration_log.append(
                    (job.id, vm.id, target_id, now, current_wait,
                     candidates[target_id] + hop)
                )
                self.calendar.schedule(
                    Event(
                        now + hop,
                        JOB_ARRIVAL,
                        {"job": job.id, "dc": dc.id, "vm": target_id},
                    )
                )


@st.composite
def overloaded_scenarios(draw, admission):
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
        "migration = on",
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


@settings(max_examples=150, deadline=None)
@given(overloaded_scenarios("deadline"))
def test_migration_check_matches_rescan(text):
    fast = Simulation(load_scenario(text)).run()
    ref = RescanSimulation(load_scenario(text)).run()
    assert fast.migration_log == ref.migration_log
    assert [dataclasses.astuple(t) for t in fast.traces] == [
        dataclasses.astuple(t) for t in ref.traces
    ]
    assert fast.event_count == ref.event_count


@settings(max_examples=150, deadline=None)
@given(overloaded_scenarios("queue_cap"))
def test_queue_cap_holds_under_migration(text):
    config = load_scenario(text)
    capacity = config.policy.queue_capacity

    def checked(handler):
        def run_and_check(sim, ev, now):
            handler(sim, ev, now)
            for vm in sim.datacenters["DC1"].vms:
                assert len(vm.queue) <= capacity, (ev.kind, now, vm.id)

        return run_and_check

    class CheckedSimulation(Simulation):
        _HANDLERS = {kind: checked(h) for kind, h in Simulation._HANDLERS.items()}

    metrics = CheckedSimulation(config).run()
    assert metrics.completed + metrics.rejected == metrics.submitted
