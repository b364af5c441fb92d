"""Deterministic discrete-event core: virtual clock, event calendar,
and the run loop all dispatch/balancing policies plug into.

Simultaneous events pop in insertion order, so a run is a pure
function of (scenario, seed).
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from collections import Counter
from itertools import accumulate
from operator import attrgetter
from typing import NamedTuple

from .metrics import RunMetrics
from .model import (
    COMPLETED,
    QUEUED,
    REJECTED,
    RUNNING,
    AdmissionPolicy,
    Datacenter,
    Job,
    VmInstance,
    admit,
    arrival_count,
    generate_arrivals,
    generate_sweep_arrivals,
    transfer_time,
)
from .policies import migration_decision, rr_next_vm
from .scenario import ScenarioConfig

JOB_ARRIVAL = "JobArrival"
JOB_START = "JobStart"
JOB_FINISH = "JobFinish"
MIGRATION_CHECK = "MigrationCheck"
DEADLINE_EXPIRY = "DeadlineExpiry"

DEFAULT_EVENT_CAP = 10_000_000
DEFAULT_MIGRATION_CADENCE_MS = 10.0

_SJF_KEY = attrgetter("sjf_key")


class EngineError(Exception):
    pass


class PastEvent(EngineError):
    pass


class HorizonExceeded(EngineError):
    pass


class TooManyJobs(HorizonExceeded):
    """The scenario makes more jobs than the event cap lets a run reach."""


class Event(NamedTuple):
    """One scheduled event. `subject` is what its handler acts on: the
    Job of a JobArrival or DeadlineExpiry, the VmInstance of a JobStart
    or JobFinish, None for a MigrationCheck."""

    fire_at: float
    seq: int
    kind: str
    subject: object


class EventCalendar:
    """Priority queue of Events, which order as tuples on (fire_at,
    insertion seq); seq is unique, so subjects are never compared. The
    clock is the fire time of the last popped event and never
    decreases."""

    def __init__(self):
        self._heap: list = []
        self._seq = 0
        self.clock = 0.0

    def __len__(self) -> int:
        return len(self._heap)

    def schedule(self, fire_at: float, kind: str, subject: object = None) -> None:
        if fire_at < self.clock:
            raise PastEvent(
                f"cannot schedule {kind} at t={fire_at} before clock {self.clock}"
            )
        heapq.heappush(self._heap, Event(fire_at, self._seq, kind, subject))
        self._seq += 1

    def pop(self) -> Event:
        ev = heapq.heappop(self._heap)
        self.clock = ev.fire_at
        return ev

    def peek_time(self) -> float:
        return self._heap[0].fire_at


class Simulation:
    """One deterministic run of a scenario. Build, then call run()."""

    def __init__(
        self,
        config: ScenarioConfig,
        event_cap: int = DEFAULT_EVENT_CAP,
        total_jobs: int | None = None,
    ):
        self.config = config
        self.event_cap = event_cap
        u = config.unit_ms
        pol = config.policy

        self.scheduler = pol.scheduler
        self.migration_on = pol.migration
        self.migration_cap = pol.migration_cap
        self.cadence_ms = (
            pol.migration_cadence * u
            if pol.migration_cadence is not None
            else DEFAULT_MIGRATION_CADENCE_MS
        )
        self.hop_ms = pol.hop_time * u
        self.admission = AdmissionPolicy(
            mode=pol.admission_mode,
            deadline=None if pol.deadline is None else pol.deadline * u,
            capacity=pol.queue_capacity,
        )
        self._has_room = self.admission.has_room
        self.starvation_threshold_ms = (
            pol.starvation_threshold * u
            if pol.starvation_threshold is not None
            else self.admission.deadline
        )

        self.datacenters: dict[str, Datacenter] = {}
        for spec in config.datacenters:
            vms = [
                VmInstance(id=i, rate=spec.rate, bandwidth=spec.bandwidth_per_ms)
                for i in range(spec.vm_count)
            ]
            self.datacenters[spec.id] = Datacenter(
                id=spec.id, vms=vms, admission=self.admission
            )

        # the datacenter each job arrives at, by its origin user base;
        # explicit [jobs] entries (origin None) run on the first one
        self._dc_by_ub: dict[str | None, Datacenter] = {
            None: next(iter(self.datacenters.values()), None),
            **{ub.id: self.datacenters[ub.target_dc] for ub in config.user_bases},
        }

        # every job costs at least one event, so more jobs than the cap
        # could only end in HorizonExceeded after allocating them all
        count = len(config.jobs) + (
            total_jobs
            if total_jobs is not None
            else sum(arrival_count(ub, config.horizon_ms) for ub in config.user_bases)
        )
        if count > event_cap:
            raise TooManyJobs(
                f"scenario makes {count} jobs, more than the event cap {event_cap}"
            )
        explicit = [
            Job(id=j.id, arrival=j.arrival * u, burst=j.burst * u, data_size=j.data_size)
            for j in config.jobs
        ]
        if total_jobs is not None:
            generated = generate_sweep_arrivals(
                config.user_bases, config.horizon_ms, config.seed, total_jobs
            )
        else:
            generated = []
            for ub in config.user_bases:
                generated.extend(generate_arrivals(ub, config.horizon_ms, config.seed))
            generated.sort(key=lambda j: j.arrival)
        next_id = max((j.id for j in explicit), default=0) + 1
        for j in generated:
            j.id = next_id
            next_id += 1

        self.jobs: list[Job] = explicit + generated
        # the VM whose queue or incoming list holds each job; read only
        # while the job is queued
        self._job_vm: dict[int, VmInstance] = {}
        self._active = len(self.jobs)
        self.migration_log: list[tuple] = []
        self.event_count = 0
        self.calendar = EventCalendar()

    # -- helpers -----------------------------------------------------------

    def _pick_next(self, vm: VmInstance) -> Job:
        if self.scheduler == "sjf":
            return min(vm.queue, key=_SJF_KEY)
        return vm.queue[0]

    def _residual(self, vm: VmInstance, now: float) -> float:
        return max(0.0, vm.busy_until - now) if vm.running is not None else 0.0

    def _service_prefix(self, vm: VmInstance) -> list[float]:
        """Prefix sums of queued demand in service order (FIFO under rr,
        ascending sjf_key under sjf), rebuilt only after the queue
        changed. Under sjf, vm.service_keys holds the matching keys."""
        if vm.service_prefix is None:
            jobs = vm.queue
            if self.scheduler == "sjf":
                jobs = sorted(jobs, key=_SJF_KEY)
                vm.service_keys = [j.sjf_key for j in jobs]
            vm.service_prefix = list(accumulate((j.demand for j in jobs), initial=0.0))
        return vm.service_prefix

    # Every change to a queue or an incoming list goes through one of the
    # four helpers below, so the VM's service-order cache and the
    # datacenter's `settled` flag and `open_vms` count never go stale.
    # `open_vms` moves by one when the change fills or frees up the VM
    # under the admission rule.

    def _queue_add(self, vm: VmInstance, job: Job):
        was_open = self._has_room(vm)
        vm.queue.append(job)
        vm.service_prefix = None
        vm.dc.settled = False
        vm.dc.open_vms += self._has_room(vm) - was_open

    def _queue_remove(self, vm: VmInstance, job: Job):
        was_open = self._has_room(vm)
        vm.queue.remove(job)
        vm.service_prefix = None
        vm.dc.settled = False
        vm.dc.open_vms += self._has_room(vm) - was_open

    def _incoming_add(self, vm: VmInstance, job: Job):
        was_open = self._has_room(vm)
        vm.incoming.append(job)
        vm.incoming_sum += job.demand
        vm.dc.settled = False
        vm.dc.open_vms += self._has_room(vm) - was_open

    def _incoming_remove(self, vm: VmInstance, job: Job):
        was_open = self._has_room(vm)
        vm.incoming.remove(job)
        # re-summed rather than subtracted, so it stays the exact
        # left-to-right float sum over the list
        vm.incoming_sum = sum(j.demand for j in vm.incoming)
        vm.dc.settled = False
        vm.dc.open_vms += self._has_room(vm) - was_open

    def _enqueue(self, vm: VmInstance, job: Job, now: float):
        self._queue_add(vm, job)
        job.vm_history += (vm.id,)
        self._job_vm[job.id] = vm
        self._maybe_start(vm, now)

    def _maybe_start(self, vm: VmInstance, now: float):
        if vm.running is None and vm.queue and not vm.start_pending:
            vm.start_pending = True
            self.calendar.schedule(now, JOB_START, vm)

    def _reject(self, job: Job, reason: str, now: float):
        job.state = REJECTED
        job.reject_reason = reason
        job.rejected_at = now
        self._active -= 1

    # -- event handlers ----------------------------------------------------

    def _on_arrival(self, job: Job, now: float):
        if job.vm_history:  # queued before, so a migration landing
            if job.state != QUEUED:
                return  # expired in transit
            vm = self._job_vm[job.id]
            self._incoming_remove(vm, job)
            self._enqueue(vm, job, now)
            return

        dc = self._dc_by_ub[job.origin_ub]
        result = admit(job, dc, now)
        if not result.admitted:
            self._reject(job, result.reason, now)
            return
        if self.admission.mode == "deadline":
            self.calendar.schedule(now + self.admission.deadline, DEADLINE_EXPIRY, job)
        vm = self._dispatch_vm(dc)
        job.demand = job.service_demand(vm.rate)
        if self.scheduler == "sjf":
            job.sjf_key = (job.demand, job.arrival, job.id)
        self._enqueue(vm, job, now)

    def _dispatch_vm(self, dc: Datacenter) -> VmInstance:
        # admission guaranteed that some VM has room; rr skips full ones
        return rr_next_vm(dc)

    def _on_start(self, vm: VmInstance, now: float):
        vm.start_pending = False
        if vm.running is not None or not vm.queue:
            return
        job = self._pick_next(vm)
        self._queue_remove(vm, job)
        job.state = RUNNING
        job.start = now
        vm.running = job
        vm.busy_until = now + job.demand
        self.calendar.schedule(vm.busy_until, JOB_FINISH, vm)

    def _on_finish(self, vm: VmInstance, now: float):
        job = vm.running
        vm.running = None
        job.state = COMPLETED
        job.transfer = transfer_time(job.data_size, vm.bandwidth) if job.data_size else 0.0
        job.finish = now + job.transfer
        self._active -= 1
        self._maybe_start(vm, now)
        if self.migration_on:
            self._migration_check(vm.dc, now)

    def _on_deadline(self, job: Job, now: float):
        if job.state != QUEUED:
            return
        vm = self._job_vm[job.id]
        if job in vm.incoming:  # in transit toward vm
            self._incoming_remove(vm, job)
        else:
            self._queue_remove(vm, job)
        self._reject(job, "DeadlineExpired", now)

    def _on_migration_tick(self, _subject: None, now: float):
        if self._active <= 0:
            return
        for dc in self.datacenters.values():
            self._migration_check(dc, now)
        if len(self.calendar):
            # skip idle gaps so ticks never dominate the event budget
            fire_at = max(now + self.cadence_ms, self.calendar.peek_time())
            self.calendar.schedule(fire_at, MIGRATION_CHECK)

    def _migration_targets(self, vms: list[VmInstance], queued: int) -> list[VmInstance]:
        """VMs whose queue is shorter than the mean, in VM order; under
        queue_cap, only those with room for one more job. Their
        service-order caches are left up to date."""
        mean_qlen = queued / len(vms)
        has_room = self._has_room
        targets = [v for v in vms if len(v.queue) < mean_qlen and has_room(v)]
        for v in targets:
            self._service_prefix(v)
        return targets

    def _migration_check(self, dc: Datacenter, now: float):
        """Move queued jobs off overloaded VMs when the wait-vs-hop rule
        says a below-mean-queue-length VM is strictly cheaper.

        Waits come from each VM's service-order prefix sums. The queue of
        a target VM never changes during a check (movers land later, via
        `incoming`), so only the source VM's cache is rebuilt after a
        move. Under sjf the sums add demands in service order rather than
        queue order; for integer-valued demands (all bundled scenarios)
        that is exact, other float demands may differ in the last ulp.

        The check returns at once while `dc.settled`: its last full pass
        moved no job and no queue or `incoming` list of the datacenter
        has changed since (every enqueue, start, deadline removal, transit
        landing and move clears the flag). A pass then would move no job
        either:

        1. With no change, the queues, `incoming` lists and `busy_until`
           are fixed, and so are the target set and every prefix sum.
        2. A VM's residual is max(0, busy_until - now) whether its job
           is still running or not: a finish fires at busy_until and
           leaves the residual 0, as the clock alone would. So it falls
           by exactly dt while the VM is busy, and stays 0 after.
        3. A VM with a non-empty queue is never idle across dt > 0: its
           finish leaves the queue about to start, and that JobStart
           fires at the same instant and is itself a change.
        4. So each job's own wait falls by dt, and no candidate wait
           falls by more. A "stay" therefore stays a "stay".

        This is exact in floats when dt = 0 or all values are whole
        numbers. Otherwise a skipped decision could differ only where
        the full pass would itself have turned on a last-ulp tie.
        """
        vms = dc.vms
        if dc.settled or len(vms) < 2:
            return
        queued = sum(len(v.queue) for v in vms)
        targets = self._migration_targets(vms, queued)
        if not targets:
            dc.settled = True  # exact: no VM can take a job, so none can move
            return
        logged = len(self.migration_log)
        residual = [self._residual(v, now) for v in vms]
        sjf = self.scheduler == "sjf"
        for vm in vms:
            prefix = None
            moved = 0
            for i, job in enumerate(list(vm.queue)):
                if job.migrations >= self.migration_cap:
                    continue
                if sjf:
                    key = job.sjf_key
                    candidates = {
                        v.id: (residual[v.id] + v.service_prefix[bisect_left(v.service_keys, key)])
                        + v.incoming_sum
                        for v in targets
                        if v is not vm
                    }
                else:
                    candidates = {
                        v.id: (residual[v.id] + v.service_prefix[-1]) + v.incoming_sum
                        for v in targets
                        if v is not vm
                    }
                if not candidates:
                    continue
                if prefix is None:
                    prefix = self._service_prefix(vm)
                ahead = bisect_left(vm.service_keys, key) if sjf else i - moved
                current_wait = residual[vm.id] + prefix[ahead]
                target_id = migration_decision(current_wait, candidates, self.hop_ms)
                if target_id is None:
                    continue
                target = vms[target_id]
                self._queue_remove(vm, job)
                prefix = None
                moved += 1
                queued -= 1
                job.migrations += 1
                self._incoming_add(target, job)
                targets = self._migration_targets(vms, queued)
                self._job_vm[job.id] = target
                self.migration_log.append(
                    (job.id, vm.id, target_id, now, current_wait,
                     candidates[target_id] + self.hop_ms)
                )
                self.calendar.schedule(now + self.hop_ms, JOB_ARRIVAL, job)
        dc.settled = len(self.migration_log) == logged

    # -- run loop ----------------------------------------------------------

    _HANDLERS = {
        JOB_ARRIVAL: _on_arrival,
        JOB_START: _on_start,
        JOB_FINISH: _on_finish,
        DEADLINE_EXPIRY: _on_deadline,
        MIGRATION_CHECK: _on_migration_tick,
    }

    def run(self) -> RunMetrics:
        cal = self.calendar
        for job in self.jobs:
            cal.schedule(job.arrival, JOB_ARRIVAL, job)
        if self.migration_on and self.jobs:
            cal.schedule(self.cadence_ms, MIGRATION_CHECK)
        while len(cal):
            ev = cal.pop()
            self.event_count += 1
            if self.event_count > self.event_cap:
                raise HorizonExceeded(
                    f"event count exceeded safety cap {self.event_cap}"
                )
            self._HANDLERS[ev.kind](self, ev.subject, cal.clock)
        return self._collect()

    def _collect(self) -> RunMetrics:
        traces = sorted(self.jobs, key=attrgetter("id"))
        states = Counter(map(attrgetter("state"), traces))
        return RunMetrics(
            scenario_name=self.config.name,
            unit_ms=self.config.unit_ms,
            seed=self.config.seed,
            horizon_ms=self.config.horizon_ms,
            submitted=len(self.jobs),
            completed=states[COMPLETED],
            rejected=states[REJECTED],
            traces=traces,
            event_count=self.event_count,
            migration_log=self.migration_log,
        )


def run(scenario: ScenarioConfig, **kwargs) -> RunMetrics:
    """Execute one deterministic run of a validated scenario."""
    return Simulation(scenario, **kwargs).run()
