"""Deterministic discrete-event core: the virtual clock, the event
calendar, the run's three decisions (`admit`, Round-Robin `rr_next_vm`
and the wait-vs-hop `migration_decision`) and the `Simulation` that
works out their inputs, keeps each queue in rr or sjf service order
and runs the loop.

Simultaneous events pop in insertion order, so a run is a pure
function of (scenario, seed).
"""

from __future__ import annotations

import gc
import math
from bisect import bisect_left, bisect_right, insort
from collections import defaultdict, deque
from contextlib import contextmanager
from dataclasses import dataclass
from heapq import heappop, heappush, heapreplace
from itertools import accumulate
from operator import attrgetter, countOf
from typing import NamedTuple

from .metrics import RunMetrics
from .model import (
    Datacenter,
    Job,
    VmInstance,
    arrival_count,
    generate_arrivals,
    generate_sweep_arrivals,
    sum_in_order,
    transfer_time,
)
from .scenario import ScenarioConfig

JOB_ARRIVAL = "JobArrival"
JOB_START = "JobStart"
JOB_FINISH = "JobFinish"
MIGRATION_CHECK = "MigrationCheck"
DEADLINE_EXPIRY = "DeadlineExpiry"

EVENT_CAP = 10_000_000  # most events one run may pop
DEFAULT_MIGRATION_CADENCE_MS = 10.0

_DEMAND = attrgetter("demand")
_FINISH = attrgetter("finish")
_REJECT_REASON = attrgetter("reject_reason")


@contextmanager
def _collector_paused():
    """Pause the cyclic collector and yield whether it was on; a caller
    that had it off keeps it off. Building the jobs and running them make
    no cyclic garbage, and each full collection would walk every live Job."""
    was_on = gc.isenabled()
    gc.disable()
    try:
        yield was_on
    finally:
        if was_on:
            gc.enable()


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


_new_event = tuple.__new__  # skips NamedTuple's Python-level __new__


class EventCalendar:
    """Priority queue of Events, which order as tuples on (fire_at,
    insertion seq); seq is unique, so subjects are never compared. The
    clock is the fire time of the last popped event and never
    decreases.

    Pending events sit in three places. An event scheduled at the clock
    (every start, and for example an arrival at time 0 before the run)
    joins `_now`, the current-instant FIFO. Most other events of a kind are scheduled in fire order
    (up-front arrivals, expiries at arrival + deadline), so each kind
    has a FIFO lane next to one binary heap: an event joins its kind's
    lane when it sorts after the last event of that kind in the lane,
    or after the kind's gate while the lane is empty; any other event
    goes on the heap. While a lane holds events, its kind's gate is on
    the heap and sorts before the lane head, and the lane is in
    (fire_at, seq) order; popping a gate moves the lane head onto the
    heap as the new gate. So every lane event sorts after one on the
    heap, and the heap head is the least of the heap and the lanes.

    `pop` takes the heap head if it fires at the clock, else the head
    of `_now`, else the heap head, and this is exactly the order of one
    heap of all events. Every event in `_now` fires at the clock: the
    clock moves only when the heap head fires after it, which is popped
    only once `_now` is empty. An event on the heap that fires at the
    clock was scheduled while the clock was earlier (at the clock it
    would have joined `_now`), so before every event in `_now`, and its
    seq is smaller. The heap holds only the gates and the events
    scheduled out of order, so it stays shallow however many events
    wait."""

    def __init__(self):
        self._heap: list = []
        self._now: deque = deque()
        self._lanes: defaultdict[str, deque] = defaultdict(deque)
        self._gates: dict[str, Event | None] = {}
        self._seq = 0
        self.clock = 0.0

    def __len__(self) -> int:
        return len(self._heap) + len(self._now) + sum(map(len, self._lanes.values()))

    def schedule(self, fire_at: float, kind: str, subject: object = None) -> None:
        clock = self.clock
        if fire_at < clock:
            raise PastEvent(f"cannot schedule {kind} at t={fire_at} before clock {clock}")
        ev = _new_event(Event, (fire_at, self._seq, kind, subject))
        self._seq += 1
        if fire_at == clock:
            self._now.append(ev)
            return
        lane = self._lanes[kind]
        last = lane[-1] if lane else self._gates.get(kind)
        if last is not None and fire_at >= last[0]:
            lane.append(ev)  # its seq is the largest, so it sorts after `last`
        else:
            heappush(self._heap, ev)
            if last is None:
                self._gates[kind] = ev

    def pop(self) -> Event:
        heap, now = self._heap, self._now
        if now and not (heap and heap[0][0] == self.clock):
            return now.popleft()  # fires at the clock, so the clock stays
        ev = heap[0]
        kind = ev[2]
        if ev is self._gates[kind]:
            lane = self._lanes[kind]
            if lane:
                self._gates[kind] = gate = lane.popleft()
                heapreplace(heap, gate)
            else:
                self._gates[kind] = None
                heappop(heap)
        else:
            heappop(heap)
        self.clock = ev[0]
        return ev

    def peek_time(self) -> float:
        return self._now[0].fire_at if self._now else self._heap[0].fire_at


@dataclass(frozen=True)
class AdmissionResult:
    admitted: bool
    reason: str | None = None


# `admit` returns one of these two instead of building one per arrival.
_ADMITTED = AdmissionResult(True)
_QUEUE_FULL = AdmissionResult(False, "QueueFull")


def admit(job: Job, dc: Datacenter, now: float) -> AdmissionResult:
    """Admission check at arrival: reject when no VM of `dc` has room
    (`Datacenter.has_room`, which counts jobs migrating toward a VM
    since they join its queue on landing), that is when `dc.open_ids`
    is empty. Under deadline admission every VM has room; the engine
    schedules the expiry that may later reject the job."""
    if not dc.open_ids:
        return _QUEUE_FULL
    return _ADMITTED


def rr_next_vm(dc: Datacenter) -> VmInstance:
    """Return the first VM at or after the round-robin pointer, in wheel
    order, that has room for one more job (`Datacenter.has_room`; under
    deadline admission every VM has room), and move the pointer one past
    it. Ignores load otherwise.

    The VM is found in `dc.open_ids` by bisection, wrapping to the
    lowest open id, so full VMs cost nothing to skip. `dc.open_ids` must
    not be empty: the engine dispatches only a job that `admit` let in,
    which it does only while some VM of the datacenter has room."""
    ids = dc.open_ids
    k = bisect_left(ids, dc.rr_pointer)
    vm_id = ids[k] if k < len(ids) else ids[0]
    dc.rr_pointer = (vm_id + 1) % len(dc.vms)
    return dc.vms[vm_id]


def migration_decision(
    current_wait: float,
    candidates: list[tuple[VmInstance, float]],
    hop_time: float,
) -> tuple[VmInstance, float] | None:
    """Wait-vs-hop rule: of the `(vm, wait)` candidates, in VM order,
    pick the one minimizing wait + hop time (ms, the same for every
    move), but only if that strictly beats staying. Returns (vm, wait +
    hop_time), or None to stay. A tie between candidates goes to the
    earlier pair, the lower VM id; a tie with the current wait means stay.
    `Simulation._migration_check` works out the waits."""
    best = None
    best_cost = current_wait
    for vm, wait in candidates:
        cost = wait + hop_time
        if cost < best_cost:
            best = vm, cost
            best_cost = cost
    return best


class Simulation:
    """One deterministic run of a config that passed `scenario.validate`,
    whose checks set-up does not repeat. Build, then call run(). The
    event cap is `EVENT_CAP` as it stands when the simulation is built."""

    def __init__(self, config: ScenarioConfig, total_jobs: int | None = None):
        self.config = config
        self.event_cap = event_cap = EVENT_CAP
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
        # Deadline admission is queue_cap admission with room for any
        # number of jobs, plus an expiry scheduled at each admitted
        # arrival; no code after set-up reads the mode, and `validate`
        # allows a deadline under deadline admission only.
        self.deadline_ms = None if pol.deadline is None else pol.deadline * u
        capacity = pol.queue_capacity if pol.admission_mode == "queue_cap" else math.inf

        sjf, migration = self.scheduler == "sjf", self.migration_on
        self.datacenters: dict[str, Datacenter] = {}
        for spec in config.datacenters:
            vms = [
                VmInstance(
                    id=i, service_keys=[] if sjf else None, movable=[] if migration else ()
                )
                for i in range(spec.vm_count)
            ]
            self.datacenters[spec.id] = Datacenter(id=spec.id, vms=vms, capacity=capacity)
        # one (id,) per VM index, the vm_history of every job that never
        # moves from that VM; ids are per-datacenter indices, so one list
        # serves every datacenter
        most_vms = max((spec.vm_count for spec in config.datacenters), default=0)
        self._ones = [(i,) for i in range(most_vms)]

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
        explicit = [  # [jobs] rows run on the first datacenter, which `validate` requires
            Job(j.id, j.arrival * u, j.burst * u,
                transfer=transfer_time(j.data_size, config.datacenters[0].bandwidth_per_ms))
            for j in config.jobs
        ]
        rates = {spec.id: (spec.rate, spec.bandwidth_per_ms) for spec in config.datacenters}
        with _collector_paused() as collector_was_on:
            if total_jobs is not None:
                generated = generate_sweep_arrivals(
                    config.user_bases, config.horizon_ms, config.seed, total_jobs, rates
                )
            else:
                generated = []
                for ub in config.user_bases:
                    generated += generate_arrivals(ub, config.horizon_ms, config.seed, rates)
            # collect the new jobs' generation alone: set-up never pays for an older one
            if collector_was_on:
                gc.collect(0)
        # stable, so equal arrivals keep user base then generation order
        generated.sort(key=attrgetter("arrival"))
        next_id = max((j.id for j in explicit), default=0) + 1
        for j in generated:
            j.id = next_id
            next_id += 1

        self.jobs: list[Job] = explicit + generated
        self._active = len(self.jobs)
        self.migration_log: list[tuple] = []
        self.event_count = 0
        self.calendar = EventCalendar()

    # -- helpers -----------------------------------------------------------

    def _residual(self, vm: VmInstance, now: float) -> float:
        job = vm.running
        return 0.0 if job is None else job.start + job.demand - now

    def _service_prefix(self, vm: VmInstance) -> list[float]:
        """Prefix sums of the demands in `vm.queue`. `_queue_add` extends
        them for a job added at the back of the queue; any other change
        to the queue leaves them to be rebuilt here."""
        if vm.service_prefix is None:
            vm.service_prefix = list(accumulate(map(_DEMAND, vm.queue), initial=0.0))
        return vm.service_prefix

    # Every change to a queue or an incoming list goes through one of the
    # four helpers below, so the VM's queue stays in service order and its
    # sjf keys, prefix sums, `movable` list (in join order) and the
    # datacenter's `settled` flag, `queued` count and `open_ids` index never
    # go stale. A VM takes a job only while it has room
    # (`Datacenter.has_room`), so it never holds more than `capacity`: an
    # add that brings it to capacity drops its id from `open_ids`, and a
    # removal that brings it one below puts the id back. A job's
    # vm_history is set before it joins a queue and does not change while
    # it is there, so it says whether the job is in `movable`: with
    # migration on, while it holds at most `migration_cap` VMs.

    def _queue_add(self, vm: VmInstance, job: Job):
        dc = vm.dc
        prefix = vm.service_prefix
        keys = vm.service_keys
        if keys is None:
            vm.queue.append(job)
        else:
            key = (job.demand, job.arrival, job.id)
            i = bisect_left(keys, key)
            if i < len(keys):  # not at the back, so the sums after it shift
                prefix = vm.service_prefix = None
            keys.insert(i, key)
            vm.queue.insert(i, job)
        if prefix is not None:  # the same float as rebuilding by `accumulate`
            prefix.append(prefix[-1] + job.demand)
        if self.migration_on and len(job.vm_history) <= self.migration_cap:
            vm.movable.append(job)
        dc.queued += 1
        dc.settled = False
        if len(vm.queue) + len(vm.incoming) == dc.capacity:
            dc.open_ids.remove(vm.id)

    def _queue_remove(self, vm: VmInstance, job: Job, i: int | None = None):
        """Take `job` out of `vm.queue`. A caller that knows its index
        passes it as `i` (a start takes the head, a move the index it
        priced); otherwise, as for a deadline expiry, a scan finds it."""
        dc = vm.dc
        keys = vm.service_keys
        if i is None:
            i = vm.queue.index(job)
        del vm.queue[i]
        if keys is not None:
            del keys[i]
        vm.service_prefix = None
        if self.migration_on and len(job.vm_history) <= self.migration_cap:
            vm.movable.remove(job)
        dc.queued -= 1
        dc.settled = False
        if len(vm.queue) + len(vm.incoming) == dc.capacity - 1:
            insort(dc.open_ids, vm.id)

    def _incoming_add(self, vm: VmInstance, job: Job):
        dc = vm.dc
        vm.incoming.append(job)
        vm.incoming_sum += job.demand
        dc.settled = False
        if len(vm.queue) + len(vm.incoming) == dc.capacity:
            dc.open_ids.remove(vm.id)

    def _incoming_remove(self, vm: VmInstance, job: Job):
        dc = vm.dc
        vm.incoming.remove(job)
        # re-summed rather than subtracted, so it stays the left-to-right
        # float sum over the list that `_incoming_add` builds
        vm.incoming_sum = sum_in_order(map(_DEMAND, vm.incoming))
        dc.settled = False
        if len(vm.queue) + len(vm.incoming) == dc.capacity - 1:
            insort(dc.open_ids, vm.id)

    def _enqueue(self, vm: VmInstance, job: Job, now: float):
        h, one = job.vm_history, self._ones[vm.id]
        job.vm_history = h + one if h else one
        self._queue_add(vm, job)
        job.vm = vm
        self._maybe_start(vm, now)

    def _maybe_start(self, vm: VmInstance, now: float):
        # The start is scheduled at the clock, so it joins the calendar's
        # current-instant FIFO and pops after every event already due now.
        if vm.running is None and vm.queue and not vm.start_pending:
            vm.start_pending = True
            self.calendar.schedule(now, JOB_START, vm)

    def _reject(self, job: Job, reason: str, now: float):
        job.reject_reason = reason
        job.rejected_at = now
        self._active -= 1

    # -- event handlers ----------------------------------------------------

    def _on_arrival(self, job: Job, now: float):
        if job.vm_history:  # queued before, so a migration landing
            if job.reject_reason is not None:
                return  # expired in transit
            vm = job.vm
            self._incoming_remove(vm, job)
            self._enqueue(vm, job, now)
            return

        dc = self._dc_by_ub[job.origin_ub]
        result = admit(job, dc, now)
        if not result.admitted:
            self._reject(job, result.reason, now)
            return
        if self.deadline_ms is not None:
            self.calendar.schedule(now + self.deadline_ms, DEADLINE_EXPIRY, job)
        # admission guaranteed that some VM has room; rr skips full ones
        vm = rr_next_vm(dc)
        self._enqueue(vm, job, now)

    def _on_start(self, vm: VmInstance, now: float):
        vm.start_pending = False
        if not vm.queue:  # an expiry or a move since it was scheduled emptied it
            return
        job = vm.queue[0]  # the queue is in service order under both schedulers
        self._queue_remove(vm, job, 0)
        job.vm = None
        job.start = now
        vm.running = job
        self.calendar.schedule(now + job.demand, JOB_FINISH, vm)

    def _on_finish(self, vm: VmInstance, now: float):
        job = vm.running
        vm.running = None
        job.finish = now + job.transfer
        self._active -= 1
        self._maybe_start(vm, now)
        if self.migration_on:
            self._migration_check(vm.dc, now)

    def _on_deadline(self, job: Job, now: float):
        if job.start is not None:
            return  # it started in time
        vm, job.vm = job.vm, None
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
        # an active job always has an event pending, so the calendar is not
        # empty; skip idle gaps so ticks never dominate the event budget
        fire_at = max(now + self.cadence_ms, self.calendar.peek_time())
        self.calendar.schedule(fire_at, MIGRATION_CHECK)

    def _migration_targets(self, dc: Datacenter) -> list[VmInstance]:
        """VMs whose queue is shorter than the mean and that have room
        for one more job (`dc.open_ids`), in VM order, with their prefix
        sums up to date."""
        vms = dc.vms
        mean_qlen = dc.queued / len(vms)
        targets = [vms[i] for i in dc.open_ids if len(vms[i].queue) < mean_qlen]
        for v in targets:
            if v.service_prefix is None:
                self._service_prefix(v)
        return targets

    def _migration_check(self, dc: Datacenter, now: float):
        """Move queued jobs off overloaded VMs when the wait-vs-hop rule
        says a below-mean-queue-length VM is strictly cheaper.

        Each source VM offers its uncapped queued jobs (fewer than
        `migration_cap` moves so far), in join order (`movable`), to the other
        targets as `(vm, wait)` pairs in VM order, listed again only after
        a move; an empty list ends the VM's scan. A capped job is never
        offered, and a VM whose `movable` list is empty is skipped. A wait is
        `(residual + service_prefix[slot]) + incoming_sum`, the slot being
        the job's sjf-key position under sjf and the back of the queue
        under rr. Movers land later, via `incoming`, so only the source's
        prefix sums are rebuilt after a move. Under sjf the sums add
        demands in service order, the order of `vm.queue`; a rescan that
        sums them in join order agrees exactly for integer-valued demands
        (all bundled scenarios), other float demands may differ in the
        last ulp.

        `migration_decision` is called only for a job that moves; under
        sjf the looks still cost in proportion to the uncapped queued
        jobs. Each test below compares the rule's own cost, `wait + hop`, with the job's
        own wait, so the rule sees exactly the jobs that move under it and
        picks the same target and cost:

        - rr (`_shed_rr`): until a move, the pairs do not depend on the
          job, and neither does `best = min(waits) + hop`, the least cost
          (adding `hop` keeps the order of the waits). A job's own wait,
          `residual + prefix[k]` at queue index k, does not fall along the
          queue: the prefix sums do not fall and float addition is
          monotone. So the jobs whose wait exceeds `best` form a suffix of
          the queue, which bisection finds; its first uncapped job is the
          mover. After a move the pairs, `best` and the prefix are
          recomputed, and the search resumes at the mover's index, since
          the jobs before it have been offered already.
        - sjf (`_shed_sjf`): for each job of `movable`, the targets are
          walked in VM order until one's `wait + hop` beats the job's own
          wait; only then are the pairs built and the rule called. Slots
          are found by bisecting `service_keys`, the plain sjf keys.

        The check returns at once while `dc.settled`: its last full pass
        moved no job and no queue or `incoming` list of the datacenter
        has changed since (every enqueue, start, deadline removal, transit
        landing and move clears the flag). A pass then would move no job
        either:

        1. With no change, the queues, `incoming` lists and running jobs
           are fixed, and so are the target set and every prefix sum.
        2. A VM's residual is start + demand - now of its running job,
           0 when idle. A finish fires at start + demand and leaves the
           residual 0, as the clock alone would take it. So it falls by
           exactly dt while the VM is busy, and stays 0 after.
        3. A VM with a non-empty queue is never idle across dt > 0: its
           finish leaves the queue about to start, and that JobStart
           fires at the same instant and is itself a change.
        4. So each job's own wait falls by dt, and no candidate wait
           falls by more. A "stay" therefore stays a "stay".

        This is exact in floats when dt = 0 or all values are whole
        numbers. Otherwise a skipped decision could differ only where
        the full pass would itself have turned on a last-ulp tie.
        """
        if dc.settled:
            return
        targets = self._migration_targets(dc)
        if not targets:
            dc.settled = True  # exact: no VM can take a job, so none can move
            return
        vms = dc.vms
        logged = len(self.migration_log)
        residual = [self._residual(v, now) for v in vms]
        shed = self._shed_sjf if self.scheduler == "sjf" else self._shed_rr
        for vm in vms:
            if vm.movable:  # exact: a VM with no uncapped job has no mover
                targets = shed(vm, targets, residual, now)
        dc.settled = len(self.migration_log) == logged

    def _shed_rr(self, vm: VmInstance, targets: list, residual: list, now: float) -> list:
        """Move `vm`'s movers under rr; returns the targets left."""
        queue, r, hop, cap = vm.queue, residual[vm.id], self.hop_ms, self.migration_cap
        k = 0
        while True:
            others = [v for v in targets if v is not vm]
            if not others:
                return targets
            waits = [(residual[v.id] + v.service_prefix[-1]) + v.incoming_sum for v in others]
            prefix = self._service_prefix(vm)
            k = bisect_right(prefix, min(waits) + hop, k, len(queue), key=lambda p: r + p)
            while k < len(queue) and len(queue[k].vm_history) > cap:  # all its moves landed
                k += 1
            if k == len(queue):
                return targets
            targets = self._move(vm, queue[k], k, r + prefix[k], list(zip(others, waits)), now)

    def _shed_sjf(self, vm: VmInstance, targets: list, residual: list, now: float) -> list:
        """Move `vm`'s movers under sjf; returns the targets left."""
        r, hop, keys = residual[vm.id], self.hop_ms, vm.service_keys
        others = [v for v in targets if v is not vm]
        prefix = self._service_prefix(vm)
        for job in list(vm.movable):
            if not others:
                break
            key = (job.demand, job.arrival, job.id)
            i = bisect_left(keys, key)
            current_wait = r + prefix[i]
            for v in others:
                slot = bisect_left(v.service_keys, key)
                if (residual[v.id] + v.service_prefix[slot]) + v.incoming_sum + hop < current_wait:
                    break
            else:
                continue  # no target beats staying
            pairs = [
                (v, (residual[v.id] + v.service_prefix[bisect_left(v.service_keys, key)])
                 + v.incoming_sum)
                for v in others
            ]
            targets = self._move(vm, job, i, current_wait, pairs, now)
            others = [v for v in targets if v is not vm]
            prefix = self._service_prefix(vm)
        return targets

    def _move(
        self, vm: VmInstance, job: Job, i: int, current_wait: float, pairs: list, now: float
    ) -> list:
        """Send `job`, at index `i` of `vm.queue`, to the target the rule
        picks among `pairs`, which must beat staying; returns the new
        targets."""
        target, cost = migration_decision(current_wait, pairs, self.hop_ms)
        self._queue_remove(vm, job, i)
        self._incoming_add(target, job)
        job.vm = target
        self.migration_log.append((job.id, vm.id, target.id, now, current_wait, cost))
        self.calendar.schedule(now + self.hop_ms, JOB_ARRIVAL, job)
        return self._migration_targets(vm.dc)

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
        with _collector_paused():
            for job in self.jobs:
                cal.schedule(job.arrival, JOB_ARRIVAL, job)
            if self.migration_on and self.jobs:
                cal.schedule(self.cadence_ms, MIGRATION_CHECK)
            # while any lane holds events, its gate is on the heap
            heap, now, pop = cal._heap, cal._now, cal.pop
            handlers, cap = self._HANDLERS, self.event_cap
            while heap or now:
                ev = pop()
                self.event_count += 1
                if self.event_count > cap:
                    raise HorizonExceeded(f"event count exceeded safety cap {cap}")
                handlers[ev[2]](self, ev[3], ev[0])
        return self._collect()

    def _collect(self) -> RunMetrics:
        # completed jobs have a finish and rejected ones a reason; reading
        # those fields costs less per job than the `Job.state` property
        traces = sorted(self.jobs, key=attrgetter("id"))
        n = len(traces)
        return RunMetrics(
            unit_ms=self.config.unit_ms,
            submitted=n,
            completed=n - countOf(map(_FINISH, traces), None),
            rejected=n - countOf(map(_REJECT_REASON, traces), None),
            traces=traces,
            event_count=self.event_count,
            migration_log=self.migration_log,
        )
