"""Dispatch and balancing decision procedures: Round-Robin VM
selection, non-preemptive Shortest-Job-First ordering, and the
wait-vs-hop migration rule."""

from __future__ import annotations

from dataclasses import dataclass, field

from .model import Datacenter, VmInstance


class PolicyError(Exception):
    pass


class EmptyDatacenter(PolicyError):
    pass


class EmptyQueue(PolicyError):
    pass


class DuplicateJobId(PolicyError):
    pass


def rr_next_vm(dc: Datacenter) -> VmInstance:
    """Return the VM under the round-robin pointer and advance the
    pointer by one. Ignores load entirely."""
    if not dc.vms:
        raise EmptyDatacenter(f"datacenter {dc.id} has no VMs")
    vm = dc.vms[dc.rr_pointer]
    dc.rr_pointer = (dc.rr_pointer + 1) % len(dc.vms)
    return vm


def sjf_select(ready_queue, now: float | None = None):
    """Pick the entry with the smallest burst from a ready queue of
    (job_id, arrival, burst) tuples. Ties break by earlier arrival,
    then smaller id."""
    entries = list(ready_queue)
    if not entries:
        raise EmptyQueue("sjf_select on empty ready queue")
    if now is not None:
        late = [e for e in entries if e[1] > now]
        if late:
            raise PolicyError(f"jobs not yet arrived at t={now}: {late}")
    return min(entries, key=lambda e: (e[2], e[1], e[0]))[0]


@dataclass
class Schedule:
    """Single-server non-preemptive schedule: service order plus
    per-job start and wait (start - arrival)."""

    order: list[int]
    start: dict[int, float]
    wait: dict[int, float]
    makespan: float


def sjf_schedule(jobs) -> Schedule:
    """Run SJF on a single server over (id, arrival, burst) tuples.

    Work-conserving: the server idles only when nothing has arrived;
    whenever it frees up, it serves the shortest ready job.
    """
    jobs = [tuple(j) for j in jobs]
    ids = [j[0] for j in jobs]
    if len(set(ids)) != len(ids):
        raise DuplicateJobId(f"duplicate job ids in {ids}")
    remaining = list(jobs)
    order: list[int] = []
    start: dict[int, float] = {}
    wait: dict[int, float] = {}
    t = 0.0
    while remaining:
        ready = [j for j in remaining if j[1] <= t]
        if not ready:
            t = min(j[1] for j in remaining)
            continue
        picked = sjf_select(ready, t)
        job = next(j for j in remaining if j[0] == picked)
        remaining.remove(job)
        order.append(picked)
        start[picked] = t
        wait[picked] = t - job[1]
        t += job[2]
    return Schedule(order=order, start=start, wait=wait, makespan=t)


@dataclass
class HopTable:
    """Time cost of moving a queued job between VMs. Zero on the
    diagonal; unlisted pairs fall back to the default."""

    default: float = 0.0
    pairs: dict[tuple[int, int], float] = field(default_factory=dict)

    def hop_time(self, vm_a: int, vm_b: int) -> float:
        if vm_a == vm_b:
            return 0.0
        return self.pairs.get((vm_a, vm_b), self.default)


def migration_decision(
    current_vm: int,
    current_wait: float,
    candidate_waits: dict[int, float],
    hops: HopTable,
) -> int | None:
    """Wait-vs-hop rule: migrate to the candidate minimizing
    expected wait + hop time, but only if that strictly beats staying.
    Returns the target VM id, or None to stay. Ties between candidates
    break toward the smaller VM id; a tie with the current wait means
    stay."""
    best_vm = None
    best_cost = current_wait
    for vm_id in sorted(candidate_waits):
        cost = candidate_waits[vm_id] + hops.hop_time(current_vm, vm_id)
        if cost < best_cost:
            best_vm = vm_id
            best_cost = cost
    return best_vm
