"""Dispatch and balancing decision procedures: Round-Robin VM
selection and the wait-vs-hop migration rule. Shortest-Job-First
service order lives in the engine (`VmInstance.service`, kept by
`Simulation._queue_add` and `_queue_remove`)."""

from __future__ import annotations

from .model import Datacenter, VmInstance


class PolicyError(Exception):
    pass


def rr_next_vm(dc: Datacenter) -> VmInstance:
    """Return the first VM at or after the round-robin pointer that has
    room for one more job (`Datacenter.has_room`; under deadline
    admission every VM has room), and move the pointer one past it.
    Ignores load otherwise."""
    vms = dc.vms
    for _ in range(len(vms)):
        vm = vms[dc.rr_pointer]
        dc.rr_pointer = (dc.rr_pointer + 1) % len(vms)
        if dc.has_room(vm):
            return vm
    raise PolicyError(f"no VM of datacenter {dc.id} has room")


def migration_decision(
    current_wait: float,
    candidate_waits: dict[int, float],
    hop_time: float,
) -> int | None:
    """Wait-vs-hop rule: migrate to the candidate VM minimizing
    expected wait + hop time (ms, the same for every move), but only if
    that strictly beats staying. Returns the target VM id, or None to
    stay. Ties between candidates break toward the smaller VM id; a tie
    with the current wait means stay."""
    best_vm = None
    best_cost = current_wait
    for vm_id in sorted(candidate_waits):
        cost = candidate_waits[vm_id] + hop_time
        if cost < best_cost:
            best_vm = vm_id
            best_cost = cost
    return best_vm
