"""Dispatch and balancing decision procedures: Round-Robin VM
selection and the wait-vs-hop migration rule. The engine works out the
waits (`Simulation._migration_check`); the rule only picks among them.
Shortest-Job-First service order lives in the engine
(`VmInstance.service`, kept by `Simulation._queue_add` and
`_queue_remove`)."""

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
    candidates: list[tuple[VmInstance, float]],
    hop_time: float,
) -> tuple[VmInstance, float] | None:
    """Wait-vs-hop rule: of the `(vm, wait)` candidates, in VM order,
    pick the one minimizing wait + hop time (ms, the same for every
    move), but only if that strictly beats staying. Returns (vm, wait +
    hop_time), or None to stay. A tie between candidates goes to the
    earlier pair, the lower VM id; a tie with the current wait means stay."""
    best = None
    best_cost = current_wait
    for vm, wait in candidates:
        cost = wait + hop_time
        if cost < best_cost:
            best = vm, cost
            best_cost = cost
    return best
