"""Dispatch and balancing decision procedures: Round-Robin VM
selection and the wait-vs-hop migration rule. The engine works out the
waits (`Simulation._migration_check`); the rule only picks among them.
Shortest-Job-First service order lives in the engine: each
`VmInstance.queue` is kept in service order by `Simulation._queue_add`
and `_queue_remove`."""

from __future__ import annotations

from bisect import bisect_left

from .model import Datacenter, VmInstance


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
    earlier pair, the lower VM id; a tie with the current wait means stay."""
    best = None
    best_cost = current_wait
    for vm, wait in candidates:
        cost = wait + hop_time
        if cost < best_cost:
            best = vm, cost
            best_cost = cost
    return best
