"""Domain entities (jobs, VMs, datacenters, user bases) and the only run-time
and send-time formulas, called by set-up and by `scenario.validate`.

All internal durations are abstract milliseconds; VM rates are
instructions per millisecond.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import reduce
from operator import add

MS_PER_HOUR = 3_600_000.0

# Job lifecycle states
QUEUED = "queued"
RUNNING = "running"
COMPLETED = "completed"
REJECTED = "rejected"


@dataclass(eq=False, slots=True)
class Job:
    """A unit of work: one `[jobs]` row, or one request batch of
    generated traffic. A run's jobs are also its per-job traces:
    `RunMetrics.traces` lists the jobs themselves in id order. Times are
    in ms.

    Stored: `id`, `arrival`, `demand` (its run time on a VM of its
    datacenter) and `spec`, set at set-up, and the slots the engine
    fills in: `start`, `vm_history`, `vm` and `outcome`. `outcome` is
    None while the job is queued, in transit or running, `COMPLETED`
    once it finished, `"QueueFull"` for an admission rejection and
    `("DeadlineExpired", t)` for an expiry at t.

    Shared: `spec` is `(origin_ub, transfer, batch_size)`, its user base
    (None for a `[jobs]` row), its data send time from its datacenter
    and its request count. Every VM of a datacenter has the same rate
    and bandwidth, and a job never leaves it, so all the jobs of one
    batch class share one `spec`, built once per `_batches` call and
    once per `[jobs]` row.

    Derived, as read-only properties: `origin_ub`, `transfer` and
    `batch_size` from `spec`; `finish`, which is `(start + demand) +
    transfer` once completed (its finish event fires at `start +
    demand`) and None before; `reject_reason`; `rejected_at`, the
    arrival itself for `QueueFull`; and `state`. A finished run leaves
    two shapes: a job that ran has a start and a finish, and a rejected
    job has neither.

    Ids are unique, so jobs compare by identity."""

    id: int
    arrival: float  # ms
    demand: float  # ms, run time on a VM of its datacenter
    spec: tuple  # (origin_ub, transfer, batch_size), shared by its batch class
    start: float | None = None
    # every VM whose queue it joined; a job that never moved shares its
    # VM's one (id,) tuple with every other such job of that VM
    vm_history: tuple[int, ...] = ()
    vm: VmInstance | None = None  # whose queue or incoming list holds it, else None
    outcome: str | tuple | None = None  # None, COMPLETED, "QueueFull" or ("DeadlineExpired", t)

    @property
    def origin_ub(self) -> str | None:
        return self.spec[0]

    @property
    def transfer(self) -> float:
        """ms, time to send its data from its datacenter"""
        return self.spec[1]

    @property
    def batch_size(self) -> int:
        return self.spec[2]

    @property
    def finish(self) -> float | None:
        """`(start + demand) + transfer` once completed, else None."""
        if self.outcome != COMPLETED:
            return None
        return (self.start + self.demand) + self.spec[1]

    @property
    def reject_reason(self) -> str | None:
        outcome = self.outcome
        if isinstance(outcome, tuple):
            return outcome[0]
        return None if outcome is None or outcome == COMPLETED else outcome

    @property
    def rejected_at(self) -> float | None:
        """The arrival for an admission rejection, the expiry time for a
        deadline one, else None."""
        outcome = self.outcome
        if isinstance(outcome, tuple):
            return outcome[1]
        return None if outcome is None or outcome == COMPLETED else self.arrival

    @property
    def state(self) -> str:
        """The lifecycle state, read from the outcome and the start."""
        outcome = self.outcome
        if outcome is None:
            return QUEUED if self.start is None else RUNNING
        return COMPLETED if outcome == COMPLETED else REJECTED


@dataclass
class VmInstance:
    """A server of datacenter `dc` with a run queue and at most one
    running job. The VM is free again at `start + demand`; the job's
    finish adds its transfer time, `(start + demand) + transfer`.
    Its datacenter's rate and bandwidth are already in each job's
    `demand` and `transfer`."""

    id: int
    dc: Datacenter | None = field(default=None, repr=False, compare=False)
    # The queued jobs in service order, kept by the engine at every queue
    # change: arrival and landing order under rr, ascending (demand,
    # arrival, id) under sjf.
    queue: list[Job] = field(default_factory=list)
    running: Job | None = None
    incoming: list[Job] = field(default_factory=list)  # migrations in transit
    incoming_sum: float = 0.0  # demands in `incoming`, summed in list order
    # service_keys[k] = (demand, arrival, id) of queue[k], so sjf bisects
    # plain tuples; None under rr
    service_keys: list[tuple] | None = None
    # service_prefix[k] = demand served before queue[k]; None when stale
    service_prefix: list[float] | None = None
    # The queued jobs that may still move (fewer than migration_cap moves
    # so far), in arrival and landing order; an empty tuple with migration off
    movable: list[Job] | tuple = ()
    start_pending: bool = False  # a JobStart for this VM is scheduled


@dataclass
class Datacenter:
    """Identical VMs behind one admission rule; sets each VM's `dc`.

    `capacity` is the number of queued plus in-transit jobs each VM may
    hold: the queue capacity under queue_cap admission, `math.inf`
    under deadline admission.

    `open_ids` indexes room: the ascending ids of the VMs for which
    `has_room` holds, built here from the VMs as given (a VM's id is its
    index in `vms`). Admission, round-robin dispatch and the migration
    check read it instead of testing every VM. `queued` counts the jobs
    in all the VMs' queues, so the migration check reads the mean queue
    length without summing them."""

    id: str
    vms: list[VmInstance]
    capacity: float
    rr_pointer: int = 0
    # Summaries the engine keeps up to date at every queue change.
    settled: bool = False  # the last migration check moved no job; nothing changed since
    open_ids: list[int] = field(init=False)  # ascending ids of the VMs with room
    queued: int = field(init=False)  # jobs in all the VMs' queues

    def __post_init__(self):
        for vm in self.vms:
            vm.dc = self
        self.open_ids = [vm.id for vm in self.vms if self.has_room(vm)]
        self.queued = sum(len(vm.queue) for vm in self.vms)

    def has_room(self, vm: VmInstance) -> bool:
        """Whether `vm` may take one more job: its queued jobs plus the
        jobs migrating toward it stay below capacity."""
        return len(vm.queue) + len(vm.incoming) < self.capacity


@dataclass
class UserBase:
    """A group of users at one location emitting requests at a fixed
    per-user hourly rate, all routed to one datacenter."""

    id: str
    requests_per_user_per_hour: float
    data_size_per_request: float  # bytes
    target_dc: str
    user_grouping: int
    request_grouping: int
    instruction_length: float  # instructions per request


def sum_in_order(values) -> float:
    """The float sum of `values` added left to right from 0.0. Unlike
    `sum()`, which is compensated from CPython 3.12 on, it gives the
    same result on every interpreter."""
    return reduce(add, values, 0.0)


def processing_time(instruction_length: float, rate: float) -> float:
    """Duration to execute `instruction_length` instructions at `rate`
    instructions/ms: the one run-time formula, for set-up and `validate`."""
    return instruction_length / rate


def transfer_time(data_size: float, bandwidth: float) -> float:
    """Duration to move `data_size` bytes at `bandwidth` units/ms: the one
    send-time formula, for set-up and `validate`."""
    return data_size / bandwidth


def _arrival_rng(seed, ub_id: str, tag: str = "") -> random.Random:
    # String seeding keeps streams independent per user base and stable
    # across runs.
    return random.Random(f"{seed}:{tag}{ub_id}")


def requests_over(ub: UserBase, horizon_ms: float) -> float:
    """Requests `ub` emits over the horizon (users x rate x hours),
    before rounding down to whole requests."""
    return ub.user_grouping * ub.requests_per_user_per_hour * (horizon_ms / MS_PER_HOUR)


def arrival_count(ub: UserBase, horizon_ms: float) -> int:
    """Jobs `generate_arrivals` makes for `ub`: its whole requests over
    the horizon in batches of `request_grouping`, the last maybe short."""
    return max(0, -(-int(requests_over(ub, horizon_ms)) // ub.request_grouping))


def _batches(ub: UserBase, n: int, batch: int, rates, horizon_ms, draw) -> list[Job]:
    """`n` jobs of `batch` requests from `ub` arriving at `horizon_ms x draw()`,
    sharing one demand and one `spec`; ids are set after merging."""
    if n <= 0:
        return []
    rate, bandwidth = rates[ub.target_dc]
    demand = processing_time(ub.instruction_length * batch, rate)
    spec = (ub.id, transfer_time(ub.data_size_per_request * batch, bandwidth), batch)
    return [Job(0, horizon_ms * draw(), demand, spec) for _ in range(n)]


def generate_arrivals(
    ub: UserBase, horizon_ms: float, rng_seed, rates: dict[str, tuple[float, float]]
) -> list[Job]:
    """Batched request traffic for one user base over the horizon.

    Total requests = users x rate x hours, in `arrival_count` batches of
    `request_grouping` (the last may be short). Each batch is one job whose
    demand and transfer time are its summed instruction length and data size
    at `rates[ub.target_dc]`, its datacenter's (VM rate, bandwidth). Arrivals
    are `horizon_ms x random()` (= `uniform(0, horizon_ms)`) in generation order.
    """
    n = arrival_count(ub, horizon_ms)
    if n == 0:
        return []
    draw = _arrival_rng(rng_seed, ub.id).random
    last = int(requests_over(ub, horizon_ms)) - (n - 1) * ub.request_grouping
    jobs = _batches(ub, n - 1, ub.request_grouping, rates, horizon_ms, draw)
    return jobs + _batches(ub, 1, last, rates, horizon_ms, draw)


def generate_sweep_arrivals(
    user_bases: list[UserBase], horizon_ms: float, rng_seed, total_jobs: int,
    rates: dict[str, tuple[float, float]],
) -> list[Job]:
    """Arrival list for one load-sweep level: exactly `total_jobs` full-batch
    jobs over the horizon, built from `rates` as in `generate_arrivals`, split
    across user bases in proportion to their nominal traffic volume
    (largest-remainder rounding, ties to the earlier user base). Each user base
    draws `horizon_ms x random()`, equal to `uniform(0, horizon_ms)`, from its
    own stream seeded by `total_jobs` too; jobs are in generation order."""
    if total_jobs <= 0 or not user_bases or horizon_ms <= 0:
        return []
    weights = [max(requests_over(ub, horizon_ms), 1.0) for ub in user_bases]
    total_w = sum_in_order(weights)
    exact = [total_jobs * w / total_w for w in weights]
    counts = [int(x) for x in exact]
    remainders = sorted(
        range(len(user_bases)), key=lambda i: (exact[i] - counts[i], -i), reverse=True
    )
    for i in remainders[: total_jobs - sum(counts)]:
        counts[i] += 1
    jobs = []
    for ub, n in zip(user_bases, counts):
        draw = _arrival_rng(rng_seed, ub.id, tag=f"sweep:{total_jobs}:").random
        jobs += _batches(ub, n, ub.request_grouping, rates, horizon_ms, draw)
    return jobs

