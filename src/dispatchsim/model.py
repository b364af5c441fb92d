"""Domain entities (jobs, VMs, datacenters, user bases) and the
service-time / transfer-time arithmetic that turns configuration into
durations.

All internal durations are abstract milliseconds; VM rates are
instructions per millisecond.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

MS_PER_HOUR = 3_600_000.0

# Job lifecycle states
QUEUED = "queued"
RUNNING = "running"
COMPLETED = "completed"
REJECTED = "rejected"


class ModelError(Exception):
    pass


class ZeroRate(ModelError):
    pass


class ZeroBandwidth(ModelError):
    pass


@dataclass(eq=False, slots=True)
class Job:
    """A unit of work. Either carries an explicit burst duration (demo
    traces) or an instruction length that a VM's rate converts into a
    processing duration. Generated jobs represent one request batch.

    A run's jobs are also its per-job traces: the engine fills in the
    lifecycle fields, and `RunMetrics.traces` lists the jobs themselves
    in id order. Times are in ms.

    Ids are unique, so jobs compare by identity."""

    id: int
    arrival: float  # ms
    origin_ub: str | None = None
    burst: float | None = None  # ms, explicit service demand
    instruction_length: float = 0.0  # instructions, generated traffic
    data_size: float = 0.0  # bytes
    batch_size: int = 1
    state: str = QUEUED
    start: float | None = None
    finish: float | None = None  # transfer delay included
    vm_history: tuple[int, ...] = ()  # every VM whose queue it joined
    migrations: int = 0
    reject_reason: str | None = None
    rejected_at: float | None = None
    transfer: float = 0.0
    # Set at dispatch. Every VM of a datacenter has the same rate and a
    # job never leaves its datacenter, so both stay valid.
    demand: float | None = None  # service_demand on its datacenter's VMs; its run time
    sjf_key: tuple | None = None  # (demand, arrival, id); sjf only

    def service_demand(self, rate: float) -> float:
        """Service duration this job needs on a VM of the given rate."""
        if self.burst is not None:
            return self.burst
        return processing_time(self.instruction_length, rate)


@dataclass
class VmInstance:
    """A server of datacenter `dc` with a FIFO run queue and a busy-until horizon."""

    id: int
    rate: float  # instructions per ms
    bandwidth: float  # capacity units per ms
    dc: Datacenter | None = field(default=None, repr=False, compare=False)
    queue: list[Job] = field(default_factory=list)
    busy_until: float = 0.0
    running: Job | None = None
    incoming: list[Job] = field(default_factory=list)  # migrations in transit
    incoming_sum: float = 0.0  # demands in `incoming`, summed in list order
    # Queue in service order, rebuilt by the engine after the queue
    # changes: sjf keys ascending, and prefix sums of demands
    # (service_prefix[k] = demand served before the k-th job).
    service_keys: list[tuple] = field(default_factory=list)
    service_prefix: list[float] | None = None  # None when stale
    start_pending: bool = False  # a JobStart for this VM is scheduled


@dataclass
class AdmissionPolicy:
    """When jobs are turned away. Deadline mode rejects a job that has
    not started within `deadline` of arrival; QueueCap rejects on
    arrival when every VM queue in the datacenter is full."""

    mode: str  # "deadline" | "queue_cap"
    deadline: float | None = None  # ms
    capacity: int | None = None  # queued jobs per VM

    def has_room(self, vm: VmInstance) -> bool:
        """Whether `vm` may take one more job: always under deadline
        admission; under queue_cap while its queued jobs plus the jobs
        migrating toward it stay below capacity."""
        return self.mode != "queue_cap" or len(vm.queue) + len(vm.incoming) < self.capacity


@dataclass
class Datacenter:
    """Identical VMs behind one admission rule; sets each VM's `dc`."""

    id: str
    vms: list[VmInstance]
    admission: AdmissionPolicy
    rr_pointer: int = 0
    # Summaries the engine keeps up to date at every queue change.
    settled: bool = False  # the last migration check moved no job; nothing changed since
    open_vms: int = field(init=False)  # VMs that admission.has_room

    def __post_init__(self):
        for vm in self.vms:
            vm.dc = self
        self.open_vms = sum(map(self.admission.has_room, self.vms))


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


@dataclass
class AdmissionResult:
    admitted: bool
    reason: str | None = None


def processing_time(instruction_length: float, rate: float) -> float:
    """Duration to execute `instruction_length` instructions at `rate`
    instructions/ms."""
    if rate <= 0:
        raise ZeroRate(f"vm rate must be positive, got {rate}")
    return instruction_length / rate


def transfer_time(data_size: float, bandwidth: float) -> float:
    """Duration to move `data_size` bytes at `bandwidth` units/ms."""
    if bandwidth <= 0:
        raise ZeroBandwidth(f"bandwidth must be positive, got {bandwidth}")
    return data_size / bandwidth


def _arrival_rng(seed, ub_id: str, tag: str = "") -> random.Random:
    # String seeding keeps streams independent per user base and stable
    # across runs.
    return random.Random(f"{seed}:{tag}{ub_id}")


def _batch_job(ub: UserBase, arrival: float, batch: int) -> Job:
    return Job(
        id=0,  # assigned after merging across user bases
        arrival=arrival,
        origin_ub=ub.id,
        instruction_length=ub.instruction_length * batch,
        data_size=ub.data_size_per_request * batch,
        batch_size=batch,
    )


def requests_over(ub: UserBase, horizon_ms: float) -> float:
    """Requests `ub` emits over the horizon (users x rate x hours),
    before rounding down to whole requests."""
    return ub.user_grouping * ub.requests_per_user_per_hour * (horizon_ms / MS_PER_HOUR)


def arrival_count(ub: UserBase, horizon_ms: float) -> int:
    """Jobs `generate_arrivals` makes for `ub`: its whole requests over
    the horizon in batches of `request_grouping`, the last maybe short."""
    if horizon_ms <= 0:
        return 0
    return max(0, -(-int(requests_over(ub, horizon_ms)) // ub.request_grouping))


def generate_arrivals(ub: UserBase, horizon_ms: float, rng_seed) -> list[Job]:
    """Batched request traffic for one user base over the horizon.

    Total requests = users x rate x hours, grouped into batches of
    `request_grouping` (the last batch may be short). Each batch is one
    job; arrival times are uniform over the horizon from the seeded
    generator. Output is sorted by arrival.
    """
    if horizon_ms <= 0:
        return []
    total_requests = int(requests_over(ub, horizon_ms))
    if total_requests <= 0:
        return []
    rng = _arrival_rng(rng_seed, ub.id)
    jobs = []
    remaining = total_requests
    while remaining > 0:
        batch = min(ub.request_grouping, remaining)
        remaining -= batch
        jobs.append(_batch_job(ub, rng.uniform(0.0, horizon_ms), batch))
    jobs.sort(key=lambda j: j.arrival)
    return jobs


def generate_sweep_arrivals(
    user_bases: list[UserBase], horizon_ms: float, rng_seed, total_jobs: int
) -> list[Job]:
    """Arrival list for one load-sweep level: exactly `total_jobs`
    full-batch jobs over the horizon, split across user bases in
    proportion to their nominal traffic volume (largest-remainder
    rounding)."""
    if total_jobs <= 0 or not user_bases or horizon_ms <= 0:
        return []
    weights = [max(requests_over(ub, horizon_ms), 1.0) for ub in user_bases]
    total_w = sum(weights)
    exact = [total_jobs * w / total_w for w in weights]
    counts = [int(x) for x in exact]
    remainders = sorted(
        range(len(user_bases)), key=lambda i: (exact[i] - counts[i], -i), reverse=True
    )
    for i in remainders[: total_jobs - sum(counts)]:
        counts[i] += 1
    jobs = []
    for ub, n in zip(user_bases, counts):
        rng = _arrival_rng(rng_seed, ub.id, tag=f"sweep:{total_jobs}:")
        for _ in range(n):
            jobs.append(_batch_job(ub, rng.uniform(0.0, horizon_ms), ub.request_grouping))
    jobs.sort(key=lambda j: j.arrival)
    return jobs


def admit(job: Job, dc: Datacenter, now: float) -> AdmissionResult:
    """Admission check at arrival. QueueCap rejects when every VM queue
    is at capacity, counting jobs migrating toward a VM since they join
    its queue on landing (`dc.open_vms` is 0); Deadline always admits
    here (the engine schedules the expiry that may later reject the
    job)."""
    if dc.admission.mode == "queue_cap" and dc.open_vms == 0:
        return AdmissionResult(False, "QueueFull")
    return AdmissionResult(True)
