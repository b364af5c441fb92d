"""Queueing-theory oracles for the engine.

On one VM under rr and queue_cap admission with capacity K, a VM holds
at most K queued jobs plus the one running, so it is a FIFO loss queue
with K + 1 places: a job is rejected iff K + 1 jobs are in the system
when it arrives. A loss queue fed the engine's own arrival times must
reject exactly the jobs the engine rejects.

Arrivals at one instant are left out: the engine counts a job whose
zero-delay start is still pending as queued, so the second of two jobs
arriving together at an idle VM with K = 1 is rejected where the loss
queue admits it. Generated arrival times do not coincide.
"""

from collections import deque

from hypothesis import given, settings, strategies as st

from dispatchsim.engine import Simulation
from dispatchsim.scenario import load_scenario

SERVICE_MS = 250.0


def one_vm_queue_cap(capacity, rho, seed, jobs=2000, arrivals=()):
    """One VM under rr and queue_cap admission with `capacity`, fed
    about `jobs` jobs of SERVICE_MS each from one user base at load
    `rho`, after explicit jobs arriving at `arrivals` (ms)."""
    horizon = jobs * SERVICE_MS / rho
    explicit = "".join(f"job = {i} {a} {SERVICE_MS}\n" for i, a in enumerate(arrivals, 1))
    return load_scenario(
        f"""
[scenario]
name = md1k
time_unit = ms
horizon = {horizon!r}
seed = {seed}

[datacenter.DC1]
vms = 1
rate = 100
memory = 1
bandwidth = 1000
bandwidth_unit = units_per_ms

[userbase.UB1]
requests_per_user_per_hour = {rho * 3_600_000 / SERVICE_MS!r}
data_size_per_request = 1
datacenter = DC1
user_grouping = 1
request_grouping = 1
instruction_length = {SERVICE_MS * 100!r}

[policy]
scheduler = rr
migration = off
admission = queue_cap
queue_capacity = {capacity}

[jobs]
{explicit}"""
    )


def loss_queue_rejections(jobs, places):
    """Ids of the jobs a FIFO queue with `places` places (the job in
    service included) rejects. A job finishing at the instant another
    arrives is still in the system: the engine schedules every arrival
    before any finish, so at equal times the arrival pops first."""
    finishes = deque()  # of the jobs in the system, in service order
    rejected = set()
    for job in sorted(jobs, key=lambda j: j.arrival):
        while finishes and finishes[0] < job.arrival:
            finishes.popleft()
        if len(finishes) == places:
            rejected.add(job.id)
        else:
            finishes.append(max(job.arrival, finishes[-1] if finishes else 0.0) + job.demand)
    return rejected


@settings(max_examples=50, deadline=None)
@given(
    capacity=st.integers(1, 6),
    rho=st.sampled_from([0.7, 0.9, 1.2, 1.5]),
    seed=st.integers(0, 2**32),
)
def test_queue_cap_rejects_as_a_loss_queue(capacity, rho, seed):
    sim = Simulation(one_vm_queue_cap(capacity, rho, seed))
    metrics = sim.run()
    assert {job.demand for job in sim.jobs} == {SERVICE_MS}
    assert len({job.arrival for job in sim.jobs}) == len(sim.jobs)
    engine_rejected = {t.id for t in metrics.traces if t.reject_reason == "QueueFull"}
    assert engine_rejected == loss_queue_rejections(sim.jobs, capacity + 1)
    assert metrics.rejected == len(engine_rejected)


def test_arrival_at_a_finish_finds_the_finishing_job_in_the_system():
    # job 1 runs 0-250 and job 2 waits; job 3 arrives as job 1 finishes
    # and finds both, job 4 arrives after and finds one
    sim = Simulation(one_vm_queue_cap(1, 1.0, 1, jobs=0, arrivals=[0, 1, 250, 251]))
    metrics = sim.run()
    assert [t.reject_reason for t in metrics.traces] == [None, None, "QueueFull", None]
    assert loss_queue_rejections(sim.jobs, 2) == {3}
