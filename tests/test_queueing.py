"""Queueing-theory oracles for the engine.

On one VM under rr and queue_cap admission with capacity K, a VM holds
at most K queued jobs plus the one running, so it is a FIFO loss queue
with K + 1 places: a job is rejected iff K + 1 jobs are in the system
when it arrives. A loss queue fed the engine's own arrival times must
reject exactly the jobs the engine rejects.

The rejected fraction must also match the M/D/1 loss probability
for K + 1 places: generated arrivals are i.i.d. uniform over the
horizon, a Poisson process conditioned on its count.

Arrivals at one instant are left out: the engine counts a job whose
zero-delay start is still pending as queued, so the second of two jobs
arriving together at an idle VM with K = 1 is rejected where the loss
queue admits it. Generated arrival times do not coincide.
"""

import math
from collections import deque

import pytest
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


def md1k_loss(rho, places):
    """Loss probability of an M/D/1 queue with `places` places (the job
    in service included) at offered load `rho`, from the chain of the
    number left behind at departures: with a_k = e^-rho rho^k / k!
    arrivals per service, solve for its stationary pi over 0..places-1
    by power iteration; then P_loss = 1 - 1 / (pi_0 + rho) (Gross &
    Harris, Fundamentals of Queueing Theory, on M/G/1/K)."""
    a = [math.exp(-rho) * rho**k / math.factorial(k) for k in range(places)]
    top = places - 1
    chain = []
    for i in range(places):
        # a departure leaving i > 0 behind starts the next service at
        # once; one leaving 0 behind waits for the next arrival
        low = max(i - 1, 0)
        row = [a[j - low] if low <= j < top else 0.0 for j in range(top)]
        chain.append(row + [1.0 - sum(row)])
    pi = [1.0 / places] * places
    for _ in range(10_000):
        last, pi = pi, [sum(p * row[j] for p, row in zip(pi, chain)) for j in range(places)]
        if max(abs(x - y) for x, y in zip(pi, last)) < 1e-15:
            break
    return 1.0 - 1.0 / (pi[0] + rho)


def test_md1k_loss_matches_known_limits():
    for rho in (0.5, 1.0, 2.0):
        # with no waiting room the service law does not matter: M/G/1/1
        # loses rho / (1 + rho) of the arrivals
        assert math.isclose(md1k_loss(rho, 1), rho / (1 + rho))
    # a long room loses nothing under load and the excess 1 - 1/rho over it
    assert abs(md1k_loss(0.5, 40)) < 1e-12
    assert math.isclose(md1k_loss(1.5, 40), 1 - 1 / 1.5, rel_tol=1e-6)


@pytest.mark.parametrize("capacity, rho", [(1, 0.7), (3, 0.9), (6, 1.2)])
def test_rejected_fraction_matches_md1k(capacity, rho):
    sim = Simulation(one_vm_queue_cap(capacity, rho, seed=1, jobs=20_000))
    metrics = sim.run()
    n = len(sim.jobs)
    loss = md1k_loss(rho, capacity + 1)
    z = (metrics.rejected / n - loss) / math.sqrt(loss * (1 - loss) / n)
    assert abs(z) < 4, f"rejected {metrics.rejected} of {n}, M/D/1/K loss {loss:.4f}, z {z:.2f}"
