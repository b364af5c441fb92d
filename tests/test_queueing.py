"""Queueing-theory oracles for the engine.

On one VM under rr and queue_cap admission with capacity K, a VM holds
at most K queued jobs plus the one running, so it is a FIFO loss queue
with K + 1 places: a job is rejected iff K + 1 jobs are in the system
when it arrives. A loss queue fed the engine's own arrival times must
reject exactly the jobs the engine rejects.

The rejected fraction must also match the M/D/1 loss probability
for K + 1 places: generated arrivals are i.i.d. uniform over the
horizon, a Poisson process conditioned on its count.

Mean waits must match the textbook results for M/D/1, M/G/1 and
non-preemptive priority queues, with no rejections: deadline admission
with a deadline past the horizon.

Arrivals at one instant are left out: the engine counts a job whose
zero-delay start is still pending as queued, so the second of two jobs
arriving together at an idle VM with K = 1 is rejected where the loss
queue admits it. Generated arrival times do not coincide.
`test_arrivals_at_one_instant_fill_the_loss_queue` holds two and three
such arrivals as known failures.
"""

import math
import statistics
from collections import deque
from operator import attrgetter

import pytest
from hypothesis import given, settings, strategies as st

from dispatchsim.engine import Simulation
from dispatchsim.scenario import load_scenario

SERVICE_MS = 250.0
MIX_MS = (50.0, 450.0)  # a short and a long class


def one_vm(rho, seed, jobs=2000, capacity=None, scheduler="rr", services=(SERVICE_MS,),
           arrivals=()):
    """One VM under `scheduler`, fed about `jobs` jobs at load `rho`
    from one user base per service time in `services` (ms), all at the
    same rate, after explicit jobs of SERVICE_MS arriving at `arrivals`
    (ms). Admission is queue_cap with `capacity`, or, when `capacity` is
    None, deadline admission with a deadline past the horizon, which
    rejects no job."""
    horizon = jobs * statistics.fmean(services) / rho
    explicit = "".join(f"job = {i} {a} {SERVICE_MS}\n" for i, a in enumerate(arrivals, 1))
    if capacity is None:
        admission = f"admission = deadline\ndeadline = {2 * horizon!r}"
    else:
        admission = f"admission = queue_cap\nqueue_capacity = {capacity}"
    user_bases = "".join(
        f"""
[userbase.UB{i}]
requests_per_user_per_hour = {rho * 3_600_000 / sum(services)!r}
data_size_per_request = 1
datacenter = DC1
user_grouping = 1
request_grouping = 1
instruction_length = {service * 100!r}
"""
        for i, service in enumerate(services, 1)
    )
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
{user_bases}
[policy]
scheduler = {scheduler}
migration = off
{admission}

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
    sim = Simulation(one_vm(rho, seed, capacity=capacity))
    metrics = sim.run()
    assert {job.demand for job in sim.jobs} == {SERVICE_MS}
    assert len({job.arrival for job in sim.jobs}) == len(sim.jobs)
    engine_rejected = {t.id for t in metrics.traces if t.reject_reason == "QueueFull"}
    assert engine_rejected == loss_queue_rejections(sim.jobs, capacity + 1)
    assert metrics.rejected == len(engine_rejected)


def test_arrival_at_a_finish_finds_the_finishing_job_in_the_system():
    # job 1 runs 0-250 and job 2 waits; job 3 arrives as job 1 finishes
    # and finds both, job 4 arrives after and finds one
    sim = Simulation(one_vm(1.0, 1, jobs=0, capacity=1, arrivals=[0, 1, 250, 251]))
    metrics = sim.run()
    assert [t.reject_reason for t in metrics.traces] == [None, None, "QueueFull", None]
    assert loss_queue_rejections(sim.jobs, 2) == {3}


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="a job whose zero-delay JobStart is pending counts as queued (ROADMAP item 5)",
)
@pytest.mark.parametrize("arrivals, rejected", [([0, 0], set()), ([0, 0, 0], {3})])
def test_arrivals_at_one_instant_fill_the_loss_queue(arrivals, rejected):
    # an idle VM with K = 1 runs job 1 and holds job 2, and rejects a
    # third; the engine rejects job 2 while job 1's start is still pending
    sim = Simulation(one_vm(1.0, 1, jobs=0, capacity=1, arrivals=arrivals))
    metrics = sim.run()
    assert loss_queue_rejections(sim.jobs, 2) == rejected
    assert {t.id for t in metrics.traces if t.reject_reason == "QueueFull"} == rejected


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
    sim = Simulation(one_vm(rho, 1, jobs=20_000, capacity=capacity))
    metrics = sim.run()
    n = len(sim.jobs)
    loss = md1k_loss(rho, capacity + 1)
    z = (metrics.rejected / n - loss) / math.sqrt(loss * (1 - loss) / n)
    assert abs(z) < 4, f"rejected {metrics.rejected} of {n}, M/D/1/K loss {loss:.4f}, z {z:.2f}"



def steady_waits(rho, **kwargs):
    """(demand, wait) in ms of each job of a 20,000-job run of `one_vm`
    at seed 1, in arrival order, without the first and last 5 % of jobs
    by arrival: the queue starts empty and drains after the horizon."""
    metrics = Simulation(one_vm(rho, 1, jobs=20_000, **kwargs)).run()
    assert metrics.rejected == 0
    traces = sorted(metrics.traces, key=attrgetter("arrival"))
    cut = len(traces) // 20
    return [(t.demand, t.start - t.arrival) for t in traces[cut : len(traces) - cut]]


def batch_means_z(waits, theory, batches=20):
    """z-score of the mean of `waits` against `theory`, with the standard
    error taken from the means of `batches` consecutive batches, which
    are nearly independent where single waits are not."""
    size = len(waits) // batches
    means = [statistics.fmean(waits[b * size : (b + 1) * size]) for b in range(batches)]
    return (statistics.fmean(means) - theory) / (statistics.stdev(means) / math.sqrt(batches))


def assert_mean_wait(waits, theory, label):
    z = batch_means_z(waits, theory)
    assert abs(z) < 4, f"{label}: mean wait {statistics.fmean(waits):.1f}, theory {theory:.1f}, z {z:.2f}"


@pytest.mark.parametrize("rho", [0.5, 0.7])
def test_md1_mean_wait_matches_pollaczek_khinchine(rho):
    # Wq = rho S / (2 (1 - rho))
    waits = [w for _, w in steady_waits(rho)]
    assert_mean_wait(waits, rho * SERVICE_MS / (2 * (1 - rho)), f"M/D/1 rho {rho}")


# the mix at load 0.5: arrivals per ms, and the mean residual work an
# arrival finds in service, W0 = lambda E[S^2] / 2
MIX_RHO = 0.5
MIX_LAMBDA = MIX_RHO / statistics.fmean(MIX_MS)
MIX_W0 = MIX_LAMBDA * statistics.fmean(s * s for s in MIX_MS) / 2


def test_mg1_mean_wait_matches_pollaczek_khinchine():
    # FIFO over both classes: Wq = W0 / (1 - rho)
    waits = [w for _, w in steady_waits(MIX_RHO, services=MIX_MS)]
    assert_mean_wait(waits, MIX_W0 / (1 - MIX_RHO), "M/G/1")


def test_sjf_class_waits_match_cobham():
    # sjf serves the short class first, each class in arrival order, and
    # never preempts: W_k = W0 / ((1 - sigma_{k-1}) (1 - sigma_k)) with
    # sigma_k the load of classes 1..k (Cobham 1954)
    jobs = steady_waits(MIX_RHO, scheduler="sjf", services=MIX_MS)
    sigma = 0.0
    for service in MIX_MS:
        above = sigma
        sigma += MIX_LAMBDA / len(MIX_MS) * service
        waits = [w for demand, w in jobs if demand == service]
        theory = MIX_W0 / ((1 - above) * (1 - sigma))
        assert_mean_wait(waits, theory, f"class {service} ms")
