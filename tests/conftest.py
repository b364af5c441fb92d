import pytest

from dispatchsim.cli import _read_scenario_text
from dispatchsim.metrics import MetricsError, RunMetrics, StatSummary
from dispatchsim.model import COMPLETED, Job, sum_in_order
from dispatchsim.scenario import load_scenario


def bundled(name):
    return load_scenario(_read_scenario_text(name))


@pytest.fixture
def table6_config():
    return bundled("table6_demo.scn")


@pytest.fixture
def paper_config():
    return bundled("paper_tables.scn")


@pytest.fixture
def sweep_config():
    return bundled("sweep_demo.scn")


@pytest.fixture
def migration_config():
    return bundled("migration_demo.scn")


# Every public field of a trace, stored or derived from `spec` and
# `outcome`: two traces agree on all of these exactly when a run recorded
# the same of both jobs.
TRACE_FIELDS = (
    "id", "arrival", "demand", "origin_ub", "transfer", "batch_size", "start", "finish",
    "vm_history", "vm", "state", "reject_reason", "rejected_at",
)


def trace_fields(job: Job) -> dict:
    """`TRACE_FIELDS` of `job`, by name."""
    return {name: getattr(job, name) for name in TRACE_FIELDS}


def make_job(id, arrival, demand, *, origin_ub=None, transfer=0.0, batch_size=1,
             start=None, vm_history=(), outcome=None) -> Job:
    """A hand-made job with a `spec` of its own. Its finish is derived,
    `(start + demand) + transfer`, once `outcome` is `COMPLETED`."""
    return Job(id, arrival, demand, (origin_ub, transfer, batch_size), start, vm_history,
               outcome=outcome)


TABLE6_JOBS = [(1, 0.0, 8.0), (2, 1.0, 4.0), (3, 3.0, 6.0), (4, 5.0, 2.0), (5, 6.0, 5.0)]
TABLE6_ORDER = [1, 4, 2, 5, 3]
TABLE6_WAITS = {1: 0.0, 4: 3.0, 2: 9.0, 5: 8.0, 3: 16.0}


def sjf_at_zero(bursts):
    """One VM under sjf with every job arriving at t = 0 and a deadline
    above the sum of bursts, so every job runs; jobs are numbered from 1."""
    jobs = "\n".join(f"job = {i} 0 {b}" for i, b in enumerate(bursts, start=1))
    return load_scenario(
        f"""
[scenario]
name = sjf_at_zero
time_unit = ms
horizon = 0
seed = 1

[datacenter.DC1]
vms = 1
rate = 1
memory = 1
bandwidth = 1
bandwidth_unit = units_per_ms

[policy]
scheduler = sjf
admission = deadline
deadline = {sum(bursts) + 1}

[jobs]
{jobs}
"""
    )


# Per-sample reference helpers: the writers report these statistics
# from one pass over the traces (`metrics.aggregate`), and the tests
# recompute them from per-sample lists.


class EmptyInput(MetricsError):
    pass


def summarize(samples) -> StatSummary:
    """Mean, min and max of a non-empty sample list, read in place. The
    mean divides the left-to-right float sum (`sum_in_order`) by the
    count."""
    if not samples:
        raise EmptyInput("summarize requires at least one sample")
    return StatSummary(
        avg=sum_in_order(samples) / len(samples),
        min=min(samples),
        max=max(samples),
        count=len(samples),
    )


def network_response(trace: Job) -> float:
    """Finish minus arrival, transfer delay included, of a completed trace."""
    return trace.finish - trace.arrival


def completed_traces(metrics: RunMetrics) -> list[Job]:
    return [t for t in metrics.traces if t.state == COMPLETED]
