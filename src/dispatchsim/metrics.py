"""Aggregation of per-job traces into reported quantities: response
and processing time statistics, rejection percentage, starvation
report."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .model import COMPLETED, REJECTED, Job, sum_in_order


class MetricsError(Exception):
    pass


class EmptyInput(MetricsError):
    pass


class NeverStarted(MetricsError):
    pass


class NoSubmissions(MetricsError):
    pass


@dataclass
class StatSummary:
    avg: float
    min: float
    max: float
    count: int


@dataclass
class RunMetrics:
    """Everything one run produces: counts, per-job traces (the run's
    own jobs, in id order), and the migration decisions taken along the
    way."""

    unit_ms: float  # ms per time unit the scenario declared; CSV output uses it
    submitted: int
    completed: int
    rejected: int
    traces: list[Job] = field(default_factory=list)
    event_count: int = 0
    migration_log: list[tuple] = field(default_factory=list)


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


def queue_wait(trace: Job) -> float:
    """Start minus arrival (the worked-example sense of response time)."""
    if trace.start is None:
        raise NeverStarted(f"job {trace.id} never started")
    return trace.start - trace.arrival


def network_response(trace: Job) -> float:
    """Finish minus arrival, transfer delay included."""
    if trace.finish is None:
        raise NeverStarted(f"job {trace.id} never finished")
    return trace.finish - trace.arrival


def rejection_percentage(submitted: int, rejected: int) -> int:
    """100 x rejected / submitted, rounded half-up to an integer."""
    if submitted <= 0:
        raise NoSubmissions("no jobs submitted")
    if rejected < 0 or rejected > submitted:
        raise MetricsError(f"rejected {rejected} out of range for {submitted}")
    return int(math.floor(100.0 * rejected / submitted + 0.5))


def starvation_report(traces, threshold: float) -> list[tuple[int, float]]:
    """Jobs that waited at least `threshold`, plus every job rejected
    by deadline expiry, as (job_id, wait) sorted by wait descending."""
    if threshold <= 0:
        raise MetricsError(f"threshold must be positive, got {threshold}")
    out = []
    for tr in traces:
        if tr.state == REJECTED and tr.reject_reason == "DeadlineExpired":
            out.append((tr.id, tr.rejected_at - tr.arrival))
        elif tr.start is not None and (waited := queue_wait(tr)) >= threshold:
            out.append((tr.id, waited))
    out.sort(key=lambda e: (-e[1], e[0]))
    return out


def completed_traces(metrics: RunMetrics) -> list[Job]:
    return [t for t in metrics.traces if t.state == COMPLETED]
