"""Aggregation of per-job traces into reported quantities: response
and processing time statistics, rejection percentage, starvation
report."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

from .model import MS_PER_HOUR, Job


class MetricsError(Exception):
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

    @cached_property
    def aggregates(self) -> tuple[dict[str, StatSummary], dict[str, dict[int, list]]]:
        """`aggregate(self)`, computed on first use and then shared by
        the writers."""
        return aggregate(self)


def aggregate(metrics: RunMetrics):
    """What summary.csv and the hourly series report, from one pass over
    the traces that finished, in id order: a dict of the StatSummary of
    response_time, processing_time and queue_wait (empty with no
    completed job), and a dict from each series, then each arrival hour,
    to its `[response sum, count]`.

    Response is finish minus arrival, processing is demand per request
    and queue wait is start minus arrival, each divided by `unit_ms`.
    Every sum adds left to right from 0.0, as `sum_in_order` does, and
    every min and max keeps the first of equal values, as `min()` and
    `max()` do. A trace's series is its user base id, or `jobs` for a
    `[jobs]` row, and its hour is the floor of its arrival in hours. A
    trace with a finish and no start raises TypeError."""
    u = metrics.unit_ms
    hourly: dict[str, dict[int, list]] = {}
    n = 0
    r_sum = p_sum = w_sum = 0.0
    for t in metrics.traces:
        finish = t.finish
        if finish is None:
            continue
        arrival, start = t.arrival, t.start
        r = (finish - arrival) / u
        p = t.demand / t.batch_size / u
        w = (start - arrival) / u
        if n:
            # min <= max unless both are NaN, so a new min is never a new max
            if r < r_min:
                r_min = r
            elif r > r_max:
                r_max = r
            if p < p_min:
                p_min = p
            elif p > p_max:
                p_max = p
            if w < w_min:
                w_min = w
            elif w > w_max:
                w_max = w
        else:
            r_min = r_max = r
            p_min = p_max = p
            w_min = w_max = w
        n += 1
        r_sum += r
        p_sum += p
        w_sum += w
        series = t.origin_ub
        if series is None:
            series = "jobs"
        hours = hourly.get(series)
        if hours is None:
            hours = hourly[series] = {}
        hour = math.floor(arrival / MS_PER_HOUR)
        acc = hours.get(hour)
        if acc is None:
            acc = hours[hour] = [0.0, 0]
        acc[0] += r
        acc[1] += 1
    summary = {}
    if n:
        summary = {
            "response_time": StatSummary(r_sum / n, r_min, r_max, n),
            "processing_time": StatSummary(p_sum / n, p_min, p_max, n),
            "queue_wait": StatSummary(w_sum / n, w_min, w_max, n),
        }
    return summary, hourly


def queue_wait(trace: Job) -> float:
    """Start minus arrival (the worked-example sense of response time),
    of a trace that started."""
    return trace.start - trace.arrival


def rejection_percentage(submitted: int, rejected: int) -> int:
    """100 x rejected / submitted, rounded half-up to an integer, for a
    run that submitted at least one job and rejected at most all of them."""
    return int(math.floor(100.0 * rejected / submitted + 0.5))


def starvation_report(traces, threshold: float) -> list[tuple[int, float]]:
    """Jobs that waited at least `threshold`, plus every job rejected
    by deadline expiry, as (job_id, wait) sorted by wait descending."""
    if threshold <= 0:
        raise MetricsError(f"threshold must be positive, got {threshold}")
    out = []
    for tr in traces:
        if tr.reject_reason == "DeadlineExpired":
            out.append((tr.id, tr.rejected_at - tr.arrival))
        elif tr.start is not None and (waited := queue_wait(tr)) >= threshold:
            out.append((tr.id, waited))
    out.sort(key=lambda e: (-e[1], e[0]))
    return out
