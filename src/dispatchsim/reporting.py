"""CSV and plot-series output for completed runs.

All files are UTF-8 with \\n line endings and a '.' decimal separator.
Durations are written in the time unit the scenario declared. Files
are written to a temp name and renamed, so failures leave no partial
output behind.
"""

from __future__ import annotations

import math
import os

from .metrics import (
    RunMetrics,
    completed_traces,
    network_response,
    queue_wait,
    rejection_percentage,
    summarize,
)
from .model import MS_PER_HOUR

PLOT_KINDS = ("hourly_response", "rejections_bar")


class ReportError(Exception):
    pass


class UnknownKind(ReportError):
    pass


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _write_atomic(path, lines) -> str:
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(line + "\n")
    os.replace(tmp, path)
    return path


def write_metrics_csv(metrics: RunMetrics, out_dir) -> dict[str, str]:
    """Write summary.csv, rejections.csv and jobs.csv for one run.
    jobs.csv lists the traces in the order given (id order from the
    engine). Returns the paths keyed by file stem."""
    os.makedirs(out_dir, exist_ok=True)
    u = metrics.unit_ms
    done = completed_traces(metrics)

    summary_lines = ["metric,avg,min,max"]
    if done:
        rows = [
            ("response_time", [network_response(t) / u for t in done]),
            ("processing_time", [t.demand / t.batch_size / u for t in done]),
            ("queue_wait", [queue_wait(t) / u for t in done]),
        ]
        for name, samples in rows:
            s = summarize(samples)
            summary_lines.append(f"{name},{_fmt(s.avg)},{_fmt(s.min)},{_fmt(s.max)}")

    rejection_lines = ["submitted,rejected,percent"]
    if metrics.submitted > 0:
        pct = rejection_percentage(metrics.submitted, metrics.rejected)
        rejection_lines.append(f"{metrics.submitted},{metrics.rejected},{pct}")

    job_lines = ["id,arrival,start,finish,wait,vm_history,state"]
    for t in metrics.traces:
        wait = None if t.start is None else (t.start - t.arrival) / u
        job_lines.append(
            ",".join(
                [
                    str(t.id),
                    _fmt(t.arrival / u),
                    _fmt(None if t.start is None else t.start / u),
                    _fmt(None if t.finish is None else t.finish / u),
                    _fmt(wait),
                    ";".join(str(v) for v in t.vm_history),
                    t.state,
                ]
            )
        )

    return {
        "summary": _write_atomic(os.path.join(out_dir, "summary.csv"), summary_lines),
        "rejections": _write_atomic(
            os.path.join(out_dir, "rejections.csv"), rejection_lines
        ),
        "jobs": _write_atomic(os.path.join(out_dir, "jobs.csv"), job_lines),
    }


def write_sweep_rejections_csv(runs: list[RunMetrics], out_dir) -> str:
    """Aggregated rejections.csv across sweep levels, ordered by
    submitted count."""
    os.makedirs(out_dir, exist_ok=True)
    lines = ["submitted,rejected,percent"]
    for m in sorted(runs, key=lambda m: m.submitted):
        if m.submitted > 0:
            pct = rejection_percentage(m.submitted, m.rejected)
            lines.append(f"{m.submitted},{m.rejected},{pct}")
    return _write_atomic(os.path.join(out_dir, "rejections.csv"), lines)


def emit_plot_series(metrics, kind: str, out_dir) -> list[str]:
    """Two-column (x, y) series files for external plotting.

    hourly_response: one file per user base, average network response
    of jobs bucketed by arrival hour. rejections_bar: rejected count
    per submitted-count level; accepts a single run or a sweep list.
    """
    if kind not in PLOT_KINDS:
        raise UnknownKind(f"unknown plot kind {kind!r}; expected one of {PLOT_KINDS}")
    os.makedirs(out_dir, exist_ok=True)

    if kind == "rejections_bar":
        runs = metrics if isinstance(metrics, list) else [metrics]
        lines = ["submitted,rejected"]
        for m in sorted(runs, key=lambda m: m.submitted):
            if m.submitted > 0:
                lines.append(f"{m.submitted},{m.rejected}")
        return [_write_atomic(os.path.join(out_dir, "rejections_bar.csv"), lines)]

    u = metrics.unit_ms
    by_ub: dict[str, dict[int, list[float]]] = {}
    for t in completed_traces(metrics):
        series = t.origin_ub if t.origin_ub is not None else "jobs"
        hour = int(math.floor(t.arrival / MS_PER_HOUR))
        by_ub.setdefault(series, {}).setdefault(hour, []).append(
            network_response(t) / u
        )
    paths = []
    for series in sorted(by_ub):
        lines = ["hour,avg_response"]
        for hour in sorted(by_ub[series]):
            samples = by_ub[series][hour]
            lines.append(f"{hour},{_fmt(sum(samples) / len(samples))}")
        paths.append(
            _write_atomic(
                os.path.join(out_dir, f"hourly_response_{series}.csv"), lines
            )
        )
    return paths
