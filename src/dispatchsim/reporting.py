"""CSV and plot-series output for completed runs.

`run` writes summary.csv, jobs.csv, rejections.csv, rejections_bar.csv
and one hourly_response_<series>.csv per series; `sweep` writes only
rejections.csv and rejections_bar.csv, with one row per level.

All files are UTF-8 with \\n line endings and a '.' decimal separator.
Durations are written in the time unit the scenario declared. Each
writer's `out_dir` must exist. Files are written to `<name>.tmp` and
renamed, and a failed write or rename removes the temp file, so
failures leave no partial output behind.
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


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _write_atomic(path, lines) -> str:
    tmp = f"{path}.tmp"
    fh = open(tmp, "w", encoding="utf-8", newline="\n")
    try:  # from here on `tmp` is ours to remove
        with fh:
            fh.writelines(line + "\n" for line in lines)
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise
    return path


def write_sweep_rejections_csv(rows, out_dir) -> dict[str, str]:
    """Write rejections.csv (`submitted,rejected,percent`) and
    rejections_bar.csv (`submitted,rejected`) from `(submitted,
    rejected)` pairs: a header, then one row per pair that submitted
    jobs, ordered by submitted count, into the existing `out_dir`. A run
    writes its one pair, a sweep one per level. Returns both paths."""
    rows = sorted(row for row in rows if row[0] > 0)
    files = {
        "rejections": ["submitted,rejected,percent"]
        + [f"{s},{r},{rejection_percentage(s, r)}" for s, r in rows],
        "rejections_bar": ["submitted,rejected"] + [f"{s},{r}" for s, r in rows],
    }
    return {
        stem: _write_atomic(os.path.join(out_dir, f"{stem}.csv"), lines)
        for stem, lines in files.items()
    }


def write_metrics_csv(metrics: RunMetrics, out_dir) -> dict[str, str]:
    """Write summary.csv, jobs.csv and, through
    `write_sweep_rejections_csv` with the run's one row, rejections.csv
    and rejections_bar.csv into the existing `out_dir`. jobs.csv lists
    the traces in id order. Returns the paths keyed by file stem."""
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
        **write_sweep_rejections_csv([(metrics.submitted, metrics.rejected)], out_dir),
        "jobs": _write_atomic(os.path.join(out_dir, "jobs.csv"), job_lines),
    }


def emit_plot_series(metrics: RunMetrics, out_dir) -> list[str]:
    """Write hourly_response_<series>.csv for external plotting: per
    series, `hour,avg_response`, the average network response of the
    completed jobs bucketed by arrival hour. A series is a user base id,
    or `jobs` for the `[jobs]` rows; `out_dir` must exist. Returns the
    paths in series order."""
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
