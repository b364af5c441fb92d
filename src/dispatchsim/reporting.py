"""CSV and plot-series output for completed runs.

`run` writes summary.csv, jobs.csv, rejections.csv, rejections_bar.csv
and one hourly_response_<series>.csv per series; `sweep` writes only
rejections.csv and rejections_bar.csv, with one row per level.

All files are UTF-8 with \\n line endings and a '.' decimal separator.
Times and averages are written as `%.12g`, to 12 significant digits,
in the time unit the scenario declared. A time a job never reached is an
empty field: a rejected job has no start, finish or wait. jobs.csv
lists the jobs in id order, each `vm_history` joined with ';'.
summary.csv and the hourly series only format `RunMetrics.aggregates`,
one pass over the completed traces in id order that both writers share;
each average there is a left-to-right float sum from 0.0 divided by its
count. Each writer's `out_dir` must exist. Files are written to
`<name>.tmp` and renamed, and a failed write or rename removes the temp
file, so failures leave no partial output behind.
"""

from __future__ import annotations

import os
from itertools import chain

from .metrics import RunMetrics, rejection_percentage
from .model import COMPLETED

_RAN_ROW = "%s,%.12g,%.12g,%.12g,%.12g,%s,completed"
_UNSTARTED_ROW = "%s,%.12g,,,,%s,%s"


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


def _job_rows(metrics: RunMetrics):
    """Yield the jobs.csv row of each trace: one format call for each of
    the two shapes a run leaves, a job that ran and a job rejected before
    it started. A trace with a start that did not complete raises
    TypeError."""
    u = metrics.unit_ms
    for t in metrics.traces:
        h = t.vm_history
        history = h[0] if len(h) == 1 else ";".join(map(str, h))
        arrival, start = t.arrival, t.start
        if start is None:
            yield _UNSTARTED_ROW % (t.id, arrival / u, history, t.state)
        elif t.outcome != COMPLETED:
            raise TypeError(f"job {t.id} has a start and no finish")
        else:
            finish = (start + t.demand) + t.spec[1]  # `Job.finish`, inline
            yield _RAN_ROW % (
                t.id, arrival / u, start / u, finish / u, (start - arrival) / u, history,
            )


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
    summary, _ = metrics.aggregates
    summary_lines = ["metric,avg,min,max"] + [
        "%s,%.12g,%.12g,%.12g" % (name, s.avg, s.min, s.max) for name, s in summary.items()
    ]
    header = "id,arrival,start,finish,wait,vm_history,state"
    job_lines = chain([header], _job_rows(metrics))
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
    _, hourly = metrics.aggregates
    paths = []
    for series, hours in sorted(hourly.items()):
        lines = ["hour,avg_response"] + [
            "%s,%.12g" % (hour, total / count) for hour, (total, count) in sorted(hours.items())
        ]
        paths.append(
            _write_atomic(
                os.path.join(out_dir, f"hourly_response_{series}.csv"), lines
            )
        )
    return paths
