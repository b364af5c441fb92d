import math
import os
import tempfile

import pytest
from hypothesis import example, given, settings, strategies as st

from dispatchsim.engine import Simulation
from dispatchsim.metrics import RunMetrics, queue_wait
from dispatchsim.model import COMPLETED, MS_PER_HOUR, REJECTED, sum_in_order
from dispatchsim.reporting import (
    emit_plot_series,
    write_metrics_csv,
    write_sweep_rejections_csv,
)

from conftest import make_job, network_response, summarize


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _empty_metrics():
    return RunMetrics(
        unit_ms=1.0,
        submitted=0,
        completed=0,
        rejected=0,
    )


def test_jobs_csv_table6_waits(table6_config, tmp_path):
    metrics = Simulation(table6_config).run()
    paths = write_metrics_csv(metrics, tmp_path)
    rows = _read(paths["jobs"]).splitlines()
    assert rows[0] == "id,arrival,start,finish,wait,vm_history,state"
    waits = {int(r.split(",")[0]): float(r.split(",")[4]) for r in rows[1:]}
    assert waits == {1: 0.0, 2: 9.0, 3: 16.0, 4: 3.0, 5: 8.0}
    assert len(rows) - 1 == metrics.submitted


def test_empty_run_headers_only(tmp_path):
    paths = write_metrics_csv(_empty_metrics(), tmp_path)
    assert _read(paths["summary"]) == "metric,avg,min,max\n"
    assert _read(paths["rejections"]) == "submitted,rejected,percent\n"
    assert _read(paths["rejections_bar"]) == "submitted,rejected\n"
    assert _read(paths["jobs"]) == "id,arrival,start,finish,wait,vm_history,state\n"


def test_summary_csv_shape(sweep_config, tmp_path):
    metrics = Simulation(sweep_config, total_jobs=20).run()
    paths = write_metrics_csv(metrics, tmp_path)
    rows = _read(paths["summary"]).splitlines()
    assert [r.split(",")[0] for r in rows] == [
        "metric",
        "response_time",
        "processing_time",
        "queue_wait",
    ]
    for row in rows[1:]:
        _, avg, mn, mx = row.split(",")
        assert float(mn) <= float(avg) <= float(mx)


def test_deterministic_bytes(sweep_config, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    out_a.mkdir()
    out_b.mkdir()
    paths_a = write_metrics_csv(Simulation(sweep_config).run(), out_a)
    paths_b = write_metrics_csv(Simulation(sweep_config).run(), out_b)
    for key in paths_a:
        assert _read(paths_a[key]) == _read(paths_b[key])


def _rows(sweep_config, levels):
    """(submitted, rejected) of a sweep_demo run at each level."""
    runs = [Simulation(sweep_config, total_jobs=n).run() for n in levels]
    return [(m.submitted, m.rejected) for m in runs]


def test_sweep_rejections_rows_ordered(sweep_config, tmp_path):
    paths = write_sweep_rejections_csv(_rows(sweep_config, (15, 5, 10)), tmp_path)
    assert paths == {
        "rejections": str(tmp_path / "rejections.csv"),
        "rejections_bar": str(tmp_path / "rejections_bar.csv"),
    }
    for path in paths.values():
        rows = _read(path).splitlines()
        assert len(rows) == 4
        assert [int(r.split(",")[0]) for r in rows[1:]] == [5, 10, 15]


def test_hourly_response_bucket_bound(paper_config, tmp_path):
    metrics = Simulation(paper_config).run()
    paths = emit_plot_series(metrics, tmp_path)
    assert len(paths) == 5  # one series per user base
    for path in paths:
        rows = _read(path).splitlines()
        assert rows[0] == "hour,avg_response"
        assert len(rows) - 1 <= 24


def test_rejections_bar_sweep(sweep_config, tmp_path):
    levels = _rows(sweep_config, (5, 10, 15, 20, 25, 30))
    path = write_sweep_rejections_csv(levels, tmp_path)["rejections_bar"]
    rows = _read(path).splitlines()
    assert rows[0] == "submitted,rejected"
    assert len(rows) - 1 == 6
    rejected = [int(r.split(",")[1]) for r in rows[1:]]
    assert rejected == sorted(rejected)


def test_empty_metrics_empty_series(tmp_path):
    assert emit_plot_series(_empty_metrics(), tmp_path) == []
    assert os.listdir(tmp_path) == []


def test_no_partial_files_left_behind(table6_config, tmp_path):
    write_metrics_csv(Simulation(table6_config).run(), tmp_path)
    assert not [p for p in tmp_path.iterdir() if p.name.endswith(".tmp")]


def _ref_fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def reference_files(metrics):
    """The text of summary.csv, jobs.csv and each hourly_response_*.csv,
    written field by field with one `format(x, ".12g")` per number."""
    u = metrics.unit_ms
    done = [t for t in metrics.traces if t.state == COMPLETED]
    summary = ["metric,avg,min,max"]
    if done:
        for name, samples in [
            ("response_time", [network_response(t) / u for t in done]),
            ("processing_time", [t.demand / t.batch_size / u for t in done]),
            ("queue_wait", [queue_wait(t) / u for t in done]),
        ]:
            s = summarize(samples)
            summary.append(f"{name},{_ref_fmt(s.avg)},{_ref_fmt(s.min)},{_ref_fmt(s.max)}")
    jobs = ["id,arrival,start,finish,wait,vm_history,state"]
    for t in metrics.traces:
        wait = None if t.start is None else (t.start - t.arrival) / u
        jobs.append(",".join([
            str(t.id),
            _ref_fmt(t.arrival / u),
            _ref_fmt(None if t.start is None else t.start / u),
            _ref_fmt(None if t.finish is None else t.finish / u),
            _ref_fmt(wait),
            ";".join(str(v) for v in t.vm_history),
            t.state,
        ]))
    files = {"summary.csv": summary, "jobs.csv": jobs}
    by_ub = {}
    for t in done:
        series = t.origin_ub if t.origin_ub is not None else "jobs"
        hour = int(math.floor(t.arrival / MS_PER_HOUR))
        by_ub.setdefault(series, {}).setdefault(hour, []).append(network_response(t) / u)
    for series, hours in by_ub.items():
        files[f"hourly_response_{series}.csv"] = ["hour,avg_response"] + [
            f"{hour},{_ref_fmt(sum_in_order(v) / len(v))}" for hour, v in sorted(hours.items())
        ]
    return {name: "".join(line + "\n" for line in lines) for name, lines in files.items()}


# -5e-324 / H is -0.0, so floor gives hour 0 where // gives -1; the last
# is just below a whole hour, where arrival / H rounds up to it.
SPECIAL_TIMES = [
    -0.0, 0.0, 5e-324, -5e-324, 1e16, 0.1 + 0.2, 1.0, 7.0, MS_PER_HOUR,
    3.2982725956280398e19,
]
times = st.one_of(
    st.sampled_from(SPECIAL_TIMES),
    st.integers(-(10**9), 10**9).map(float),
    st.floats(allow_nan=False, allow_infinity=False),
)


# A demand or transfer time: often a signed zero, so that the derived
# finish, (start + demand) + transfer, takes each extreme value drawn for
# the start as well.
offsets = st.one_of(st.sampled_from([0.0, -0.0]), times)
REJECTIONS = st.one_of(st.just("QueueFull"), st.tuples(st.just("DeadlineExpired"), times))


@st.composite
def hand_traces(draw, job_id):
    """A trace of one of the two shapes a run leaves: completed, or
    rejected before it started."""
    completed = draw(st.booleans())
    return make_job(
        job_id,
        draw(times),
        draw(offsets),
        origin_ub=draw(st.sampled_from([None, "UB1", "UB2"])),
        transfer=draw(offsets),
        batch_size=draw(st.integers(1, 5)),
        start=draw(times) if completed else None,
        vm_history=tuple(draw(st.lists(st.integers(0, 150), max_size=4))),
        outcome=COMPLETED if completed else draw(REJECTIONS),
    )


@st.composite
def hand_metrics(draw):
    ids = draw(st.lists(st.integers(0, 10**12), unique=True, max_size=12))
    traces = [draw(hand_traces(i)) for i in ids]
    states = [t.state for t in traces]
    return RunMetrics(
        unit_ms=draw(st.sampled_from([1.0, 1000.0, 3_600_000.0])),
        submitted=len(traces),
        completed=states.count(COMPLETED),
        rejected=states.count(REJECTED),
        traces=traces,
    )


def _one(trace, unit_ms=1.0):
    return RunMetrics(unit_ms, 1, 0, 0, traces=[trace])


def _done(*samples):
    """A run of completed traces, one per `(arrival, t, ub)`, in id
    order: each arrives from user base `ub`, starts at `t`, has demand
    `t` and transfer time `-t` (a zero `t` keeps its sign), and so
    finishes at `(t + t) - t`, which is `t` while `t + t` is finite. At
    arrival 0.0 its response, queue wait and processing time are all
    `t`, with the sign of a zero `t` kept."""
    traces = [
        make_job(i, arrival, t, origin_ub=ub, transfer=-t if t else t, start=t,
                 outcome=COMPLETED)
        for i, (arrival, t, ub) in enumerate(samples, 1)
    ]
    return RunMetrics(1.0, len(traces), len(traces), 0, traces=traces)


@settings(max_examples=200, deadline=None)
@given(hand_metrics())
@example(_one(make_job(1, -5e-324, 1.0, start=0.0, vm_history=(0,), outcome=COMPLETED)))
@example(_one(make_job(2, 3.2982725956280398e19, 1.0, transfer=1e19, start=4e19,
                       outcome=COMPLETED)))  # finishes at 5e19
@example(_one(make_job(3, 0.1 + 0.2, 1.0, vm_history=(0, 1), outcome="QueueFull"), 1000.0))
# derived finishes of -5e-324 and of 4e19, where the demand rounds away
@example(_one(make_job(4, -5e-324, -0.0, transfer=-0.0, start=-5e-324, outcome=COMPLETED)))
@example(_one(make_job(5, 3.2982725956280398e19, 1.0, start=4e19, outcome=COMPLETED)))
# a finish of 0.1 that `start + (demand + transfer)` would give as 0.0
@example(_one(make_job(6, 0.0, -1e16, transfer=0.1, start=1e16, outcome=COMPLETED)))
# a lone -0.0 sample, whose sum from 0.0 is 0.0
@example(_done((0.0, -0.0, "UB1")))
# -0.0 then 0.0 as the first samples, and the reverse: min and max keep the first
@example(_done((0.0, -0.0, "UB1"), (0.0, 0.0, "UB1")))
@example(_done((0.0, 0.0, "UB1"), (0.0, -0.0, "UB1"), (0.0, 2.0, "UB1")))
# equal extremes, each reached twice, with a signed zero among them
@example(_done(*[(0.0, x, None) for x in (1.0, 0.0, 1.0, -0.0, 0.0, 1.0)]))
# two series whose hours interleave in id order
@example(_done((0.0, 1.0, "UB1"), (MS_PER_HOUR, MS_PER_HOUR + 2, "UB2"),
               (MS_PER_HOUR, MS_PER_HOUR + 3, "UB1"), (1.0, 4.0, "UB2"),
               (2.0, 5.0, "UB1"), (2 * MS_PER_HOUR, 2 * MS_PER_HOUR + 6, "UB2")))
# a response sum that overflows to inf and stays there
@example(_done(*[(0.0, x, "UB1") for x in (8e307, 8e307, 8e307, -8e307)]))
def test_writers_match_the_per_field_reference(metrics):
    """Every byte of summary.csv, jobs.csv and the hourly series equals
    the field-by-field reference writer's, on traces of both shapes."""
    with tempfile.TemporaryDirectory() as out:
        paths = list(write_metrics_csv(metrics, out).values())
        paths += emit_plot_series(metrics, out)
        written = {os.path.basename(p): _read(p) for p in paths}
    expected = reference_files(metrics)
    assert {k: v for k, v in written.items() if k in expected} == expected


def test_failed_row_leaves_no_jobs_file(tmp_path):
    """A row that raises part-way through jobs.csv leaves neither the
    file nor its temp file."""
    good = make_job(1, 0.0, 1.0, start=0.0, vm_history=(0,), outcome=COMPLETED)
    bad = make_job(2, None, 1.0, outcome="QueueFull")
    metrics = RunMetrics(1.0, 2, 1, 1, traces=[good, bad])
    with pytest.raises(TypeError):
        write_metrics_csv(metrics, tmp_path)
    names = os.listdir(tmp_path)
    assert "jobs.csv" not in names
    assert not [n for n in names if n.endswith(".tmp")]


@pytest.mark.parametrize(
    "lifecycle", [{"start": 1.0}, {"outcome": COMPLETED}], ids=["start", "finish"]
)
def test_trace_with_one_of_start_and_finish_raises(tmp_path, lifecycle):
    """A trace of neither shape a run leaves, one that started and did
    not finish or one that finished and never started, fails the write
    with TypeError and leaves neither jobs.csv nor a temp file."""
    trace = make_job(1, 0.0, 1.0, vm_history=(0,), **lifecycle)
    metrics = RunMetrics(1.0, 1, 1, 0, traces=[trace])
    with pytest.raises(TypeError):
        write_metrics_csv(metrics, tmp_path)
    names = os.listdir(tmp_path)
    assert "jobs.csv" not in names
    assert not [n for n in names if n.endswith(".tmp")]


class _CountingList(list):
    """A list that counts the iterations started over it."""

    iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


def test_writers_share_one_pass_over_the_traces(paper_config, tmp_path):
    """summary.csv and the hourly series come from one shared pass over
    the traces; jobs.csv streams the other."""
    metrics = Simulation(paper_config).run()
    metrics.traces = _CountingList(metrics.traces)
    write_metrics_csv(metrics, tmp_path)
    emit_plot_series(metrics, tmp_path)
    assert metrics.traces.iterations == 2
