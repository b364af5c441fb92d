import pytest

from dispatchsim.engine import Simulation
from dispatchsim.metrics import RunMetrics
from dispatchsim.reporting import (
    UnknownKind,
    emit_plot_series,
    write_metrics_csv,
    write_sweep_rejections_csv,
)


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _empty_metrics():
    return RunMetrics(
        scenario_name="empty",
        unit_ms=1.0,
        seed=1,
        horizon_ms=0.0,
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
    paths_a = write_metrics_csv(Simulation(sweep_config).run(), out_a)
    paths_b = write_metrics_csv(Simulation(sweep_config).run(), out_b)
    for key in paths_a:
        assert _read(paths_a[key]) == _read(paths_b[key])


def test_sweep_rejections_rows_ordered(sweep_config, tmp_path):
    runs = [Simulation(sweep_config, total_jobs=n).run() for n in (15, 5, 10)]
    path = write_sweep_rejections_csv(runs, tmp_path)
    rows = _read(path).splitlines()
    assert len(rows) == 4
    assert [int(r.split(",")[0]) for r in rows[1:]] == [5, 10, 15]


def test_hourly_response_bucket_bound(paper_config, tmp_path):
    metrics = Simulation(paper_config).run()
    paths = emit_plot_series(metrics, "hourly_response", tmp_path)
    assert len(paths) == 5  # one series per user base
    for path in paths:
        rows = _read(path).splitlines()
        assert rows[0] == "hour,avg_response"
        assert len(rows) - 1 <= 24


def test_rejections_bar_sweep(sweep_config, tmp_path):
    runs = [Simulation(sweep_config, total_jobs=n).run() for n in (5, 10, 15, 20, 25, 30)]
    (path,) = emit_plot_series(runs, "rejections_bar", tmp_path)
    rows = _read(path).splitlines()
    assert rows[0] == "submitted,rejected"
    assert len(rows) - 1 == 6
    rejected = [int(r.split(",")[1]) for r in rows[1:]]
    assert rejected == sorted(rejected)


def test_empty_metrics_empty_series(tmp_path):
    paths = emit_plot_series(_empty_metrics(), "hourly_response", tmp_path)
    assert paths == []
    (path,) = emit_plot_series(_empty_metrics(), "rejections_bar", tmp_path)
    assert _read(path) == "submitted,rejected\n"


def test_unknown_plot_kind(tmp_path):
    with pytest.raises(UnknownKind):
        emit_plot_series(_empty_metrics(), "pie", tmp_path)


def test_no_partial_files_left_behind(table6_config, tmp_path):
    write_metrics_csv(Simulation(table6_config).run(), tmp_path)
    assert not [p for p in tmp_path.iterdir() if p.name.endswith(".tmp")]
