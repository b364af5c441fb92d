import codecs
import gc
import json
import os
import subprocess
import sys
import weakref

import pytest

import dispatchsim
from dispatchsim import cli, engine
from dispatchsim.cli import main
from dispatchsim.engine import Simulation


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def test_run_table6(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "table6_demo.scn", "--out", str(out)]) == 0
    rows = _read(out / "jobs.csv").splitlines()
    waits = {int(r.split(",")[0]): float(r.split(",")[4]) for r in rows[1:]}
    assert waits == {1: 0.0, 2: 9.0, 3: 16.0, 4: 3.0, 5: 8.0}


def test_run_missing_scenario(tmp_path, capsys):
    assert main(["run", str(tmp_path / "missing.scn")]) == 2
    assert "error" in capsys.readouterr().err


def test_run_invalid_scenario(tmp_path, capsys):
    bad = tmp_path / "bad.scn"
    bad.write_text("[scenario]\nname = x\n")
    assert main(["run", str(bad)]) == 2


def test_run_seed_determinism(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "paper_tables.scn", "--seed", "42", "--out", str(out_a)]) == 0
    assert main(["run", "paper_tables.scn", "--seed", "42", "--out", str(out_b)]) == 0
    for name in ("summary.csv", "rejections.csv", "jobs.csv"):
        assert _read(out_a / name) == _read(out_b / name)


def test_demo_output_and_exit(capsys):
    assert main(["demo"]) == 0
    out = capsys.readouterr().out
    assert "order: 1 4 2 5 3" in out
    assert "demo: PASS" in out


def test_demo_json(capsys):
    assert main(["demo", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["order"] == [1, 4, 2, 5, 3]
    assert payload["waits"] == {"1": 0, "4": 3, "2": 9, "5": 8, "3": 16}
    assert payload["ok"] is True


def _python_m(*argv):
    """Run `python -m dispatchsim *argv` in a new process."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(dispatchsim.__file__)))
    return subprocess.run(
        [sys.executable, "-m", "dispatchsim", *argv],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )


def test_python_dash_m_runs_the_cli():
    done = _python_m("demo")
    assert done.returncode == 0, done.stderr
    assert "demo: PASS" in done.stdout


def test_demo_tampered_expectations_fail(monkeypatch, capsys):
    # negative control: a wrong embedded table must trip the self-check
    monkeypatch.setattr(cli, "DEMO_EXPECTED_ORDER", [1, 2, 3, 4, 5])
    assert main(["demo"]) == 4
    assert "demo: FAIL" in capsys.readouterr().out


def test_sweep_six_levels(tmp_path, capsys):
    out = tmp_path / "sweep"
    code = main(
        ["sweep", "sweep_demo.scn", "--sweep", "5,10,15,20,25,30", "--out", str(out)]
    )
    assert code == 0
    rows = _read(out / "rejections.csv").splitlines()
    assert len(rows) == 7
    assert [int(r.split(",")[0]) for r in rows[1:]] == [5, 10, 15, 20, 25, 30]


def test_sweep_single_level(tmp_path):
    out = tmp_path / "sweep"
    assert main(["sweep", "sweep_demo.scn", "--sweep", "5", "--out", str(out)]) == 0
    assert len(_read(out / "rejections.csv").splitlines()) == 2


def test_sweep_holds_one_level_at_a_time(monkeypatch, tmp_path, capsys):
    # each level is reduced to its counts before the next level's jobs
    # are built, and none is alive when the rejection files are written
    levels = []

    def all_freed():
        gc.collect()
        return all(ref() is None for ref in levels)

    class WeakSimulation(Simulation):
        def __init__(self, *args, **kwargs):
            assert all_freed()
            super().__init__(*args, **kwargs)

        def run(self):
            metrics = super().run()
            levels.append(weakref.ref(metrics))
            return metrics

    write = cli.write_sweep_rejections_csv

    def write_once_freed(rows, out_dir):
        assert len(levels) == 3 and all_freed()
        return write(rows, out_dir)

    monkeypatch.setattr(cli, "Simulation", WeakSimulation)
    monkeypatch.setattr(cli, "write_sweep_rejections_csv", write_once_freed)
    out = tmp_path / "sweep"
    assert main(["sweep", "sweep_demo.scn", "--sweep", "5,10,15", "--out", str(out)]) == 0
    assert capsys.readouterr().out.startswith("level 5: rejected=")
    assert sorted(os.listdir(out)) == ["rejections.csv", "rejections_bar.csv"]


@pytest.mark.parametrize("levels", ["", "0,5", "10,5", "5,5", "a,b"])
def test_sweep_bad_levels(levels, tmp_path, capsys):
    assert main(["sweep", "sweep_demo.scn", "--sweep", levels]) == 2


def test_sweep_requires_user_bases(capsys):
    assert main(["sweep", "table6_demo.scn", "--sweep", "5"]) == 2


def test_sweep_requires_a_positive_horizon(tmp_path, capsys):
    # over a zero horizon no level submits a job, so none has a rejection count
    scn = tmp_path / "zero.scn"
    scn.write_text(_read_bundled("sweep_demo.scn").replace("horizon = 3000\n", "horizon = 0\n"))
    out = tmp_path / "sweep"
    assert main(["sweep", str(scn), "--sweep", "10,20", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "dispatchsim: error: sweep requires a positive horizon\n"
    assert captured.out == ""
    assert not out.exists()
    # a run over the same horizon still succeeds, with no generated jobs
    assert main(["run", str(scn), "--out", str(tmp_path / "run")]) == 0


def test_validate_ok(capsys):
    assert main(["validate", "paper_tables.scn"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [dc["id"] for dc in payload["datacenters"]] == ["DC1", "DC2", "DC3", "DC4"]


def test_validate_shows_ms_normalized_durations(capsys):
    assert main(["validate", "table6_demo.scn"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["horizon_ms"] == 86_400_000.0
    assert payload["jobs"][0]["burst_ms"] == 28_800_000.0


def test_validate_duplicate_datacenter(tmp_path, capsys):
    text = _read_bundled("paper_tables.scn")
    dup = text + "\n[datacenter.DC1]\nvms = 1\nrate = 1\nmemory = 1\nbandwidth = 1\nbandwidth_unit = units_per_ms\n"
    bad = tmp_path / "dup.scn"
    bad.write_text(dup)
    assert main(["validate", str(bad)]) == 2
    assert "duplicate" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "sweep", "validate"])
def test_non_utf8_scenario_exits_2(command, tmp_path, capsys):
    scn = tmp_path / "bad.scn"
    scn.write_bytes(b"\xff\xfe[scenario]\n")
    argv = [command, str(scn)] + (["--sweep", "5"] if command == "sweep" else [])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("dispatchsim: error: line 1: not UTF-8 text")
    assert err.count("\n") == 1


def _recording_simulation(runs):
    """`Simulation` subclass that appends each instance to `runs` when it runs."""

    class RecordingSimulation(Simulation):
        def run(self):
            runs.append(self)
            return super().run()

    return RecordingSimulation


@pytest.mark.parametrize(
    "argv", [["run", "table6_demo.scn"], ["sweep", "paper_tables.scn", "--sweep", "5"]]
)
def test_out_path_that_is_a_file_exits_2(argv, monkeypatch, tmp_path, capsys):
    # the output directory is made before any simulation runs
    runs = []
    monkeypatch.setattr(cli, "Simulation", _recording_simulation(runs))
    out = tmp_path / "taken"
    out.write_text("keep")
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("dispatchsim: error: ") and str(out) in err
    assert err.count("\n") == 1
    assert out.read_text() == "keep"
    assert runs == []


def _read_bundled(name):
    from dispatchsim.cli import _read_scenario_text

    return _read_scenario_text(name)


def test_scheduler_and_migration_overrides(tmp_path):
    out = tmp_path / "out"
    code = main(
        [
            "run",
            "migration_demo.scn",
            "--migration",
            "off",
            "--scheduler",
            "sjf",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    rows = _read(out / "rejections.csv").splitlines()
    assert rows[1].startswith("8,")


@pytest.mark.parametrize("deadline", ["-1", "0", "nan", "inf"])
def test_deadline_override_is_validated(deadline, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run", "table6_demo.scn", f"--deadline={deadline}", "--out", str(out)])
    assert code == 2
    assert "deadline" in capsys.readouterr().err
    assert not out.exists()


QCAP_DEMO = os.path.join(os.path.dirname(os.path.abspath(__file__)), "qcap_demo.scn")


def test_deadline_override_ignores_queue_capacity(monkeypatch, tmp_path):
    # --deadline makes a queue_cap file a deadline file: its
    # queue_capacity no longer bounds any queue
    runs = []
    monkeypatch.setattr(cli, "Simulation", _recording_simulation(runs))
    out = tmp_path / "override"
    assert main(["run", QCAP_DEMO, "--deadline", "1000000", "--out", str(out)]) == 0
    (sim,) = runs
    assert [t for t in sim.jobs if t.reject_reason == "QueueFull"] == []
    text = _read(QCAP_DEMO)
    assert "admission = queue_cap\nqueue_capacity = 2\n" in text
    edited = tmp_path / "deadline.scn"
    edited.write_text(
        text.replace(
            "admission = queue_cap\nqueue_capacity = 2\n",
            "admission = deadline\ndeadline = 1000000\n",
        )
    )
    assert main(["run", str(edited), "--out", str(tmp_path / "file")]) == 0
    assert (out / "jobs.csv").read_bytes() == (tmp_path / "file" / "jobs.csv").read_bytes()


@pytest.mark.parametrize("command", ["run", "validate"])
def test_deadline_under_queue_cap_exits_2(command, tmp_path, capsys):
    text = _read(QCAP_DEMO).replace("queue_capacity = 2\n", "queue_capacity = 2\ndeadline = 1\n")
    path = tmp_path / "qcap_deadline.scn"
    path.write_text(text)
    assert main([command, str(path)]) == 2
    assert "queue_cap admission takes no deadline" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "validate"])
def test_queue_capacity_under_deadline_exits_2(command, tmp_path, monkeypatch, capsys):
    # deadline admission would never apply the capacity
    text = _read_bundled("migration_demo.scn")
    assert "admission = deadline\n" in text
    path = tmp_path / "deadline_qcap.scn"
    path.write_text(text.replace("deadline = 150\n", "deadline = 150\nqueue_capacity = 1\n"))
    monkeypatch.chdir(tmp_path)
    assert main([command, str(path)]) == 2
    assert "deadline admission takes no queue_capacity" in capsys.readouterr().err
    assert not (tmp_path / "migration_demo_out").exists()


def _user_bases(time_unit, horizon, *rates, deadline=1):
    """Scenario text with one 1-VM datacenter and one user base per
    request rate (1000 users, batches of 100 requests)."""
    user_bases = "".join(
        f"""
[userbase.UB{i}]
requests_per_user_per_hour = {rate}
data_size_per_request = 1
datacenter = DC1
"""
        for i, rate in enumerate(rates, start=1)
    )
    return f"""
[scenario]
name = huge
time_unit = {time_unit}
horizon = {horizon}
seed = 1

[datacenter.DC1]
vms = 1
rate = 100
memory = 1
bandwidth = 1
bandwidth_unit = units_per_ms
{user_bases}
[policy]
admission = deadline
deadline = {deadline}
"""


TINY_RATE = _user_bases("hours", "1", 1).replace("rate = 100", "rate = 1e-320")

# a duration in ms, the request count, or a job's run or transfer time
# overflows to inf, or a [jobs] id overflows the migration log's 64-bit ids
OVERFLOWING = {
    "horizon": (_user_bases("hours", "1e305", 1), "horizon"),
    "deadline": (_user_bases("hours", "1", 1, deadline="1e305"), "deadline"),
    "requests": (_user_bases("ms", "1e308", "1e9"), "UB1"),
    "job_arrival": (_user_bases("hours", "1") + "\n[jobs]\njob = 1 1e305 1\n", "arrival"),
    "job_burst": (_user_bases("hours", "1") + "\n[jobs]\njob = 1 0 1e305\n", "burst"),
    "job_id": (
        _user_bases("hours", "1") + f"\n[jobs]\njob = {-2**62 - 1} 0 1\n",
        f"[jobs] job {-2**62 - 1} id must be between -2**62 and 2**62",
    ),
    "demand": (TINY_RATE, "user base UB1 full-batch demand must be finite, got inf ms"),
    "transfer": (
        _user_bases("hours", "1", 1).replace("bandwidth = 1\n", "bandwidth = 1e-320\n"),
        "user base UB1 full-batch transfer time must be finite, got inf ms",
    ),
    "demand_and_transfer": (
        TINY_RATE.replace("bandwidth = 1\n", "bandwidth = 1e-320\n"),
        "user base UB1 full-batch demand must be finite",
    ),
    "job_transfer": (
        _user_bases("hours", "1", 1).replace("bandwidth = 1\n", "bandwidth = 1e-300\n")
        + "\n[jobs]\njob = 1 0 1 1e300\n",
        "[jobs] job 1 transfer time must be finite, got inf ms",
    ),
    # 1e307 Mbit/s is 1.25e309 units/ms: inf, and every transfer time 0
    "bandwidth": (
        _user_bases("hours", "1", 1)
        .replace("bandwidth = 1\n", "bandwidth = 1e307\n")
        .replace("units_per_ms", "mbps"),
        "[datacenter.DC1] bandwidth must be finite in units/ms, got 1e+307 mbps",
    ),
}


@pytest.mark.parametrize("case", sorted(OVERFLOWING))
@pytest.mark.parametrize("command", ["run", "validate"])
def test_overflowing_scenario_exits_2(command, case, tmp_path, capsys):
    text, named = OVERFLOWING[case]
    scn = tmp_path / "huge.scn"
    scn.write_text(text)
    out = tmp_path / "out"
    argv = [command, str(scn)] + (["--out", str(out)] if command == "run" else [])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert named in err and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "sweep", "validate"])
def test_nul_in_name_exits_2(command, monkeypatch, tmp_path, capsys):
    # without --out, run and sweep name their output directory after it
    monkeypatch.chdir(tmp_path)
    scn = tmp_path / "nul.scn"
    scn.write_text(_user_bases("hours", "1", 1).replace("name = huge", "name = a\0b"))
    argv = [command, str(scn)] + (["--sweep", "5"] if command == "sweep" else [])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "name must not hold a NUL character" in err and "Traceback" not in err
    assert os.listdir(tmp_path) == ["nul.scn"]


@pytest.mark.parametrize("command", ["run", "sweep", "validate"])
def test_slash_in_name_exits_2(command, monkeypatch, tmp_path, capsys):
    # without --out, `name = ../escaped` would put the output outside the
    # working directory
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    scn = work / "slash.scn"
    scn.write_text(_user_bases("hours", "1", 1).replace("name = huge", "name = ../escaped"))
    argv = [command, str(scn)] + (["--sweep", "5"] if command == "sweep" else [])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "name must not hold a NUL character or '/'" in err
    assert err.count("\n") == 1
    assert os.listdir(tmp_path) == ["work"] and os.listdir(work) == ["slash.scn"]


# `run` names a file after each user base, hourly_response_<id>.csv
BAD_USER_BASE_IDS = {
    "slash": ("[userbase.a/b]", "", "must not hold '/' or a NUL character"),
    "nul": ("[userbase.a\0b]", "", "must not hold '/' or a NUL character"),
    "jobs": ("[userbase.jobs]", "[jobs]\njob = 1 0 1\n", "names the [jobs] rows"),
}


@pytest.mark.parametrize("case", sorted(BAD_USER_BASE_IDS))
@pytest.mark.parametrize("command", ["run", "sweep", "validate"])
def test_bad_user_base_id_exits_2(command, case, monkeypatch, tmp_path, capsys):
    header, jobs, message = BAD_USER_BASE_IDS[case]
    monkeypatch.chdir(tmp_path)
    scn = tmp_path / "ub.scn"
    scn.write_text(_user_bases("hours", "1", 1).replace("[userbase.UB1]", header) + jobs)
    argv = [command, str(scn)] + (["--sweep", "5"] if command == "sweep" else [])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert os.listdir(tmp_path) == ["ub.scn"]


def test_user_base_named_jobs_without_job_rows(tmp_path, capsys):
    scn = tmp_path / "ub.scn"
    scn.write_text(_user_bases("hours", "1", 1).replace("[userbase.UB1]", "[userbase.jobs]"))
    out = tmp_path / "out"
    assert main(["run", str(scn), "--out", str(out)]) == 0
    assert "hourly_response_jobs.csv" in os.listdir(out)


# 1000 users x 600 requests/h x 1000 h in batches of 100 = 6e6 jobs per
# user base: each is under the 1e7 event cap, together they are over it
OVER_CAP = _user_bases("hours", "1000", 600, 600)


def test_job_count_over_event_cap_exits_2(tmp_path, capsys):
    scn = tmp_path / "big.scn"
    scn.write_text(OVER_CAP)
    out = tmp_path / "out"
    assert main(["run", str(scn), "--out", str(out)]) == 2
    assert "12000000 jobs, more than the event cap 10000000" in capsys.readouterr().err
    assert not out.exists()
    # the count is a property of a run: the file itself is valid
    assert main(["validate", str(scn)]) == 0


def test_sweep_weights_an_over_cap_request_count(tmp_path, capsys):
    # sweep generates only its levels' jobs and uses the counts as weights
    scn = tmp_path / "big.scn"
    scn.write_text(OVER_CAP)
    out = tmp_path / "sweep"
    assert main(["sweep", str(scn), "--sweep", "5,10", "--out", str(out)]) == 0
    assert "level 10:" in capsys.readouterr().out


def test_sweep_level_over_event_cap_exits_2(monkeypatch, tmp_path, capsys):
    # levels run from the top down, so level 101 fails before its jobs
    # are built and before level 5 runs
    runs = []
    monkeypatch.setattr(engine, "EVENT_CAP", 100)
    monkeypatch.setattr(cli, "Simulation", _recording_simulation(runs))
    out = tmp_path / "sweep"
    assert main(["sweep", "sweep_demo.scn", "--sweep", "5,101", "--out", str(out)]) == 2
    assert "101 jobs, more than the event cap 100" in capsys.readouterr().err
    assert not out.exists()
    assert runs == []


@pytest.mark.parametrize(
    "argv, cap",
    [(["run", "table6_demo.scn"], 10), (["sweep", "sweep_demo.scn", "--sweep", "5"], 6)],
)
def test_event_cap_exceeded_exits_3(argv, cap, monkeypatch, tmp_path, capsys):
    # the cap is above the job count, so set-up passes and the run fails
    runs = []
    monkeypatch.setattr(engine, "EVENT_CAP", cap)
    monkeypatch.setattr(cli, "Simulation", _recording_simulation(runs))
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("dispatchsim: error: event count exceeded safety cap ")
    assert err.count("\n") == 1
    assert len(runs) == 1
    assert os.listdir(out) == []


def test_demo_ignores_a_scenario_in_the_working_directory(monkeypatch, tmp_path, capsys):
    (tmp_path / "table6_demo.scn").write_text("[scenario]\nname = broken\n")
    monkeypatch.chdir(tmp_path)
    assert main(["demo"]) == 0
    assert "demo: PASS" in capsys.readouterr().out


def test_process_exit_code_comes_from_main():
    done = _python_m("validate", "missing.scn")
    assert done.returncode == 2
    assert done.stderr.startswith("dispatchsim: error: scenario 'missing.scn' not found")
    assert done.stderr.count("\n") == 1


def test_scenario_with_byte_order_mark(tmp_path, capsys):
    assert main(["validate", "table6_demo.scn"]) == 0
    plain = capsys.readouterr().out
    scn = tmp_path / "bom.scn"
    scn.write_bytes(codecs.BOM_UTF8 + _read_bundled("table6_demo.scn").encode())
    assert main(["validate", str(scn)]) == 0
    assert capsys.readouterr().out == plain


def test_byte_order_mark_keeps_line_numbers(tmp_path, capsys):
    scn = tmp_path / "bom.scn"
    scn.write_bytes(codecs.BOM_UTF8 + b"ab\n\xff")
    assert main(["validate", str(scn)]) == 2
    assert capsys.readouterr().err.startswith("dispatchsim: error: line 2: not UTF-8 text")


def test_failed_output_rename_leaves_no_temp_file(tmp_path, capsys):
    out = tmp_path / "out"
    (out / "jobs.csv").mkdir(parents=True)
    assert main(["run", "table6_demo.scn", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("dispatchsim: error: ") and err.count("\n") == 1
    # the files written before jobs.csv stay, and no temp file is left
    assert sorted(os.listdir(out)) == [
        "jobs.csv",
        "rejections.csv",
        "rejections_bar.csv",
        "summary.csv",
    ]


def test_sweep_prints_requested_levels(tmp_path, capsys):
    # the [jobs] rows run at every level on top of its generated jobs
    text = _read_bundled("sweep_demo.scn") + "\n[jobs]\njob = 1 0 1\njob = 2 5 1\njob = 3 9 1\n"
    scn = tmp_path / "jobs.scn"
    scn.write_text(text)
    out = tmp_path / "sweep"
    assert main(["sweep", str(scn), "--sweep", "5,10", "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines[:2]] == ["level 5", "level 10"]
    rows = _read(out / "rejections.csv").splitlines()
    assert [int(r.split(",")[0]) for r in rows[1:]] == [8, 13]
