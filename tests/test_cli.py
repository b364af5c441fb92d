import json

import pytest

from dispatchsim import cli
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


@pytest.mark.parametrize("levels", ["", "0,5", "10,5", "5,5", "a,b"])
def test_sweep_bad_levels(levels, tmp_path, capsys):
    assert main(["sweep", "sweep_demo.scn", "--sweep", levels]) == 2


def test_sweep_requires_user_bases(capsys):
    assert main(["sweep", "table6_demo.scn", "--sweep", "5"]) == 2


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


@pytest.mark.parametrize(
    "argv", [["run", "table6_demo.scn"], ["sweep", "paper_tables.scn", "--sweep", "5"]]
)
def test_out_path_that_is_a_file_exits_2(argv, tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("keep")
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("dispatchsim: error: ") and str(out) in err
    assert err.count("\n") == 1
    assert out.read_text() == "keep"


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


# a duration in ms or the request count overflows to inf
OVERFLOWING = {
    "horizon": (_user_bases("hours", "1e305", 1), "horizon"),
    "deadline": (_user_bases("hours", "1", 1, deadline="1e305"), "deadline"),
    "requests": (_user_bases("ms", "1e308", "1e9"), "UB1"),
    "job_arrival": (_user_bases("hours", "1") + "\n[jobs]\njob = 1 1e305 1\n", "arrival"),
    "job_burst": (_user_bases("hours", "1") + "\n[jobs]\njob = 1 0 1e305\n", "burst"),
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
    assert named in err and "Traceback" not in err
    assert not out.exists()


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

    class CappedSimulation(Simulation):
        def __init__(self, config, **kwargs):
            super().__init__(config, event_cap=100, **kwargs)

        def run(self):
            runs.append(self)
            return super().run()

    monkeypatch.setattr(cli, "Simulation", CappedSimulation)
    out = tmp_path / "sweep"
    assert main(["sweep", "sweep_demo.scn", "--sweep", "5,101", "--out", str(out)]) == 2
    assert "101 jobs, more than the event cap 100" in capsys.readouterr().err
    assert not out.exists()
    assert runs == []
