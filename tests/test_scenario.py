import copy

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from dispatchsim.model import MS_PER_HOUR
from dispatchsim.scenario import (
    ExplicitJob,
    ParseError,
    ScenarioError,
    UnknownKey,
    ValidationError,
    decode_scenario,
    load_scenario,
    normalized_dict,
    serialize,
    validate,
)

MINIMAL = """
[scenario]
name = mini
time_unit = ms
horizon = 100
seed = 1

[datacenter.DC1]
vms = 2
rate = 100
memory = 512
bandwidth = 1000
bandwidth_unit = units_per_ms

[userbase.UB1]
requests_per_user_per_hour = 12
data_size_per_request = 100
datacenter = DC1

[policy]
scheduler = rr
admission = deadline
deadline = 50
"""


def test_load_paper_tables(paper_config):
    assert [ub.id for ub in paper_config.user_bases] == ["UB1", "UB2", "UB3", "UB4", "UB5"]
    assert all(ub.requests_per_user_per_hour == 12 for ub in paper_config.user_bases)
    assert [ub.data_size_per_request for ub in paper_config.user_bases] == [
        100, 10000, 100000, 1000, 10000,
    ]
    assert [ub.target_dc for ub in paper_config.user_bases] == [
        "DC4", "DC3", "DC1", "DC2", "DC2",
    ]
    assert [dc.vm_count for dc in paper_config.datacenters] == [40, 20, 50, 35]
    assert [dc.memory for dc in paper_config.datacenters] == [1024, 512, 512, 1024]
    assert [dc.bandwidth for dc in paper_config.datacenters] == [1000, 100, 10000, 1000]
    assert paper_config.advanced.user_grouping == 1000
    assert paper_config.advanced.request_grouping == 100
    assert paper_config.advanced.instruction_length == 250


def test_load_table6_demo(table6_config):
    assert [(j.id, j.arrival, j.burst) for j in table6_config.jobs] == [
        (1, 0, 8), (2, 1, 4), (3, 3, 6), (4, 5, 2), (5, 6, 5),
    ]
    assert table6_config.datacenters[0].vm_count == 1
    assert table6_config.policy.scheduler == "sjf"
    assert table6_config.time_unit == "hours"


def test_hours_unit_normalization(table6_config):
    assert table6_config.horizon_ms == 24 * MS_PER_HOUR
    norm = normalized_dict(table6_config)
    assert norm["horizon_ms"] == 86_400_000.0
    assert norm["jobs"][2]["arrival_ms"] == 3 * MS_PER_HOUR


def test_dangling_datacenter_reference():
    with pytest.raises(ValidationError):
        load_scenario(MINIMAL.replace("datacenter = DC1", "datacenter = DC9"))


def test_unknown_key_is_fatal():
    with pytest.raises(UnknownKey):
        load_scenario(MINIMAL + "\n[policy2]\nx = 1\n")
    with pytest.raises(UnknownKey):
        load_scenario(MINIMAL.replace("seed = 1", "seed = 1\ntypo_key = 3"))


def test_malformed_line():
    with pytest.raises(ParseError):
        load_scenario(MINIMAL.replace("seed = 1", "seed"))


def test_scenario_file_must_be_utf8(tmp_path):
    path = tmp_path / "mini.scn"
    path.write_bytes(MINIMAL.replace("\n", "\r\n").encode("utf-8"))
    assert load_scenario(decode_scenario(path.read_bytes())) == load_scenario(MINIMAL)
    path.write_bytes(MINIMAL.replace("name = mini", "name = m\xe9").encode("latin-1"))
    with pytest.raises(ParseError, match="^line 3: not UTF-8 text"):
        decode_scenario(path.read_bytes())


def test_malformed_number_reports_line():
    with pytest.raises(ParseError) as exc:
        load_scenario(MINIMAL.replace("vms = 2", "vms = two"))
    assert "line" in str(exc.value)


def test_duplicate_section():
    with pytest.raises(ParseError):
        load_scenario(MINIMAL + "\n[datacenter.DC1]\nvms = 1\n")


JOBS_WITHOUT_DATACENTER = """
[scenario]
name = mini
time_unit = ms
horizon = 100
seed = 1

[policy]
admission = deadline
deadline = 50

[jobs]
job = 1 0 5
"""


@pytest.mark.parametrize(
    "text, error, message",
    [
        (MINIMAL.replace("[policy]", "[policy"), ParseError,
         "line 20: unterminated section header '[policy'"),
        (MINIMAL + "[ ]\n", ParseError, "line 24: empty section name"),
        (MINIMAL.replace("seed = 1", "seed = 1\nseed = 2"), ParseError,
         "line 7: duplicate key 'seed' in section [scenario]"),
        (MINIMAL + "[jobs]\njob = 1 0 5\nwork = 2 0 5\n", UnknownKey,
         "line 26: unknown key 'work' in section [jobs]"),
        (MINIMAL.replace("[scenario]\nname = mini\ntime_unit = ms\nhorizon = 100\nseed = 1\n",
                         ""), ParseError, "missing [scenario] section"),
        (JOBS_WITHOUT_DATACENTER, ValidationError,
         "explicit jobs require at least one datacenter"),
    ],
    ids=["unterminated-header", "empty-section-name", "duplicate-key", "unknown-jobs-key",
         "missing-scenario", "jobs-without-datacenter"],
)
def test_malformed_text_raises_its_own_error(text, error, message):
    with pytest.raises(ScenarioError) as exc:
        load_scenario(text)
    assert (type(exc.value), str(exc.value)) == (error, message)


@pytest.mark.parametrize("field, label", [("datacenters", "datacenter"),
                                          ("user_bases", "user base")])
def test_validate_rejects_a_repeated_id(field, label):
    """Text cannot repeat an id: it is the rest of a section name, and a
    repeated section is a ParseError. A `ScenarioConfig` built by hand
    can, and `validate` rejects it."""
    config = load_scenario(MINIMAL)
    specs = getattr(config, field)
    specs.append(copy.copy(specs[0]))
    with pytest.raises(ValidationError, match=f"^duplicate {label} ids: "):
        validate(config)


@pytest.mark.parametrize(
    "key, value", [("rate", "0"), ("rate", "-1"), ("bandwidth", "0"), ("bandwidth", "-1")]
)
def test_non_positive_value_rejected(key, value):
    # the one gate on a datacenter's rate and bandwidth: the model divides by them unchecked
    line = {"rate": "rate = 100", "bandwidth": "bandwidth = 1000"}[key]
    with pytest.raises(ValidationError, match=f"^\\[datacenter.DC1\\] {key} must be positive"):
        load_scenario(MINIMAL.replace(line, f"{key} = {value}"))


def test_deadline_mode_requires_deadline():
    with pytest.raises(ValidationError):
        load_scenario(MINIMAL.replace("deadline = 50", ""))


@pytest.mark.parametrize(
    "job, column",
    [
        (ExplicitJob(7, arrival=-1.0, burst=1.0), "arrival"),
        (ExplicitJob(7, arrival=0.0, burst=0.0), "burst"),
        (ExplicitJob(7, arrival=0.0, burst=1.0, data_size=-1.0), "data_size"),
        (ExplicitJob(7, arrival=0.0, burst=1.0, data_size=float("nan")), "data_size"),
    ],
)
def test_bad_explicit_job_column_rejected(job, column):
    config = load_scenario(MINIMAL)
    config.jobs = [job]
    with pytest.raises(ValidationError, match=f"^\\[jobs\\] job 7 {column} must be "):
        validate(config)


def test_duplicate_explicit_job_ids(table6_config):
    text = serialize(table6_config).replace("job = 2 1.0 4.0", "job = 1 1.0 4.0")
    with pytest.raises(ValidationError):
        load_scenario(text)


@pytest.mark.parametrize(
    "name",
    ["table6_demo.scn", "paper_tables.scn", "sweep_demo.scn", "migration_demo.scn"],
)
def test_round_trip(name):
    from conftest import bundled

    config = bundled(name)
    assert load_scenario(serialize(config)) == config


def test_mbps_bandwidth_unit():
    config = load_scenario(MINIMAL.replace("bandwidth_unit = units_per_ms",
                                           "bandwidth_unit = mbps"))
    assert config.datacenters[0].bandwidth_per_ms == 1000 * 125.0


def test_per_userbase_overrides():
    text = MINIMAL.replace(
        "datacenter = DC1",
        "datacenter = DC1\ninstruction_length = 99\nrequest_grouping = 10",
    )
    config = load_scenario(text)
    assert config.user_bases[0].instruction_length == 99
    assert config.user_bases[0].request_grouping == 10
    assert config.user_bases[0].user_grouping == 1000  # advanced default


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
@pytest.mark.parametrize("line", ["horizon = 100", "deadline = 50", "rate = 100"])
def test_non_finite_number_rejected(line, value):
    text = MINIMAL.replace(line, line.split("=")[0] + "= " + value)
    lineno = text.splitlines().index(line.split("=")[0] + "= " + value) + 1
    with pytest.raises(ParseError) as exc:
        load_scenario(text)
    assert exc.value.line == lineno
    assert f"line {lineno}:" in str(exc.value)


# Scenario-shaped text for the parser fuzz test. Each section lists its
# keys; a drawn text has [scenario], [datacenter.DC1] and [policy], half
# the time [jobs], plus up to three other sections, leaves out about one
# key in twenty and draws about one value in twenty from _VALUES, so a
# fair share of texts load.
_WORDS = ["ms", "hours", "rr", "sjf", "on", "off", "deadline", "queue_cap",
          "units_per_ms", "mbps", "DC1", "DC2", "UB1", "", "x", "1e999", "-0.0"]
_VALUES = st.one_of(
    st.integers(-2, 200).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(_WORDS),
    st.text(max_size=6),
)
_SECTION_KEYS = {
    "scenario": ["name", "time_unit", "horizon", "seed"],
    "advanced": ["user_grouping", "request_grouping", "instruction_length"],
    "datacenter.DC1": ["vms", "rate", "memory", "bandwidth", "bandwidth_unit"],
    "datacenter.DC2": ["vms", "rate", "memory", "bandwidth", "bandwidth_unit"],
    "userbase.UB1": ["requests_per_user_per_hour", "data_size_per_request",
                     "datacenter", "user_grouping", "request_grouping",
                     "instruction_length"],
    "policy": ["scheduler", "migration", "admission", "deadline", "queue_capacity",
               "hop_time", "migration_cadence", "migration_cap",
               "starvation_threshold"],
    "jobs": ["job", "job", "job"],
    "bogus": ["bogus"],
}
_INT = st.integers(1, 60).map(str)
_NUMBER = st.one_of(_INT, st.floats(0.5, 60).map(repr))
_GOOD = {
    "time_unit": st.sampled_from(["ms", "hours"]),
    "bandwidth_unit": st.sampled_from(["units_per_ms", "mbps"]),
    "datacenter": st.sampled_from(["DC1", "DC2"]),
    "scheduler": st.sampled_from(["rr", "sjf"]),
    "migration": st.sampled_from(["on", "off"]),
    "admission": st.sampled_from(["deadline", "queue_cap"]),
    # id arrival burst, sometimes with a data_size column (zero included)
    "job": st.tuples(
        st.integers(0, 99), st.floats(0, 9), st.floats(0.5, 9),
        st.lists(st.just(0.0) | st.floats(0, 9), max_size=1),
    ).map(lambda j: " ".join(map(repr, (*j[:3], *j[3])))),
    "name": st.text(max_size=6),
    **dict.fromkeys(["seed", "vms", "user_grouping", "request_grouping",
                     "queue_capacity", "migration_cap"], _INT),
}


def _one_in_twenty(draw):
    # not 0: hypothesis draws the ends of a range far more often
    return draw(st.integers(0, 19)) == 7


@st.composite
def scenario_texts(draw):
    if _one_in_twenty(draw):
        return draw(st.text(max_size=80))
    # the admission mode takes one of deadline and queue_capacity
    admission = draw(_GOOD["admission"])
    unused = "queue_capacity" if admission == "deadline" else "deadline"
    good = {**_GOOD, "admission": st.just(admission)}
    base = ["scenario", "datacenter.DC1", "policy"] + ["jobs"] * draw(st.booleans())
    extra = st.sampled_from([s for s in _SECTION_KEYS if s not in base + ["jobs"]])
    lines = []
    for name in base + draw(st.lists(extra, max_size=3, unique=True)):
        lines.append(f"[{name}]")
        for key in draw(st.permutations(_SECTION_KEYS[name])):
            if key == unused or _one_in_twenty(draw):
                continue
            value = _VALUES if _one_in_twenty(draw) else good.get(key, _NUMBER)
            lines.append(f"{key} = {draw(value)}")
    return "\n".join(lines)


def test_parser_fuzz_round_trip():
    loaded = []

    # derandomize: a fixed draw, so the vacuity floor below cannot fail
    # on an unlucky one
    @settings(max_examples=400, deadline=None, database=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(scenario_texts())
    # job rows with a zero and a non-zero data_size column
    @example(MINIMAL + "[jobs]\njob = 1 0 5 0\njob = 2 1 5 7.5\n")
    def check(text):
        try:
            config = load_scenario(text)
        except ScenarioError:
            return
        loaded.append(config)
        assert load_scenario(serialize(config)) == config

    check()
    # the round trip is not checked vacuously: the fixed draw loads 73
    # texts, 28 of them with [jobs] (hypothesis 6.155); over 60 random
    # draws 33-95 texts loaded, 6-45 of them with [jobs]
    assert len(loaded) >= 20
    assert sum(1 for config in loaded if config.jobs) >= 2
