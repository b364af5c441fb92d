"""Scenario file loading, validation and serialization.

The format is a flat, human-readable sectioned text format:

    [scenario]            name, time_unit (ms|hours), horizon, seed
    [advanced]            user_grouping, request_grouping, instruction_length
    [datacenter.<ID>]     vms, rate, memory, bandwidth, bandwidth_unit
    [userbase.<ID>]       requests_per_user_per_hour, data_size_per_request,
                          datacenter, and optional per-base overrides
    [policy]              scheduler, migration, admission and knobs
    [jobs]                optional explicit trace: job = id arrival burst [data]

Durations in a file are expressed in the declared time_unit; the
simulator converts everything to milliseconds internally. Parsing is
strict: unknown keys and sections are fatal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .model import MS_PER_HOUR, UserBase, requests_over

TIME_UNITS = ("ms", "hours")
BANDWIDTH_UNITS = ("units_per_ms", "mbps")
SCHEDULERS = ("rr", "sjf")
ADMISSION_MODES = ("deadline", "queue_cap")

_MBPS_TO_UNITS_PER_MS = 125.0  # 1 Mbit/s = 125 bytes/ms


class ScenarioError(Exception):
    pass


class ParseError(ScenarioError):
    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class UnknownKey(ParseError):
    pass


class ValidationError(ScenarioError):
    pass


@dataclass
class DatacenterSpec:
    id: str
    vm_count: int
    rate: float  # instructions per ms (unit-independent)
    memory: float  # MB per VM
    bandwidth: float
    bandwidth_unit: str

    @property
    def bandwidth_per_ms(self) -> float:
        if self.bandwidth_unit == "mbps":
            return self.bandwidth * _MBPS_TO_UNITS_PER_MS
        return self.bandwidth


@dataclass
class AdvancedConfig:
    user_grouping: int = 1000
    request_grouping: int = 100
    instruction_length: float = 250.0


@dataclass
class PolicyConfig:
    scheduler: str = "rr"
    migration: bool = False
    admission_mode: str = "deadline"
    deadline: float | None = None  # declared time unit
    queue_capacity: int | None = None
    hop_time: float = 0.0  # declared time unit
    migration_cadence: float | None = None  # None -> engine default 10 ms
    migration_cap: int = 3
    starvation_threshold: float | None = None  # None -> deadline


@dataclass
class ExplicitJob:
    id: int
    arrival: float  # declared time unit
    burst: float  # declared time unit
    data_size: float = 0.0


@dataclass
class ScenarioConfig:
    name: str
    time_unit: str
    horizon: float  # declared time unit
    seed: int
    user_bases: list[UserBase] = field(default_factory=list)
    datacenters: list[DatacenterSpec] = field(default_factory=list)
    advanced: AdvancedConfig = field(default_factory=AdvancedConfig)
    policy: PolicyConfig = field(default_factory=PolicyConfig)
    jobs: list[ExplicitJob] = field(default_factory=list)

    @property
    def unit_ms(self) -> float:
        """Milliseconds per declared time unit."""
        return MS_PER_HOUR if self.time_unit == "hours" else 1.0

    @property
    def horizon_ms(self) -> float:
        return self.horizon * self.unit_ms


# ---------------------------------------------------------------------------
# schema


@dataclass
class _Key:
    """One scenario file key. An optional key left out of a file keeps
    the dataclass default; in [userbase.*] it keeps the [advanced] value."""

    sections: tuple[str, ...]
    key: str
    kind: object  # int, float (finite), str, bool (on/off) or a tuple of choices
    required: bool = False
    check: tuple | None = None  # (predicate, message) on the loaded value
    duration: bool = False  # in the declared time_unit
    attr: str = ""  # dataclass attribute; "" means the key itself
    json: str | None = ""  # name in `validate` output; "" derives it, None hides it

    def __post_init__(self):
        self.attr = self.attr or self.key
        if self.json == "":
            self.json = self.key + "_ms" if self.duration else self.key

    def parse(self, value: str, lineno: int):
        if self.kind is str:
            return value
        if self.kind is bool:
            return _enum(value, lineno, ("on", "off"), self.key) == "on"
        if isinstance(self.kind, tuple):
            return _enum(value, lineno, self.kind, self.key)
        return _num(value, lineno, self.kind)


_POSITIVE = (lambda v: v > 0, "must be positive")
_NON_NEGATIVE = (lambda v: v >= 0, "must be non-negative")
_AT_LEAST_ONE = (lambda v: v >= 1, "must be >= 1")

_SCN, _DC, _UB, _POL = ("scenario",), ("datacenter",), ("userbase",), ("policy",)
_ADV_UB = ("advanced", "userbase")

# Rows are in file order within each section.
_SCHEMA = (
    _Key(_SCN, "name", str, required=True),
    _Key(_SCN, "time_unit", TIME_UNITS, required=True),
    _Key(_SCN, "horizon", float, required=True, check=_NON_NEGATIVE, duration=True),
    _Key(_SCN, "seed", int, required=True),
    _Key(_DC, "vms", int, required=True, check=_AT_LEAST_ONE, attr="vm_count"),
    _Key(_DC, "rate", float, required=True, check=_POSITIVE,
         json="rate_instructions_per_ms"),
    _Key(_DC, "memory", float, required=True, check=_POSITIVE, json="memory_mb"),
    _Key(_DC, "bandwidth", float, required=True, check=_POSITIVE,
         json="bandwidth_units_per_ms"),
    _Key(_DC, "bandwidth_unit", BANDWIDTH_UNITS, required=True, json=None),
    _Key(_UB, "requests_per_user_per_hour", float, required=True, check=_POSITIVE),
    _Key(_UB, "data_size_per_request", float, required=True, check=_POSITIVE),
    _Key(_UB, "datacenter", str, required=True, attr="target_dc"),
    _Key(_ADV_UB, "user_grouping", int, check=_POSITIVE),
    _Key(_ADV_UB, "request_grouping", int, check=_POSITIVE),
    _Key(_ADV_UB, "instruction_length", float, check=_POSITIVE),
    _Key(_POL, "scheduler", SCHEDULERS),
    _Key(_POL, "migration", bool),
    _Key(_POL, "admission", ADMISSION_MODES, attr="admission_mode"),
    _Key(_POL, "deadline", float, check=_POSITIVE, duration=True),
    _Key(_POL, "queue_capacity", int, check=_AT_LEAST_ONE),
    _Key(_POL, "hop_time", float, check=_NON_NEGATIVE, duration=True),
    _Key(_POL, "migration_cadence", float, check=_POSITIVE, duration=True),
    _Key(_POL, "migration_cap", int, check=_NON_NEGATIVE),
    _Key(_POL, "starvation_threshold", float, check=_POSITIVE, duration=True),
)

_SECTIONS = {
    s: {k.key: k for k in _SCHEMA if s in k.sections}
    for s in ("scenario", "advanced", "datacenter", "userbase", "policy")
}


def _sections(config: ScenarioConfig):
    """(header, schema section, object) for each keyed section, in file order."""
    yield "scenario", "scenario", config
    yield "advanced", "advanced", config.advanced
    for dc in config.datacenters:
        yield f"datacenter.{dc.id}", "datacenter", dc
    for ub in config.user_bases:
        yield f"userbase.{ub.id}", "userbase", ub
    yield "policy", "policy", config.policy


# ---------------------------------------------------------------------------
# parsing


def _split_sections(source: str):
    """Split raw text into {section_name: [(key, value, line)]}, keeping
    declaration order and rejecting duplicates and stray lines."""
    sections: dict[str, list] = {}
    current = None
    for lineno, raw in enumerate(source.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ParseError(f"unterminated section header {line!r}", lineno)
            name = line[1:-1].strip()
            if not name:
                raise ParseError("empty section name", lineno)
            if name in sections:
                raise ParseError(f"duplicate section [{name}]", lineno)
            sections[name] = []
            current = name
            continue
        if current is None:
            raise ParseError(f"content outside any section: {line!r}", lineno)
        if "=" not in line:
            raise ParseError(f"expected 'key = value', got {line!r}", lineno)
        key, value = line.split("=", 1)
        sections[current].append((key.strip(), value.strip(), lineno))
    return sections


def _num(value, lineno, kind=float):
    try:
        number = kind(value)
    except ValueError:
        raise ParseError(f"expected {kind.__name__}, got {value!r}", lineno) from None
    if kind is float and not math.isfinite(number):
        raise ParseError(f"expected a finite float, got {value!r}", lineno)
    return number


def _enum(value, lineno, choices, what):
    if value not in choices:
        raise ParseError(f"{what} must be one of {choices}, got {value!r}", lineno)
    return value


def _read(entries, section: str, schema: str, **values) -> dict:
    """Dataclass keyword arguments from one section's entries, on top of
    `values`; optional keys that are absent are left out."""
    keys = _SECTIONS[schema]
    seen = set()
    for key, value, lineno in entries:
        if key not in keys:
            raise UnknownKey(f"unknown key {key!r} in section [{section}]", lineno)
        if key in seen:
            raise ParseError(f"duplicate key {key!r} in section [{section}]", lineno)
        seen.add(key)
        values[keys[key].attr] = keys[key].parse(value, lineno)
    for k in keys.values():
        if k.required and k.key not in seen:
            raise ParseError(f"section [{section}] is missing required key {k.key!r}")
    return values


def _read_jobs(entries) -> list[ExplicitJob]:
    jobs = []
    for key, value, lineno in entries:
        if key != "job":
            raise UnknownKey(f"unknown key {key!r} in section [jobs]", lineno)
        parts = value.split()
        if len(parts) not in (3, 4):
            raise ParseError(
                f"job entry needs 'id arrival burst [data_size]', got {value!r}", lineno
            )
        jobs.append(
            ExplicitJob(
                id=_num(parts[0], lineno, kind=int),
                arrival=_num(parts[1], lineno),
                burst=_num(parts[2], lineno),
                data_size=_num(parts[3], lineno) if len(parts) == 4 else 0.0,
            )
        )
    return jobs


def load_scenario(source: str) -> ScenarioConfig:
    """Parse and fully validate a scenario from text."""
    sections = _split_sections(source)
    if "scenario" not in sections:
        raise ParseError("missing [scenario] section")
    config = ScenarioConfig(**_read(sections.pop("scenario"), "scenario", "scenario"))
    if "advanced" in sections:
        config.advanced = AdvancedConfig(
            **_read(sections.pop("advanced"), "advanced", "advanced")
        )
    for section, entries in sections.items():
        kind, dot, ident = section.partition(".")
        if dot and kind == "datacenter":
            config.datacenters.append(
                DatacenterSpec(**_read(entries, section, kind, id=ident))
            )
        elif dot and kind == "userbase":
            inherited = vars(config.advanced)
            config.user_bases.append(
                UserBase(**_read(entries, section, kind, id=ident, **inherited))
            )
        elif section == "policy":
            config.policy = PolicyConfig(**_read(entries, section, section))
        elif section == "jobs":
            config.jobs = _read_jobs(entries)
        else:
            raise UnknownKey(f"unknown section [{section}]")
    validate(config)
    return config


def decode_scenario(data: bytes) -> str:
    """Scenario text from a file's bytes, which must be UTF-8."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"not UTF-8 text: {exc.reason} at byte {exc.start}", line) from None


def load_scenario_file(path) -> ScenarioConfig:
    with open(path, "rb") as fh:
        return load_scenario(decode_scenario(fh.read()))


def validate(config: ScenarioConfig) -> None:
    """Per-key and cross-field checks; raises ValidationError on the
    first problem."""
    for header, schema, obj in _sections(config):
        for k in _SECTIONS[schema].values():
            v = getattr(obj, k.attr)
            if v is None:
                continue
            if k.kind is float and not math.isfinite(v):
                raise ValidationError(f"[{header}] {k.key} must be finite, got {v!r}")
            if k.check and not k.check[0](v):
                raise ValidationError(f"[{header}] {k.key} {k.check[1]}, got {v!r}")
            if k.duration and not math.isfinite(v * config.unit_ms):
                raise ValidationError(
                    f"[{header}] {k.key} must be finite in ms, got {v!r} {config.time_unit}"
                )
    dc_ids = [dc.id for dc in config.datacenters]
    if len(set(dc_ids)) != len(dc_ids):
        raise ValidationError(f"duplicate datacenter ids: {dc_ids}")
    ub_ids = [ub.id for ub in config.user_bases]
    if len(set(ub_ids)) != len(ub_ids):
        raise ValidationError(f"duplicate user base ids: {ub_ids}")
    for ub in config.user_bases:
        if ub.target_dc not in dc_ids:
            raise ValidationError(
                f"user base {ub.id} targets unknown datacenter {ub.target_dc!r}"
            )
        requests = requests_over(ub, config.horizon_ms)
        if not math.isfinite(requests):
            raise ValidationError(
                f"user base {ub.id} request count over the horizon must be finite, "
                f"got {requests!r}"
            )
    pol = config.policy
    if pol.admission_mode == "queue_cap":
        if pol.queue_capacity is None:
            raise ValidationError("queue_cap admission requires queue_capacity")
    elif pol.deadline is None:
        raise ValidationError("deadline admission requires a deadline")
    if config.jobs:
        if not config.datacenters:
            raise ValidationError("explicit jobs require at least one datacenter")
        job_ids = [j.id for j in config.jobs]
        if len(set(job_ids)) != len(job_ids):
            raise ValidationError(f"duplicate explicit job ids: {job_ids}")
        for j in config.jobs:
            if j.arrival < 0 or j.burst <= 0 or j.data_size < 0:
                raise ValidationError(f"explicit job {j.id}: bad arrival/burst/data")
            for name in ("arrival", "burst"):
                v = getattr(j, name)
                if not math.isfinite(v * config.unit_ms):
                    raise ValidationError(
                        f"explicit job {j.id}: {name} must be finite in ms, "
                        f"got {v!r} {config.time_unit}"
                    )


# ---------------------------------------------------------------------------
# serialization


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "on" if v else "off"
    return repr(v) if isinstance(v, float) else str(v)


def serialize(config: ScenarioConfig) -> str:
    """Canonical text form; load_scenario(serialize(c)) == c."""
    lines = []
    for header, schema, obj in _sections(config):
        lines += ["", f"[{header}]"]
        for k in _SECTIONS[schema].values():
            v = getattr(obj, k.attr)
            if v is not None:
                lines.append(f"{k.key} = {_fmt(v)}")
    if config.jobs:
        lines += ["", "[jobs]"]
        for j in config.jobs:
            entry = f"job = {j.id} {_fmt(j.arrival)} {_fmt(j.burst)}"
            if j.data_size:
                entry += f" {_fmt(j.data_size)}"
            lines.append(entry)
    return "\n".join(lines[1:]) + "\n"


def normalized_dict(config: ScenarioConfig) -> dict:
    """Config view with all durations converted to milliseconds; used
    by `validate` CLI output."""
    u = config.unit_ms

    def view(obj, schema: str) -> dict:
        out = {}
        for k in _SECTIONS[schema].values():
            if k.json is not None:
                v = getattr(obj, k.attr)
                out[k.json] = v * u if k.duration and v is not None else v
        return out

    datacenters = []
    for dc in config.datacenters:
        d = {"id": dc.id, **view(dc, "datacenter")}
        d["bandwidth_units_per_ms"] = dc.bandwidth_per_ms  # mbps converted
        datacenters.append(d)
    return {
        **view(config, "scenario"),
        "datacenters": datacenters,
        "user_bases": [{"id": ub.id, **view(ub, "userbase")} for ub in config.user_bases],
        "policy": view(config.policy, "policy"),
        "jobs": [
            {
                "id": j.id,
                "arrival_ms": j.arrival * u,
                "burst_ms": j.burst * u,
                "data_size": j.data_size,
            }
            for j in config.jobs
        ],
    }
