"""Scenario generators for the benchmark workloads.

Each workload turns (seed, scale) into scenario text plus the CLI
arguments that run it. The simulator only ever sees the text: the seed
goes into the scenario's own `seed` key, which drives arrival
generation, so one seed always yields the same inputs and outputs.

Service demand of a generated job is
instruction_length x request_grouping / rate, so with a rate of 100
instructions/ms and batches of 100 requests, a request of L
instructions gives a job of L ms. Job counts are fixed by the
scenario parameters, not by the seed; the seed only moves arrival
times.
"""

from __future__ import annotations

from dataclasses import dataclass

MS_PER_HOUR = 3_600_000.0
RATE = 100  # instructions per ms
REQUEST_GROUPING = 100
USER_GROUPING = 1000
INSTRUCTION_LENGTH = 250  # default instructions per request
MEAN_JOB_MS = INSTRUCTION_LENGTH * REQUEST_GROUPING / RATE

# paper_tables.scn topology: (VMs, bandwidth) per datacenter, and user bases as
# (id, data_size_per_request, datacenter).
PAPER_DCS = {"DC1": (40, 1000), "DC2": (20, 100), "DC3": (50, 10000), "DC4": (35, 1000)}
PAPER_UBS = [
    ("UB1", 100, "DC4"),
    ("UB2", 10000, "DC3"),
    ("UB3", 100000, "DC1"),
    ("UB4", 1000, "DC2"),
    ("UB5", 10000, "DC2"),
]
# Short/long request mix shared by overload_migrate and qcap_sweep,
# with the same mean as INSTRUCTION_LENGTH.
MIX = [("UBS", 50), ("UBL", 450)]


@dataclass(frozen=True)
class Workload:
    command: str  # "run" or "sweep"
    scenario: str  # scenario text
    extra_args: tuple  # CLI arguments after the scenario path
    jobs: int  # jobs submitted per run, over all sweep levels


def rph(jobs: int, horizon_ms: float) -> float:
    """requests_per_user_per_hour that makes generate_arrivals emit
    exactly `jobs` full batches: the half-request margin keeps int()
    from rounding the request total down by one."""
    hours = horizon_ms / MS_PER_HOUR
    return (jobs * REQUEST_GROUPING + 0.5) / (USER_GROUPING * hours)


def header(name: str, horizon_ms: float, seed: int) -> list:
    return [
        "[scenario]",
        f"name = {name}",
        "time_unit = ms",
        f"horizon = {horizon_ms!r}",
        f"seed = {seed}",
        "",
        "[advanced]",
        f"user_grouping = {USER_GROUPING}",
        f"request_grouping = {REQUEST_GROUPING}",
        f"instruction_length = {INSTRUCTION_LENGTH}",
        "",
    ]


def datacenter(dc_id: str, vms: int, bandwidth: float) -> list:
    return [
        f"[datacenter.{dc_id}]",
        f"vms = {vms}",
        f"rate = {RATE}",
        "memory = 512",
        f"bandwidth = {bandwidth}",
        "bandwidth_unit = units_per_ms",
        "",
    ]


def userbase(ub_id: str, rph: float, data_size: float, dc_id: str, instr=None) -> list:
    lines = [
        f"[userbase.{ub_id}]",
        f"requests_per_user_per_hour = {rph!r}",
        f"data_size_per_request = {data_size}",
        f"datacenter = {dc_id}",
    ]
    if instr is not None:
        lines.append(f"instruction_length = {instr}")
    return lines + [""]


def steady_rr(seed: int, scale: float = 1.0) -> Workload:
    """paper_tables topology at rho = 0.7 in every datacenter; rr,
    no migration, a deadline no job reaches."""
    total_vms = sum(v for v, _ in PAPER_DCS.values())
    jobs_target = round(20_000 * scale)
    rho = 0.7
    horizon = round(jobs_target * MEAN_JOB_MS / (rho * total_vms))
    lines = header("steady_rr", float(horizon), seed)
    for dc_id, (vms, bw) in PAPER_DCS.items():
        lines += datacenter(dc_id, vms, bw)
    ubs_per_dc = {dc: sum(1 for _, _, d in PAPER_UBS if d == dc) for dc in PAPER_DCS}
    jobs = 0
    for ub_id, data_size, dc_id in PAPER_UBS:
        vms = PAPER_DCS[dc_id][0]
        n = round(rho * vms * horizon / MEAN_JOB_MS / ubs_per_dc[dc_id])
        jobs += n
        lines += userbase(ub_id, rph(n, horizon), data_size, dc_id)
    lines += [
        "[policy]",
        "scheduler = rr",
        "migration = off",
        "admission = deadline",
        f"deadline = {100 * horizon}",
    ]
    return Workload("run", "\n".join(lines) + "\n", (), jobs)


def overload_migrate(seed: int, scale: float = 1.0) -> Workload:
    """Sixteen independent datacenters of 4 VMs, each fed by its own
    short/long user-base pair at rho = 1.2, under sjf with wait-vs-hop
    migration and a 3 s deadline.

    Migration dynamics are chaotic: the cost of one 4-VM datacenter
    moves by about 10% between seeds at the same size. Migration never
    crosses datacenters, so the replicas are independent samples and
    their sum keeps the run's cost nearly the same on every seed."""
    vms, rho, replicas = 4, 1.2, 16
    per_ub = round(150 * scale)
    horizon = round(per_ub * len(MIX) * MEAN_JOB_MS / (rho * vms))
    lines = header("overload_migrate", float(horizon), seed)
    for r in range(1, replicas + 1):
        lines += datacenter(f"DC{r}", vms, 1000)
    for r in range(1, replicas + 1):
        for ub_id, instr in MIX:
            lines += userbase(f"{ub_id}{r}", rph(per_ub, horizon), 100, f"DC{r}", instr)
    lines += [
        "[policy]",
        "scheduler = sjf",
        "migration = on",
        "admission = deadline",
        "deadline = 3000",
        "hop_time = 5",
        "migration_cadence = 10",
        "migration_cap = 3",
    ]
    jobs = per_ub * len(MIX) * replicas
    return Workload("run", "\n".join(lines) + "\n", (), jobs)


def qcap_sweep(seed: int, scale: float = 1.0) -> Workload:
    """sjf load sweep over 5 rising levels on 100 VMs with queue_cap
    admission (capacity 4); rho = 1.5 at the top level."""
    vms, top_rho = 100, 1.5
    step = round(2000 * scale)
    levels = [step * k for k in range(1, 6)]
    horizon = round(levels[-1] * MEAN_JOB_MS / (top_rho * vms))
    lines = header("qcap_sweep", float(horizon), seed)
    lines += datacenter("DC1", vms, 1000)
    for ub_id, instr in MIX:
        # Equal nominal volume splits every level evenly; the rate
        # itself is unused by a sweep.
        lines += userbase(ub_id, 12, 100, "DC1", instr)
    lines += [
        "[policy]",
        "scheduler = sjf",
        "migration = off",
        "admission = queue_cap",
        "queue_capacity = 4",
    ]
    sweep = ",".join(str(n) for n in levels)
    return Workload("sweep", "\n".join(lines) + "\n", ("--sweep", sweep), sum(levels))


WORKLOADS = {w.__name__: w for w in (steady_rr, overload_migrate, qcap_sweep)}
