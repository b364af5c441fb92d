"""One-off measurements that gate nothing.

    python3 bench/probe.py

1. The migration-cliff rows of ROADMAP.md at 500 and 1000 jobs:
   2 VMs at rho = 1.2, {rr, sjf} x migration {off, on}, one untraced
   repetition each. The 2000-job rows take 28-45 s each and are left
   out.
2. One 4-VM datacenter at rho = 1.2 with 2000 jobs, sjf, migration on
   and a 20 s deadline, traced: the single-datacenter form of
   overload_migrate. It prints the share of wasted migration work and
   the share of the event loop spent in MigrationCheck and JobFinish.

Scratch files go to .bench_work/probe/.
"""

from __future__ import annotations

import os
import shutil
import sys

from run import WORK, run_child
from workloads import MEAN_JOB_MS, MIX, datacenter, header, rph, userbase

RHO = 1.2


def scenario(vms: int, jobs: int, policy: list, deadline=None) -> str:
    """Short/long mix on one datacenter; the default deadline is one
    no job reaches."""
    per_ub = jobs // len(MIX)
    horizon = round(jobs * MEAN_JOB_MS / (RHO * vms))
    lines = header("probe", float(horizon), 1) + datacenter("DC1", vms, 1000)
    for ub_id, instr in MIX:
        lines += userbase(ub_id, rph(per_ub, horizon), 100, "DC1", instr)
    deadline = 100 * horizon if deadline is None else deadline
    policy = [*policy, "admission = deadline", f"deadline = {deadline}"]
    return "\n".join(lines + ["[policy]", *policy]) + "\n"


def run_scenario(text: str, trace: bool, work: str) -> dict:
    path = os.path.join(work, "probe.scn")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    out = os.path.join(work, "out")
    shutil.rmtree(out, ignore_errors=True)
    return run_child(["run", path, "--out", out], trace, work, 600)


def main() -> int:
    work = os.path.join(WORK, "probe")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)

    print("migration cliff: 2 VMs, rho = 1.2, a deadline no job reaches")
    print(f"{'jobs':>6} {'scheduler':>9} {'migration':>9} {'wall_s':>9} {'events':>8} {'migrations':>10}")
    for jobs in (500, 1000):
        for migration in ("off", "on"):
            for scheduler in ("rr", "sjf"):
                policy = [f"scheduler = {scheduler}", f"migration = {migration}",
                          "hop_time = 5", "migration_cadence = 10"]
                res = run_scenario(scenario(2, jobs, policy), False, work)
                c = res["counts"]
                print(f"{jobs:>6} {scheduler:>9} {migration:>9} {res['wall_s']:>9.3f} "
                      f"{c['events']:>8} {c['migrations']:>10}")

    print("\nsingle 4-VM datacenter, 2000 jobs, sjf, migration on, 20 s deadline (traced)")
    policy = ["scheduler = sjf", "migration = on", "hop_time = 5", "migration_cadence = 10",
              "migration_cap = 3"]
    res = run_scenario(scenario(4, 2000, policy, deadline=20000), True, work)
    m = res["layers"]
    loop = m["engine.loop_s"]
    print(f"  events {m['engine.events']}, migrations {m['engine.migrations']}, "
          f"deadline rejections {res['counts']['rejected_DeadlineExpired']}")
    print(f"  migration decisions {m['policies.migration_decision_calls']}, useful ratio "
          f"{m['policies.migration_useful_ratio']:.4f}")
    for kind in ("MigrationCheck", "JobFinish"):
        print(f"  {kind} handler share of the loop {m['engine.handler_s.' + kind] / loop:.3f}")
    print(f"  traced wall {res['wall_s']:.3f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
