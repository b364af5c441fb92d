"""Record the SHA-256 of every output file per workload and seed.

    python3 bench/record.py

Runs each workload once, untraced, for every seed in SEEDS and the
held-out seed, and rewrites bench/digests.json. run.py then checks
each repetition's outputs against these digests. Re-record only for a
change that alters simulated behaviour on purpose, and say which
digests changed and why.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from run import DIGESTS, HELD_OUT_SEED, WORK, Failure, run_child
from workloads import WORKLOADS

SEEDS = list(range(0, 21)) + [HELD_OUT_SEED]


def main() -> int:
    table = {}
    for name, build in WORKLOADS.items():
        table[name] = {}
        work = os.path.join(WORK, "record")
        for seed in SEEDS:
            shutil.rmtree(work, ignore_errors=True)
            os.makedirs(work)
            workload = build(seed)
            path = os.path.join(work, f"{name}.scn")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(workload.scenario)
            out = os.path.join(work, "out")
            res = run_child([workload.command, path, "--out", out, *workload.extra_args],
                            False, work, 600)
            if not res["counts"]["conserved"] or res["counts"]["submitted"] != workload.jobs:
                raise Failure(f"{name} seed {seed}: bad counts {res['counts']}")
            table[name][str(seed)] = res["digests"]
            print(f"{name} seed {seed}: {len(res['digests'])} files", flush=True)
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
