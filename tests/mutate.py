"""Mutation check of the engine: does some test fail on each seeded fault?

Each mutant is one exact `(old, new)` text edit of a file under src/,
whose `old` occurs exactly once there (`tests/test_mutate.py` keeps the
list current). The script copies src/, tests/ and pyproject.toml to a
temporary directory, runs every kill-set there once on the unmutated
copy, and stops with an error if any of those tests fails, since a kill
by a test that fails anyway tells nothing. Then, for each mutant, it
applies the edit to a fresh copy, runs the mutant's kill-set with
`pytest -x` and Hypothesis seed 0, and prints whether the mutant was
killed (a test that passed unmutated failed) or survived (every test
passed). An equivalent mutant changes no run, so no test can kill it;
it is listed with its reason and not run.

    python tests/mutate.py

Each run costs 1-18 s on a 2-vCPU machine. It exits 1 if a
non-equivalent mutant survived or a run could not be judged. It is not
part of the test suite.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class Mutant(NamedTuple):
    name: str
    old: str
    new: str
    kills: tuple[str, ...] = ()  # pytest node ids, from the repo root, that fail on it
    equivalent: str | None = None  # why no run tells it apart; such a mutant is not run


_CAL = "tests/test_engine.py::test_calendar_"
_GOLDEN_QCAP_ON = "tests/test_golden.py::test_golden_outputs[qcap_demo.scn:rr:on]"
_RESCAN = "tests/test_migration.py::test_migration_check_matches_rescan"
_TWIN = "tests/test_migration.py::test_the_settled_skip_changes_no_run"

MUTANTS = [
    Mutant(
        "pop-guard",
        "heap and heap[0] < now[0]",
        "heap and heap[0][0] == self.clock",
        (f"{_CAL}cursors_match_a_plain_heap",
         "tests/test_engine.py::test_expiry_at_the_clock_pops_after_the_events_pending_there"),
    ),
    Mutant(
        "lane-takes-later-only",
        "fire_at >= last[0]",
        "fire_at > last[0]",
        (f"{_CAL}matches_a_plain_heap",),
    ),
    Mutant(
        "rr-pointer-stays",
        "dc.rr_pointer = (vm_id + 1) % len(dc.vms)",
        "dc.rr_pointer = vm_id % len(dc.vms)",
        ("tests/test_acceptance.py::test_rr_fairness",),
    ),
    Mutant(
        "rule-moves-on-a-tie",
        "if cost < best_cost:",
        "if cost <= best_cost:",
        (_GOLDEN_QCAP_ON,),
    ),
    Mutant(
        "queue-add-keeps-settled",
        "        dc.queued += 1\n        dc.settled = False\n",
        "        dc.queued += 1\n",
        (_GOLDEN_QCAP_ON,),
    ),
    Mutant(
        "movable-cap-by-one",
        "<= self.migration_cap:\n            vm.movable.append(job)",
        "< self.migration_cap:\n            vm.movable.append(job)",
        ("tests/test_migration.py::test_snapshot_examples_reach_their_edges",),
    ),
    Mutant(
        "queue-remove-keeps-settled",
        "        dc.queued -= 1\n        dc.settled = False\n",
        "        dc.queued -= 1\n",
        (_GOLDEN_QCAP_ON,),
    ),
    Mutant(
        "open-ids-reinsert-offset",
        "dc.queued -= 1\n        dc.settled = False\n"
        "        if len(vm.queue) + len(vm.incoming) == dc.capacity - 1:",
        "dc.queued -= 1\n        dc.settled = False\n"
        "        if len(vm.queue) + len(vm.incoming) == dc.capacity - 2:",
        ("tests/test_engine.py::test_a_queue_full_job_is_rejected_at_its_arrival",),
    ),
    Mutant(
        "incoming-add-keeps-settled",
        "        vm.incoming_sum += job.demand\n        dc.settled = False\n",
        "        vm.incoming_sum += job.demand\n",
        equivalent="its one caller, `_move`, clears the flag in `_queue_remove` just before",
    ),
    Mutant(
        "incoming-sum-subtracted",
        "vm.incoming_sum = sum_in_order(map(_DEMAND, vm.incoming))",
        "vm.incoming_sum -= job.demand",
        ("tests/test_migration.py::test_incoming_sum_is_the_in_order_sum_after_every_event",),
    ),
    Mutant(
        "incoming-remove-keeps-settled",
        "        vm.incoming_sum = sum_in_order(map(_DEMAND, vm.incoming))\n"
        "        dc.settled = False\n",
        "        vm.incoming_sum = sum_in_order(map(_DEMAND, vm.incoming))\n",
        (_RESCAN,),
    ),
    Mutant(
        "tick-skips-no-idle-gap",
        "fire_at = max(now + self.cadence_ms, self.calendar.peek_time())",
        "fire_at = now + self.cadence_ms",
        ("tests/test_engine.py::test_event_heap_stays_shallow",),
    ),
    Mutant(
        "target-filter-takes-the-mean",
        "len(vms[i].queue) < mean_qlen]",
        "len(vms[i].queue) <= mean_qlen]",
        (_GOLDEN_QCAP_ON,),
    ),
    Mutant(
        "check-always-settles",
        "dc.settled = len(moved) == logged",
        "dc.settled = True",
        ("tests/test_migration.py::test_datacenter_summaries_hold_after_every_event",),
    ),
    # One per path that clears `dc.settled`: the flag is set back to what
    # it was before the path ran.
    Mutant(
        "arrival-keeps-settled",
        "        vm = rr_next_vm(dc)\n        self._enqueue(vm, job, now)\n",
        "        vm = rr_next_vm(dc)\n        was = dc.settled\n"
        "        self._enqueue(vm, job, now)\n        dc.settled = was\n",
        (_GOLDEN_QCAP_ON,),
    ),
    Mutant(
        "landing-keeps-settled",
        "            self._incoming_remove(vm, job)\n            self._enqueue(vm, job, now)\n",
        "            was = vm.dc.settled\n            self._incoming_remove(vm, job)\n"
        "            self._enqueue(vm, job, now)\n            vm.dc.settled = was\n",
        (_TWIN,),
    ),
    Mutant(
        "start-keeps-settled",
        "        self._queue_remove(vm, job, 0)\n",
        "        was = vm.dc.settled\n        self._queue_remove(vm, job, 0)\n"
        "        vm.dc.settled = was\n",
        (_TWIN,),
    ),
    Mutant(
        "queued-expiry-keeps-settled",
        "        else:\n            self._queue_remove(vm, job)\n",
        "        else:\n            was = vm.dc.settled\n            self._queue_remove(vm, job)\n"
        "            vm.dc.settled = was\n",
        (_TWIN,),
    ),
    Mutant(
        "transit-expiry-keeps-settled",
        "            self._incoming_remove(vm, job)\n        else:",
        "            was = vm.dc.settled\n            self._incoming_remove(vm, job)\n"
        "            vm.dc.settled = was\n        else:",
        (_RESCAN,),
    ),
    Mutant(
        "move-keeps-settled",
        "        self._queue_remove(vm, job, i)\n        self._incoming_add(target, job)\n",
        "        was = vm.dc.settled\n        self._queue_remove(vm, job, i)\n"
        "        self._incoming_add(target, job)\n        vm.dc.settled = was\n",
        equivalent="a move runs only inside a check of an unsettled datacenter, which sets "
        "the flag from its own moves when it ends",
    ),
    Mutant(
        "rr-bisection-swapped",
        "k = bisect_right(prefix, min(waits) + hop",
        "k = bisect_left(prefix, min(waits) + hop",
        (_RESCAN,),
    ),
    Mutant(
        "rr-cap-by-one",
        "len(queue[k].vm_history) > cap",
        "len(queue[k].vm_history) >= cap",
        (_GOLDEN_QCAP_ON,),
    ),
    Mutant(
        "sjf-moves-on-a-tie",
        "+ v.incoming_sum + hop < current_wait:",
        "+ v.incoming_sum + hop <= current_wait:",
        (_RESCAN,),
    ),
]


def locate(old: str) -> dict[Path, int]:
    """Each file under src/ that holds `old`, with how often it does."""
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        count = path.read_text(encoding="utf-8").count(old)
        if count:
            found[path] = count
    return found


def run(nodes, mutant: Mutant | None = None) -> tuple[str, str]:
    """(verdict, detail) of running the pytest node ids `nodes` up to the
    first failure on a copy of the repo, with `mutant`'s edit applied if
    one is given: passed, failed or error, and the first failure line."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, copy / name, ignore=skip)
        shutil.copy(ROOT / "pyproject.toml", copy)
        if mutant is not None:
            (path, count), = locate(mutant.old).items()
            assert count == 1, f"{mutant.name}: `old` occurs {count} times in {path}"
            target = copy / path.relative_to(ROOT)
            target.write_text(
                target.read_text(encoding="utf-8").replace(mutant.old, mutant.new),
                encoding="utf-8",
            )
        argv = [
            sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
            "--hypothesis-seed=0", *nodes,
        ]
        env = {**os.environ, "PYTHONPATH": str(copy / "src")}
        proc = subprocess.run(argv, cwd=copy, env=env, capture_output=True, text=True)
    failed = [line for line in proc.stdout.splitlines() if line.startswith(("FAILED", "ERROR"))]
    if proc.returncode == 0:
        return "passed", ""
    if proc.returncode == 1:
        return "failed", failed[0] if failed else ""
    return "error", f"pytest exit {proc.returncode}: {proc.stdout.strip().splitlines()[-1:]}"


def main() -> int:
    t0 = time.perf_counter()
    verdict, detail = run(dict.fromkeys(n for m in MUTANTS for n in m.kills))
    print(f"{'(unmutated kill-sets)':32} {verdict:8} {time.perf_counter() - t0:6.1f} s  {detail}",
          flush=True)
    if verdict != "passed":
        return 1
    bad = 0
    for mutant in MUTANTS:
        if mutant.equivalent:
            print(f"{mutant.name:32} equivalent: {mutant.equivalent}", flush=True)
            continue
        t0 = time.perf_counter()
        verdict, detail = run(mutant.kills, mutant)
        verdict = {"passed": "survived", "failed": "killed"}.get(verdict, verdict)
        bad += verdict != "killed"
        print(f"{mutant.name:32} {verdict:8} {time.perf_counter() - t0:6.1f} s  {detail}",
              flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
