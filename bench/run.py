"""Layered host-time benchmark for dispatchsim.

    python3 bench/run.py --workload steady_rr|overload_migrate|qcap_sweep
                         [--seed N] [--seconds S] [--trace 0|1]

Generates the workload's scenario from the seed, then runs the real
CLI (`dispatchsim run` or `sweep`: parse, arrival generation, event
loop, CSV writing) back to back for S seconds: a closed loop with one
client, one fresh single-threaded process per repetition, and at least
MIN_REPS repetitions. Simulated time is deterministic, so only host
time varies between repetitions.

--trace 0 reports the end-to-end metrics (medians over repetitions):
wall_s, setup_s, us_per_job and peak_rss_mb. --trace 1 alternates
untraced and traced repetitions and reports the per-layer metrics of
the traced ones, timed from outside by bench/child.py, plus the
tracing overhead. Host times are given at reference speed (see
REF_NOMINAL_S); the raw medians are printed alongside.

Every repetition is checked: exit code 0, conservation (completed +
rejected = submitted), output files byte-identical across repetitions
and equal to the digests recorded in bench/digests.json for this
workload and seed, and deterministic counts equal across repetitions,
traced or not. A repetition that fails any check counts in `failed`.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. Scratch files go to .bench_work/ in the
checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORK = os.path.join(ROOT, ".bench_work")
DIGESTS = os.path.join(BENCH, "digests.json")

sys.path.insert(0, BENCH)
from child import EVENT_KINDS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DEFAULT_SEED = 1
HELD_OUT_SEED = 9001  # keep out of tuning; confirm claims on it
MIN_REPS = 3  # per kind (untraced, traced) and run
HARD_LIMIT_S = 165.0  # a run ends well inside the 180 s it is allowed

# Host speed drifts by 20% and more over minutes on shared machines, and
# a fixed pure-Python reference kernel (child.reference_kernel) slows
# down with it. Every host time is therefore reported at reference
# speed: measured time x REF_NOMINAL_S / reference time, with the
# reference timed in the same process just before and after the run.
# The raw medians are printed too (RAW), outside the result line.
REF_NOMINAL_S = 0.015

END_TO_END = {"wall_s": "s", "setup_s": "s", "us_per_job": "us", "peak_rss_mb": "MB"}
RAW = {"bench.wall_raw_s": "s", "bench.ref_s": "s"}

# Per-layer metrics and their units. Counts and simulated outputs
# must repeat exactly; every other value is a median of host times.
PER_LAYER = {
    "scenario.load_s": "s",
    "model.arrivals_s": "s",
    "model.jobs_generated": "count",
    "model.admit_calls": "count",
    "model.admit_s": "s",
    "model.admit_rejected": "count",
    "policies.rr_next_vm_calls": "count",
    "policies.migration_decision_calls": "count",
    "policies.migration_decision_s": "s",
    "policies.migration_useful_ratio": "ratio",
    "engine.setup_s": "s",
    "engine.run_s": "s",
    "engine.loop_s": "s",
    "engine.pop_s": "s",
    "engine.collect_s": "s",
    "engine.events": "count",
    "engine.events_per_job": "ratio",
    "engine.events_per_s": "1/s",
    "engine.migrations": "count",
    **{f"engine.events.{k}": "count" for k in EVENT_KINDS},
    **{f"engine.handler_s.{k}": "s" for k in EVENT_KINDS},
    "metrics.rejected_pct": "%",
    "metrics.mean_response_ms": "ms",
    "reporting.write_s": "s",
    "reporting.bytes_written": "bytes",
    "cli.self_s": "s",
    "bench.trace_overhead_pct": "%",
}
EXACT = {
    name
    for name, unit in PER_LAYER.items()
    if unit in ("count", "ratio", "bytes") or name.startswith("metrics.")
}


class Failure(Exception):
    """A repetition whose output or counts fail a check."""


def run_child(cli_argv, trace: bool, work: str, timeout: float) -> dict:
    """Run one repetition in a fresh interpreter and return its result."""
    result_path = os.path.join(work, "result.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    cmd = [sys.executable, os.path.join(BENCH, "child.py"), "--result", result_path]
    if trace:
        cmd.append("--trace")
    proc = subprocess.run(
        cmd + ["--", *cli_argv], cwd=ROOT, capture_output=True, text=True, timeout=timeout
    )
    if proc.returncode != 0 or not os.path.exists(result_path):
        raise Failure(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    with open(result_path, encoding="utf-8") as fh:
        res = json.load(fh)
    if res["rc"] != 0:
        raise Failure(f"dispatchsim exited {res['rc']}: {proc.stderr.strip()[-2000:]}")
    return res


def check_layers(layers: dict, counts: dict):
    """Traced counts must agree with the run's own outcome."""
    expect = {
        "engine.events": counts["events"],
        "engine.migrations": counts["migrations"],
        "model.admit_rejected": counts["rejected_QueueFull"],
        "model.jobs_generated": counts["submitted"],
    }
    for name, value in expect.items():
        if layers[name] != value:
            raise Failure(f"traced {name} = {layers[name]}, run reports {value}")


class Reference:
    """The first successful repetition's outputs; later ones must match."""

    def __init__(self, recorded: dict | None):
        self.recorded = recorded
        self.digests = None
        self.counts = None
        self.layers = None

    def check(self, res: dict, expected_jobs: int):
        counts = res["counts"]
        if not counts["conserved"]:
            raise Failure(f"conservation violated: {counts}")
        if counts["submitted"] != expected_jobs:
            raise Failure(f"submitted {counts['submitted']} jobs, expected {expected_jobs}")
        if self.recorded is not None and res["digests"] != self.recorded:
            files = set(res["digests"]) | set(self.recorded)
            changed = sorted(f for f in files if res["digests"].get(f) != self.recorded.get(f))
            raise Failure(f"outputs differ from the recorded digests: {', '.join(changed)}")
        if self.digests is None:
            self.digests, self.counts = res["digests"], counts
        if res["digests"] != self.digests:
            raise Failure("output files differ between repetitions of one seed")
        if counts != self.counts:
            raise Failure(f"counts differ between repetitions: {counts} != {self.counts}")
        if "layers" in res:
            check_layers(res["layers"], counts)
            exact = {k: v for k, v in res["layers"].items() if k in EXACT}
            if self.layers is None:
                self.layers = exact
            if exact != self.layers:
                raise Failure("traced counts differ between repetitions")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def measure(name: str, seed: int, seconds: float, trace: bool, scale: float = 1.0):
    """Run one workload for `seconds` and return (report, table lines)."""
    workload = WORKLOADS[name](seed, scale)
    work = os.path.join(WORK, name)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    scenario_path = os.path.join(work, f"{name}.scn")
    with open(scenario_path, "w", encoding="utf-8") as fh:
        fh.write(workload.scenario)
    out_dir = os.path.join(work, "out")
    cli_argv = [workload.command, scenario_path, "--out", out_dir, *workload.extra_args]

    with open(DIGESTS, encoding="utf-8") as fh:
        recorded = json.load(fh).get(name, {}).get(str(seed)) if scale == 1.0 else None
    ref = Reference(recorded)
    plain, traced, errors = [], [], []
    attempted = 0
    t_start = perf_counter()
    kinds = (False, True) if trace else (False,)
    while True:
        elapsed = perf_counter() - t_start
        done = min(len(plain), len(traced) if trace else len(plain))
        if elapsed >= HARD_LIMIT_S or (elapsed >= seconds and (done >= MIN_REPS or errors)):
            break
        is_traced = kinds[attempted % len(kinds)]
        attempted += 1
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            res = run_child(cli_argv, is_traced, work, HARD_LIMIT_S - elapsed)
        except (Failure, subprocess.TimeoutExpired) as exc:
            errors.append(str(exc))
            continue
        # A repetition that ran to the end is timed even if a check fails.
        try:
            ref.check(res, workload.jobs)
        except Failure as exc:
            errors.append(str(exc))
        (traced if is_traced else plain).append(res)

    if traced:
        with open(os.path.join(work, "trace.json"), "w", encoding="utf-8") as fh:
            json.dump({"workload": name, "seed": seed, "spans": traced[-1]["spans"]}, fh, indent=1)
    if recorded is None and scale == 1.0:
        print(f"note: no recorded digests for {name} seed {seed}; "
              "only repetition-to-repetition identity is checked", file=sys.stderr)
    for err in errors[:5]:
        print(f"error: {err}", file=sys.stderr)

    samples: dict[str, list] = {}

    def add(metric, value):
        samples.setdefault(metric, []).append(value)

    for res in plain:
        speed = REF_NOMINAL_S / res["ref_s"]
        add("wall_s", res["wall_s"] * speed)
        add("setup_s", res["setup_s"] * speed)
        add("us_per_job", res["wall_s"] * speed * 1e6 / res["counts"]["submitted"])
        add("peak_rss_mb", res["peak_rss_mb"])
        add("bench.wall_raw_s", res["wall_s"])
        add("bench.ref_s", res["ref_s"])
    units = END_TO_END
    if trace:
        samples = {k: v for k, v in samples.items() if k.startswith("bench.")}
        for res in traced:
            speed = REF_NOMINAL_S / res["ref_s"]
            for metric, value in res["layers"].items():
                unit = PER_LAYER[metric]
                add(metric, value * speed if unit == "s" else value / speed if unit == "1/s" else value)
        if plain and traced:
            overhead = (
                statistics.median(r["wall_s"] * REF_NOMINAL_S / r["ref_s"] for r in traced)
                / statistics.median(r["wall_s"] * REF_NOMINAL_S / r["ref_s"] for r in plain)
                - 1.0
            )
            samples["bench.trace_overhead_pct"] = [100.0 * overhead]
        units = PER_LAYER

    failed = len(errors)
    table = [f"{name} seed={seed} attempted={attempted} failed={failed} "
             f"error_rate={failed / max(attempted, 1):g}"]
    metrics = {}
    for metric, unit in {**units, **RAW}.items():
        values = samples.get(metric)
        if not values:
            continue
        median = statistics.median(values)
        q1, q3 = quartiles(values)
        if metric in units:
            metrics[metric] = {"value": median, "unit": unit}
        table.append(f"  {metric:<36} {median:>14.6g} {unit:<6} "
                     f"q1={q1:.6g} q3={q3:.6g} n={len(values)}")
    report = {
        "correct": failed == 0 and set(metrics) == set(units),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return report, table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Layered host-time benchmark for dispatchsim")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "dispatchsim", "cli.py")):
        print(f"bench: no dispatchsim sources under {ROOT}/src", file=sys.stderr)
        return 2
    report, table = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    if not report["metrics"]:
        print("bench: no repetition succeeded", file=sys.stderr)
        return 3
    print("\n".join(table))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
