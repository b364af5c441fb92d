"""One benchmark repetition in a fresh interpreter.

    python3 bench/child.py --result FILE [--trace] -- <dispatchsim CLI argv>

Imports dispatchsim from the checkout's `src/`, hands the argv to
`dispatchsim.cli.main`, and writes one JSON object to FILE: host
timings, peak RSS, the deterministic counts of the run, and the
SHA-256 of every output file.

Every run wraps `load_scenario` and `Simulation` construction so that
set-up time is measured. With --trace the tracer also wraps, from
outside, the names the engine and the CLI bind at import time, so no
source file changes; see Tracer.install.
"""

from __future__ import annotations

import argparse
import hashlib
import heapq
import json
import statistics
import os
import resource
import sys
from collections import Counter
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

EVENT_KINDS = ("JobArrival", "JobStart", "JobFinish", "DeadlineExpiry", "MigrationCheck")


class _Record:
    def __init__(self, key: int, seq: int):
        self.key = key
        self.seq = seq
        self.history: list = []


def reference_kernel() -> int:
    """Fixed pure-Python work that stands in for the host's speed: the
    kinds of operations the simulator spends its time on (small objects,
    tuples on a heap, dict updates, float formatting). It belongs to the
    benchmark, so no change to dispatchsim can move it."""
    heap, counts, records, x = [], {}, [], 12345
    for i in range(5_000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        rec = _Record(x % 1000, i)
        records.append(rec)
        heapq.heappush(heap, (rec.key, rec.seq, rec))
        counts[x % 512] = counts.get(x % 512, 0) + 1
    while heap:
        _, _, rec = heapq.heappop(heap)
        rec.history.append(rec.key)
    return len(",".join(format(r.key / 7, ".12g") for r in records[:1_500]))


def reference_s(runs: int = 3) -> float:
    """Median time of `runs` reference kernels."""
    times = []
    for _ in range(runs):
        t0 = perf_counter()
        reference_kernel()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def import_dispatchsim():
    """Import the package from this checkout, never from site-packages."""
    sys.path.insert(0, SRC)
    import dispatchsim

    if not os.path.abspath(dispatchsim.__file__).startswith(SRC + os.sep):
        raise ImportError(f"dispatchsim imported from {dispatchsim.__file__}, not {SRC}")
    return dispatchsim


class Tracer:
    """Spans and counters recorded at the layer boundaries.

    Coarse spans (one per call: parse, set-up, arrivals, run, collect,
    write) are kept as (name, start, end, parent) tuples. Per-event and
    per-decision boundaries are too frequent for a span each, so they
    are accumulated into totals at the same boundaries.
    """

    def __init__(self, full: bool):
        self.full = full
        self.spans: list = []
        self.runs: list = []  # RunMetrics returned by each Simulation.run
        self.c = Counter()  # counts and accumulated seconds
        self._kind = None  # kind of the event whose handler is running
        self._t_ret = 0.0  # when the last pop returned
        self._loop_t0 = None

    def span(self, name, t0, t1, parent=None):
        self.spans.append((name, t0, t1, parent))

    def total(self, name):
        return sum(t1 - t0 for n, t0, t1, _ in self.spans if n == name)

    def _close_handler(self, t):
        if self._kind is not None:
            self.c["handler_s." + self._kind] += t - self._t_ret
            self._kind = None

    def install(self):
        from dispatchsim import cli, engine

        tracer = self

        def timed(name, fn, parent=None, after=None):
            def wrapper(*args, **kwargs):
                t0 = perf_counter()
                result = fn(*args, **kwargs)
                tracer.span(name, t0, perf_counter(), parent)
                if after is not None:
                    after(result)
                return result

            return wrapper

        class TimedSimulation(engine.Simulation):
            def __init__(self, *args, **kwargs):
                t0 = perf_counter()
                super().__init__(*args, **kwargs)
                tracer.span("engine.setup", t0, perf_counter(), "cli.main")

            def run(self):
                t0 = perf_counter()
                metrics = super().run()
                t1 = perf_counter()
                tracer._close_handler(t1)
                tracer.span("engine.run", t0, t1, "cli.main")
                tracer.runs.append(metrics)
                return metrics

            if tracer.full:

                def _collect(self):
                    t0 = perf_counter()
                    tracer._close_handler(t0)
                    if tracer._loop_t0 is not None:
                        tracer.span("engine.loop", tracer._loop_t0, t0, "engine.run")
                        tracer._loop_t0 = None
                    result = super()._collect()
                    tracer.span("engine.collect", t0, perf_counter(), "engine.run")
                    return result

        cli.Simulation = TimedSimulation
        cli.load_scenario = timed("scenario.load", cli.load_scenario, "cli.main")
        if not self.full:
            return

        def count_jobs(jobs):
            tracer.c["jobs_generated"] += len(jobs)

        # engine.py binds these with `from .model import ...` and
        # `from .policies import ...`, so they are patched where the
        # engine looks them up, not in their defining modules.
        for name in ("generate_arrivals", "generate_sweep_arrivals"):
            setattr(
                engine,
                name,
                timed("model.arrivals", getattr(engine, name), "engine.setup", count_jobs),
            )

        admit = engine.admit

        def traced_admit(job, dc, now):
            t0 = perf_counter()
            result = admit(job, dc, now)
            tracer.c["admit_s"] += perf_counter() - t0
            tracer.c["admit_calls"] += 1
            if not result.admitted:
                tracer.c["admit_rejected"] += 1
            return result

        engine.admit = traced_admit

        rr_next_vm = engine.rr_next_vm

        def traced_rr_next_vm(dc):
            tracer.c["rr_next_vm_calls"] += 1
            return rr_next_vm(dc)

        engine.rr_next_vm = traced_rr_next_vm

        decide = engine.migration_decision

        def traced_decision(*args):
            t0 = perf_counter()
            result = decide(*args)
            tracer.c["migration_decision_s"] += perf_counter() - t0
            tracer.c["migration_decision_calls"] += 1
            return result

        engine.migration_decision = traced_decision

        pop = engine.EventCalendar.pop

        def traced_pop(calendar):
            # A handler runs from one pop returning to the next pop call.
            t0 = perf_counter()
            if tracer._loop_t0 is None:
                tracer._loop_t0 = t0
            tracer._close_handler(t0)
            ev = pop(calendar)
            tracer._t_ret = t1 = perf_counter()
            tracer.c["pop_s"] += t1 - t0
            tracer.c["events." + ev.kind] += 1
            tracer._kind = ev.kind
            return ev

        engine.EventCalendar.pop = traced_pop

        def count_bytes(paths):
            if isinstance(paths, dict):
                paths = paths.values()
            elif isinstance(paths, str):
                paths = [paths]
            tracer.c["bytes_written"] += sum(os.path.getsize(p) for p in paths)

        for name in ("write_metrics_csv", "emit_plot_series", "write_sweep_rejections_csv"):
            setattr(cli, name, timed("reporting.write", getattr(cli, name), "cli.main", count_bytes))

    def layer_metrics(self, wall_s: float, counts: dict) -> dict:
        """Per-layer values of one traced repetition, keyed by metric name."""
        c = self.c
        run_s = self.total("engine.run")
        decisions = c["migration_decision_calls"]
        out = {
            "scenario.load_s": self.total("scenario.load"),
            "model.arrivals_s": self.total("model.arrivals"),
            "model.jobs_generated": c["jobs_generated"],
            "model.admit_calls": c["admit_calls"],
            "model.admit_s": c["admit_s"],
            "model.admit_rejected": c["admit_rejected"],
            "policies.rr_next_vm_calls": c["rr_next_vm_calls"],
            "policies.migration_decision_calls": decisions,
            "policies.migration_decision_s": c["migration_decision_s"],
            "policies.migration_useful_ratio": (
                counts["migrations"] / decisions if decisions else 0.0
            ),
            "engine.setup_s": self.total("engine.setup"),
            "engine.run_s": run_s,
            "engine.loop_s": self.total("engine.loop"),
            "engine.pop_s": c["pop_s"],
            "engine.collect_s": self.total("engine.collect"),
            "engine.events": sum(c["events." + k] for k in EVENT_KINDS),
            "engine.events_per_job": counts["events"] / counts["submitted"],
            "engine.events_per_s": counts["events"] / run_s,
            "engine.migrations": counts["migrations"],
            "metrics.rejected_pct": counts["rejected_pct"],
            "metrics.mean_response_ms": counts["mean_response_ms"],
            "reporting.write_s": self.total("reporting.write"),
            "reporting.bytes_written": c["bytes_written"],
        }
        for kind in EVENT_KINDS:
            out["engine.events." + kind] = c["events." + kind]
            out["engine.handler_s." + kind] = c["handler_s." + kind]
        children = ("scenario.load", "engine.setup", "engine.run", "reporting.write")
        out["cli.self_s"] = wall_s - sum(self.total(n) for n in children)
        return out


def run_counts(runs) -> dict:
    """Deterministic outcome of the run, summed over sweep levels."""
    submitted = completed = rejected = events = migrations = 0
    reasons = Counter()
    states_ok = True
    response_sum = 0.0
    for m in runs:
        submitted += m.submitted
        completed += m.completed
        rejected += m.rejected
        events += m.event_count
        migrations += len(m.migration_log)
        states = Counter(t.state for t in m.traces)
        states_ok &= (
            len(m.traces) == m.submitted
            and states["completed"] == m.completed
            and states["rejected"] == m.rejected
        )
        for t in m.traces:
            if t.state == "completed":
                response_sum += t.finish - t.arrival
            elif t.reject_reason is not None:
                reasons[t.reject_reason] += 1
    return {
        "submitted": submitted,
        "completed": completed,
        "rejected": rejected,
        "rejected_QueueFull": reasons["QueueFull"],
        "rejected_DeadlineExpired": reasons["DeadlineExpired"],
        "conserved": states_ok and completed + rejected == submitted,
        "events": events,
        "migrations": migrations,
        "rejected_pct": 100.0 * rejected / submitted if submitted else 0.0,
        "mean_response_ms": response_sum / completed if completed else 0.0,
    }


def digests(out_dir: str) -> dict:
    out = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--result", required=True, help="JSON file to write")
    parser.add_argument("--trace", action="store_true", help="trace every layer")
    parser.add_argument("cli_argv", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_argv = args.cli_argv[1:] if args.cli_argv[:1] == ["--"] else args.cli_argv
    out_dir = cli_argv[cli_argv.index("--out") + 1]

    import_dispatchsim()
    from dispatchsim import cli

    tracer = Tracer(full=args.trace)
    tracer.install()

    ref_before = reference_s()
    t0 = perf_counter()
    rc = cli.main(cli_argv)
    wall_s = perf_counter() - t0
    ref_s = (ref_before + reference_s()) / 2

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    counts = run_counts(tracer.runs)
    result = {
        "rc": rc,
        "wall_s": wall_s,
        "ref_s": ref_s,
        "setup_s": tracer.total("scenario.load") + tracer.total("engine.setup"),
        "peak_rss_mb": peak_rss_mb,
        "counts": counts,
        "digests": digests(out_dir) if rc == 0 else {},
    }
    if args.trace:
        result["layers"] = tracer.layer_metrics(wall_s, counts) if counts["submitted"] else {}
        spans = [("cli.main", t0, t0 + wall_s, None)] + tracer.spans
        result["spans"] = [
            {"name": n, "start": s - t0, "end": e - t0, "parent": p} for n, s, e, p in spans
        ]
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
