"""Command-line entry point: run scenarios, sweep load levels, replay
the built-in worked example, and validate scenario files.

Exit codes: 0 success, 2 bad input, 3 runtime failure, 4 demo
self-check mismatch. `main` maps every error raised to its code: a
scenario error, an OS error or a job count over the event cap gives 2,
any other engine error 3.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from importlib import resources

from .engine import EngineError, Simulation, TooManyJobs
from .metrics import queue_wait
from .model import COMPLETED
from .reporting import (
    emit_plot_series,
    write_metrics_csv,
    write_sweep_rejections_csv,
)
from .scenario import (
    SCHEDULERS,
    ScenarioConfig,
    ScenarioError,
    decode_scenario,
    load_scenario,
    normalized_dict,
    validate,
)

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_RUNTIME = 3
EXIT_DEMO_MISMATCH = 4

# Worked-example expectations the demo subcommand self-checks against.
DEMO_SCENARIO = "table6_demo.scn"
DEMO_EXPECTED_ORDER = [1, 4, 2, 5, 3]
DEMO_EXPECTED_WAITS = {1: 0.0, 4: 3.0, 2: 9.0, 5: 8.0, 3: 16.0}


BUNDLED = resources.files("dispatchsim").joinpath("data")


def _read_scenario_text(path: str) -> str:
    """A scenario file's text: `path` if it exists, else the bundled
    scenario of that name."""
    if os.path.exists(path):
        with open(path, "rb") as fh:
            return decode_scenario(fh.read())
    bundled = BUNDLED.joinpath(path)
    if bundled.is_file():
        return decode_scenario(bundled.read_bytes())
    names = sorted(e.name for e in BUNDLED.iterdir() if e.name.endswith(".scn"))
    raise FileNotFoundError(
        f"scenario {path!r} not found (bundled scenarios: {', '.join(names)})"
    )


def _load(args) -> ScenarioConfig:
    """The scenario of `run` or `sweep`, with the command-line overrides."""
    config = load_scenario(_read_scenario_text(args.scenario))
    if args.seed is not None:
        config.seed = args.seed
    if args.scheduler:
        config.policy.scheduler = args.scheduler
    if args.migration:
        config.policy.migration = args.migration == "on"
    if args.deadline is not None:
        config.policy.admission_mode = "deadline"
        config.policy.deadline = args.deadline
        config.policy.queue_capacity = None
    validate(config)  # overrides obey the same rules as file values
    return config


def _fail(message: str, code: int) -> int:
    print(f"dispatchsim: error: {message}", file=sys.stderr)
    return code


def _make_out_and_run(out: str, sim: Simulation):
    """Make the output directory, then run `sim`. Set-up, which checks
    the event cap, is done, so a bad --out fails before any event."""
    os.makedirs(out, exist_ok=True)
    return sim.run()


def _sweep_level(out: str, config: ScenarioConfig, level: int) -> tuple[int, int]:
    """Run one sweep level and keep only its (submitted, rejected)
    counts, so its jobs are freed before the next level is built."""
    metrics = _make_out_and_run(out, Simulation(config, total_jobs=level))
    return metrics.submitted, metrics.rejected


def cmd_run(args) -> int:
    config = _load(args)
    out = args.out or f"{config.name}_out"
    metrics = _make_out_and_run(out, Simulation(config))
    write_metrics_csv(metrics, out)
    emit_plot_series(metrics, out)
    print(
        f"{config.name}: submitted={metrics.submitted} "
        f"completed={metrics.completed} rejected={metrics.rejected} -> {out}"
    )
    return EXIT_OK


def _sweep_levels(spec: str) -> list[int] | None:
    """The integers of a comma-separated `--sweep` list, or None."""
    try:
        return [int(x) for x in spec.split(",") if x.strip()]
    except ValueError:
        return None


def cmd_sweep(args) -> int:
    levels = _sweep_levels(args.sweep)
    if levels is None:
        return _fail(f"bad sweep list {args.sweep!r}", EXIT_BAD_INPUT)
    if not levels or any(n <= 0 for n in levels) or levels != sorted(set(levels)):
        return _fail(
            "sweep levels must be positive and strictly increasing", EXIT_BAD_INPUT
        )
    config = _load(args)
    if not config.user_bases:
        return _fail("sweep requires a scenario with user bases", EXIT_BAD_INPUT)
    if config.horizon_ms <= 0:  # no level could submit a job
        return _fail("sweep requires a positive horizon", EXIT_BAD_INPUT)
    out = args.out or f"{config.name}_sweep_out"
    # top level first: only the last level can be over the event cap
    rows = [_sweep_level(out, config, level) for level in reversed(levels)]
    rows.reverse()
    write_sweep_rejections_csv(rows, out)
    # print the level asked for: a row's submitted count adds the [jobs] rows
    for level, (_, rejected) in zip(levels, rows):
        print(f"level {level}: rejected={rejected}")
    print(f"sweep -> {out}")
    return EXIT_OK


def cmd_demo(args) -> int:
    # the bundled file only, never a file of that name in the working directory
    config = load_scenario(decode_scenario(BUNDLED.joinpath(DEMO_SCENARIO).read_bytes()))
    completed = [t for t in Simulation(config).run().traces if t.state == COMPLETED]
    started = sorted(completed, key=lambda t: t.start)
    order = [t.id for t in started]
    waits = {t.id: queue_wait(t) / config.unit_ms for t in started}
    ok = order == DEMO_EXPECTED_ORDER and waits == DEMO_EXPECTED_WAITS
    if args.json:  # json prints the int keys of `waits` as strings
        print(json.dumps({"order": order, "waits": waits, "ok": ok}, sort_keys=True))
    else:
        print("order: " + " ".join(str(j) for j in order))
        for job_id in sorted(waits):
            print(f"wait job={job_id} {waits[job_id]:g}")
        print("demo: " + ("PASS" if ok else "FAIL"))
    return EXIT_OK if ok else EXIT_DEMO_MISMATCH


def cmd_validate(args) -> int:
    config = load_scenario(_read_scenario_text(args.scenario))
    print(json.dumps(normalized_dict(config), indent=2))
    return EXIT_OK


def _add_override_flags(p: argparse.ArgumentParser):
    p.add_argument("--seed", type=int, help="override the scenario seed")
    p.add_argument("--out", help="output directory")
    p.add_argument("--scheduler", choices=SCHEDULERS, help="override scheduler")
    p.add_argument("--migration", choices=("on", "off"), help="override migration")
    p.add_argument(
        "--deadline",
        type=float,
        help="override the admission deadline (scenario time units)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dispatchsim",
        description="Deterministic cloud job dispatch simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario and write metrics")
    p_run.add_argument("scenario", help="scenario file path or bundled name")
    _add_override_flags(p_run)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a load sweep over submitted-job levels")
    p_sweep.add_argument("scenario", help="scenario file path or bundled name")
    p_sweep.add_argument(
        "--sweep",
        required=True,
        help="comma-separated, strictly increasing submitted-job levels",
    )
    _add_override_flags(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_demo = sub.add_parser("demo", help="replay the built-in worked example")
    p_demo.add_argument("--json", action="store_true", help="machine-readable output")
    p_demo.set_defaults(func=cmd_demo)

    p_val = sub.add_parser("validate", help="load a scenario without running it")
    p_val.add_argument("scenario", help="scenario file path or bundled name")
    p_val.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioError, OSError, TooManyJobs) as exc:
        return _fail(str(exc), EXIT_BAD_INPUT)
    except EngineError as exc:
        return _fail(str(exc), EXIT_RUNTIME)


if __name__ == "__main__":
    sys.exit(main())
