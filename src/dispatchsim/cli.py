"""Command-line entry point: run scenarios, sweep load levels, replay
the built-in worked example, and validate scenario files.

Exit codes: 0 success, 2 bad input (parse/validation/arguments),
3 runtime failure, 4 demo self-check mismatch.
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


def _bundled_names():
    return sorted(
        entry.name
        for entry in resources.files("dispatchsim").joinpath("data").iterdir()
        if entry.name.endswith(".scn")
    )


def _read_scenario_text(path: str) -> str:
    if os.path.exists(path):
        with open(path, "rb") as fh:
            return decode_scenario(fh.read())
    bundled = resources.files("dispatchsim").joinpath("data").joinpath(path)
    if bundled.is_file():
        return decode_scenario(bundled.read_bytes())
    raise FileNotFoundError(
        f"scenario {path!r} not found (bundled scenarios: {', '.join(_bundled_names())})"
    )


def _load(path: str, args) -> ScenarioConfig:
    config = load_scenario(_read_scenario_text(path))
    if getattr(args, "seed", None) is not None:
        config.seed = args.seed
    if getattr(args, "scheduler", None):
        config.policy.scheduler = args.scheduler
    if getattr(args, "migration", None):
        config.policy.migration = args.migration == "on"
    if getattr(args, "deadline", None) is not None:
        config.policy.admission_mode = "deadline"
        config.policy.deadline = args.deadline
    validate(config)  # overrides obey the same rules as file values
    return config


def _fail(message: str, code: int) -> int:
    print(f"dispatchsim: error: {message}", file=sys.stderr)
    return code


def cmd_run(args) -> int:
    try:
        config = _load(args.scenario, args)
        metrics = Simulation(config).run()
        out = args.out or f"{config.name}_out"
        write_metrics_csv(metrics, out)
        emit_plot_series(metrics, "hourly_response", out)
        emit_plot_series(metrics, "rejections_bar", out)
    except (ScenarioError, OSError, TooManyJobs) as exc:
        return _fail(str(exc), EXIT_BAD_INPUT)
    except EngineError as exc:
        return _fail(str(exc), EXIT_RUNTIME)
    print(
        f"{config.name}: submitted={metrics.submitted} "
        f"completed={metrics.completed} rejected={metrics.rejected} -> {out}"
    )
    return EXIT_OK


def cmd_sweep(args) -> int:
    try:
        levels = [int(x) for x in args.sweep.split(",") if x.strip()]
    except ValueError:
        return _fail(f"bad sweep list {args.sweep!r}", EXIT_BAD_INPUT)
    if not levels or any(n <= 0 for n in levels) or levels != sorted(set(levels)):
        return _fail(
            "sweep levels must be positive and strictly increasing", EXIT_BAD_INPUT
        )
    try:
        config = _load(args.scenario, args)
        if not config.user_bases:
            return _fail("sweep requires a scenario with user bases", EXIT_BAD_INPUT)
        runs = []
        # top level first: only the last level can be over the event cap
        for level in reversed(levels):
            runs.append(Simulation(config, total_jobs=level).run())
        runs.reverse()
        out = args.out or f"{config.name}_sweep_out"
        write_sweep_rejections_csv(runs, out)
        emit_plot_series(runs, "rejections_bar", out)
    except (ScenarioError, OSError, TooManyJobs) as exc:
        return _fail(str(exc), EXIT_BAD_INPUT)
    except EngineError as exc:
        return _fail(str(exc), EXIT_RUNTIME)
    for m in runs:
        print(f"level {m.submitted}: rejected={m.rejected}")
    print(f"sweep -> {out}")
    return EXIT_OK


def _demo_result() -> dict:
    config = load_scenario(_read_scenario_text(DEMO_SCENARIO))
    metrics = Simulation(config).run()
    u = config.unit_ms
    started = [t for t in metrics.traces if t.state == COMPLETED]
    started.sort(key=lambda t: t.start)
    order = [t.id for t in started]
    waits = {t.id: queue_wait(t) / u for t in started}
    ok = order == DEMO_EXPECTED_ORDER and waits == DEMO_EXPECTED_WAITS
    return {"order": order, "waits": waits, "ok": ok}


def cmd_demo(args) -> int:
    try:
        result = _demo_result()
    except (ScenarioError, EngineError) as exc:
        return _fail(str(exc), EXIT_RUNTIME)
    if args.json:
        payload = dict(result)
        payload["waits"] = {str(k): v for k, v in payload["waits"].items()}
        print(json.dumps(payload, sort_keys=True))
    else:
        print("order: " + " ".join(str(j) for j in result["order"]))
        for job_id in sorted(result["waits"]):
            print(f"wait job={job_id} {result['waits'][job_id]:g}")
        print("demo: " + ("PASS" if result["ok"] else "FAIL"))
    return EXIT_OK if result["ok"] else EXIT_DEMO_MISMATCH


def cmd_validate(args) -> int:
    try:
        config = load_scenario(_read_scenario_text(args.scenario))
    except (ScenarioError, OSError) as exc:
        return _fail(str(exc), EXIT_BAD_INPUT)
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
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
