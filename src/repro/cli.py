"""Command-line interface.

``pilote <experiment>`` (or ``python -m repro <experiment>``) regenerates one
of the paper's tables/figures and prints it::

    pilote table2 --scale quick
    pilote figure6 --scale default
    pilote edge --scale quick

Beyond the paper, ``pilote fleet-sim`` runs the multi-device fleet serving
simulation (:mod:`repro.fleet.simulation`); ``--devices`` overrides the fleet
size of the default scenario, ``--routing {hash,least-loaded,p2c}`` picks
the serving client's routing policy, ``--scheduling {fifo,edf}`` its queue
order (arrival order vs earliest-deadline-first), ``--deadline-ms``
attaches seeded per-request deadlines to the generated traffic (reported as
a served/missed/expired SLO breakdown), and ``--executor
{serial,thread,process}`` with ``--workers N`` picks where batches execute
(the serial default models the simulated parallel clock; thread/process run
real shared-memory or multi-process workers and report measured wall-clock
latency).  Past 1024 devices (or with an explicit ``--regions N``) the fleet
pools its devices into regions: one copy-on-write template learner serves
each region's undrifted devices, which makes ``--devices 1000000``
tractable.  ``pilote serve``
answers one seeded workload through all three serving layers (bare learner,
MAGNETO platform, fleet) over the unified :mod:`repro.serving` API.

``pilote fleet-sim --adaptive`` attaches the control plane
(:mod:`repro.control`) to the simulation's serving client — hedged
requests onto sibling lanes — and reports its hedge and cancel
counters; ``pilote chaos`` runs the failure-injection suite
(worker-death storms, stragglers, mid-stream restart) in both adaptive and
static mode and exits non-zero unless every run proves exactly-once
delivery (``--chaos-scenario`` narrows it to one scenario).

``pilote lint`` runs the repo's own static invariant linter
(:mod:`repro.analysis`) over ``src/repro`` — seeded-RNG discipline, the
simulated-vs-wall clock split, the typed serving-error taxonomy, registry
completeness, lock/callback ordering, field-complete ``to_dict`` exports —
and exits non-zero on findings; ``--format json`` emits a machine-readable
report and ``--select`` narrows the run to a comma-separated rule-id list.
``pilote chaos --sanitize`` (or ``REPRO_SANITIZE=1``) runs the failure suite
under the runtime race sanitizer, which asserts the stack's single-writer
discipline while the chaos scenarios execute.

``pilote serve-net`` opens the network front door (:mod:`repro.server`):
it builds a serving fleet and answers real socket traffic on
``--host``/``--port`` for ``--duration`` seconds (``0`` = until
interrupted); ``--deadline-ms`` here is the end-to-end SLO target the
stats report measures against.  ``pilote bench-client`` is the matching
closed-loop load generator: ``--requests``/``--connections``/``--window``
shape the load, ``--pattern`` the user popularity; pointed at a running
server with ``--port``, or self-hosting a loopback server (built from the
fleet flags) when ``--port`` is omitted.

The ``--scale`` flag picks an :class:`~repro.experiments.common.ExperimentSettings`
preset (``quick``, ``default`` or ``paper``).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Callable, Dict, Optional, Sequence

from repro.experiments import (
    ablations,
    edge_resources,
    figure4,
    figure5,
    figure6,
    figure7,
    multi_increment,
    table2,
)
from repro.control import CHAOS_SCENARIOS
from repro.control import simulation as control_simulation
from repro.experiments.common import ExperimentSettings
from repro.fleet import simulation as fleet_simulation
from repro.fleet.traffic import PATTERNS
from repro.server import simulation as server_simulation
from repro.serving import EXECUTORS, ROUTING_POLICIES, SCHEDULING_ORDERS
from repro.serving import simulation as serving_simulation
from repro.utils.logging import enable_console_logging

_EXPERIMENTS: Dict[str, Callable] = {
    "table2": lambda settings: table2.run(settings),
    "figure4": lambda settings: figure4.run(settings),
    "figure5": lambda settings: figure5.run(settings),
    "figure6": lambda settings: figure6.run(settings),
    "figure7": lambda settings: figure7.run(settings),
    "ablations": lambda settings: ablations.run(settings),
    "edge": lambda settings: edge_resources.run(settings),
    "multi-increment": lambda settings: multi_increment.run(settings),
    "fleet-sim": lambda settings, **kw: fleet_simulation.run(settings, **kw),
    "serve": lambda settings, **kw: serving_simulation.run(settings, **kw),
    "serve-net": lambda settings, **kw: server_simulation.run_server(settings, **kw),
    "bench-client": lambda settings, **kw: server_simulation.run_bench(settings, **kw),
    "chaos": lambda settings, **kw: control_simulation.run(settings, **kw),
    "lint": None,  # special-cased in main(): no experiment settings involved
}

#: Subcommands that take the serving flags (--devices / --routing).
_SERVING_EXPERIMENTS = ("fleet-sim", "serve")

#: Subcommands that speak the network front door (serve-net / bench-client).
_NETWORK_EXPERIMENTS = ("serve-net", "bench-client")

_SCALES = {
    "quick": ExperimentSettings.quick,
    "default": ExperimentSettings.default,
    "paper": ExperimentSettings.paper_scale,
}


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="pilote",
        description="Regenerate the PILOTE paper's tables and figures.",
    )
    parser.add_argument("experiment", choices=sorted(_EXPERIMENTS), help="experiment to run")
    parser.add_argument(
        "--scale",
        choices=sorted(_SCALES),
        default="quick",
        help="experiment scale preset (default: quick)",
    )
    parser.add_argument("--seed", type=int, default=7, help="base random seed")
    parser.add_argument(
        "--devices",
        type=int,
        default=None,
        help="fleet size for the fleet-sim/serve experiments (default: scenario's 8)",
    )
    parser.add_argument(
        "--routing",
        choices=sorted(ROUTING_POLICIES),
        default=None,
        help="serving routing policy for fleet-sim/serve (default: scenario's hash)",
    )
    parser.add_argument(
        "--scheduling",
        choices=sorted(SCHEDULING_ORDERS),
        default=None,
        help="serving queue order for fleet-sim/serve: fifo (arrival order) "
        "or edf (earliest deadline first; default: fifo)",
    )
    parser.add_argument(
        "--deadline-ms",
        dest="deadline_ms",
        type=float,
        default=None,
        help="mean per-request deadline for fleet-sim traffic in simulated "
        "milliseconds (default: no deadlines); only valid with the serial "
        "executor, whose simulated clock matches the generated arrivals "
        "(thread/process serve on the measured wall clock)",
    )
    parser.add_argument(
        "--executor",
        choices=sorted(EXECUTORS),
        default=None,
        help="batch executor for fleet-sim: serial (inline, simulated clock; "
        "default), thread, or process (real multi-process workers reporting "
        "measured wall-clock latency)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker pool size for --executor thread/process "
        "(default: one per CPU core, capped at the device count)",
    )
    parser.add_argument(
        "--regions",
        type=int,
        default=None,
        help="pool the fleet's devices into N regions, each served from one "
        "shared template until a device drifts (default: automatic — one "
        "region per device up to 1024 devices, up to 64 regions above)",
    )
    parser.add_argument(
        "--host",
        default="127.0.0.1",
        help="listen/connect address for serve-net and bench-client "
        "(default: 127.0.0.1)",
    )
    parser.add_argument(
        "--port",
        type=int,
        default=None,
        help="TCP port: serve-net listens here (default 7431; 0 picks a free "
        "port); bench-client connects here, or self-hosts a loopback server "
        "when omitted",
    )
    parser.add_argument(
        "--duration",
        type=float,
        default=None,
        help="serve-net serving window in seconds (default 10; 0 serves "
        "until interrupted)",
    )
    parser.add_argument(
        "--requests",
        type=int,
        default=None,
        help="bench-client request count (default 256)",
    )
    parser.add_argument(
        "--connections",
        type=int,
        default=None,
        help="bench-client concurrent connections (default 2)",
    )
    parser.add_argument(
        "--window",
        type=int,
        default=None,
        help="bench-client per-connection in-flight window (default 16)",
    )
    parser.add_argument(
        "--pattern",
        choices=sorted(PATTERNS),
        default=None,
        help="bench-client user-popularity pattern (default zipf)",
    )
    parser.add_argument(
        "--adaptive",
        action="store_true",
        help="attach the control plane (hedged requests) to fleet-sim's "
        "serving client",
    )
    parser.add_argument(
        "--chaos-scenario",
        dest="chaos_scenario",
        choices=sorted(CHAOS_SCENARIOS),
        default=None,
        help="run only this chaos scenario (default: the whole suite)",
    )
    parser.add_argument(
        "--sanitize",
        action="store_true",
        help="run the chaos suite under the runtime race sanitizer "
        "(single-writer invariant over scheduler/stats/signal-bus state); "
        "also enabled by REPRO_SANITIZE=1",
    )
    parser.add_argument(
        "--format",
        dest="lint_format",
        choices=("text", "json"),
        default="text",
        help="lint report format (default: text)",
    )
    parser.add_argument(
        "--select",
        dest="lint_select",
        default=None,
        metavar="RULES",
        help="comma-separated lint rule ids to run (default: all; "
        "see repro.analysis.RULES)",
    )
    parser.add_argument(
        "--path",
        dest="lint_path",
        default=None,
        help="tree to lint (default: the installed repro package source)",
    )
    parser.add_argument(
        "--verbose", action="store_true", help="enable progress logging to stderr"
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    arguments = parser.parse_args(argv)
    if arguments.verbose:
        enable_console_logging()
    settings = _SCALES[arguments.scale](seed=arguments.seed)
    if arguments.chaos_scenario is not None and arguments.experiment != "chaos":
        parser.error("--chaos-scenario only applies to the chaos experiment")
    if arguments.sanitize and arguments.experiment != "chaos":
        parser.error("--sanitize only applies to the chaos experiment")
    if arguments.experiment != "lint":
        if arguments.lint_select is not None:
            parser.error("--select only applies to the lint experiment")
        if arguments.lint_path is not None:
            parser.error("--path only applies to the lint experiment")
    if arguments.adaptive and arguments.experiment != "fleet-sim":
        parser.error(
            "--adaptive attaches the control plane to fleet-sim's serving "
            "client (chaos always runs both adaptive and static modes)"
        )
    if arguments.experiment == "lint":
        return _run_lint(parser, arguments)
    if arguments.experiment == "chaos":
        from repro.analysis.sanitizer import sanitize_enabled

        result = _EXPERIMENTS["chaos"](
            settings,
            scenario=arguments.chaos_scenario,
            sanitize=arguments.sanitize or sanitize_enabled(),
        )
        print(result.to_text())
        return 0 if result.passed else 1
    if arguments.experiment in _SERVING_EXPERIMENTS:
        serving_kwargs = dict(
            n_devices=arguments.devices,
            routing=arguments.routing,
            scheduling=arguments.scheduling,
        )
        if arguments.experiment == "fleet-sim":
            # Fail the incoherent combinations at the parser, before any
            # dataset/fleet setup runs.
            concurrent = arguments.executor in ("thread", "process")
            if arguments.workers is not None and not concurrent:
                parser.error(
                    "--workers sizes a concurrent pool; pass --executor "
                    "thread or --executor process with it"
                )
            if arguments.deadline_ms is not None and concurrent:
                parser.error(
                    "--deadline-ms needs the serial executor: the generated "
                    "arrivals/deadlines are simulated-clock quantities, while "
                    "thread/process serve on the measured wall clock"
                )
            serving_kwargs["deadline_ms"] = arguments.deadline_ms
            serving_kwargs["executor"] = arguments.executor
            serving_kwargs["workers"] = arguments.workers
            serving_kwargs["regions"] = arguments.regions
            serving_kwargs["adaptive"] = arguments.adaptive
        else:
            if arguments.regions is not None:
                parser.error(
                    "--regions only applies to fleet-sim (the serve layer "
                    "comparison runs a flat single-digit fleet)"
                )
            if arguments.deadline_ms is not None:
                parser.error(
                    "--deadline-ms only applies to fleet-sim (the serve layer "
                    "comparison runs a deadline-less stream)"
                )
            if arguments.executor is not None or arguments.workers is not None:
                parser.error(
                    "--executor/--workers only apply to fleet-sim (the serve "
                    "layer comparison runs every layer on the serial executor)"
                )
        result = _EXPERIMENTS[arguments.experiment](settings, **serving_kwargs)
    elif arguments.experiment in _NETWORK_EXPERIMENTS:
        if arguments.executor == "serial" and arguments.workers is not None:
            parser.error(
                "--workers sizes a concurrent pool; it does not apply to "
                "--executor serial"
            )
        fleet_kwargs = dict(
            n_devices=arguments.devices,
            routing=arguments.routing,
            scheduling=arguments.scheduling,
            executor=arguments.executor,
            workers=arguments.workers,
            regions=arguments.regions,
        )
        if arguments.experiment == "serve-net":
            for flag, value in (
                ("--requests", arguments.requests),
                ("--connections", arguments.connections),
                ("--window", arguments.window),
                ("--pattern", arguments.pattern),
            ):
                if value is not None:
                    parser.error(
                        f"{flag} shapes bench-client load; serve-net is the "
                        "server side"
                    )
            network_kwargs = dict(
                host=arguments.host,
                port=arguments.port if arguments.port is not None else 7431,
                slo_target_ms=arguments.deadline_ms,
                **fleet_kwargs,
            )
            if arguments.duration is not None:
                network_kwargs["duration"] = arguments.duration
        else:
            if arguments.duration is not None:
                parser.error(
                    "--duration bounds serve-net's serving window; "
                    "bench-client stops when its requests are answered"
                )
            if arguments.port is not None and any(
                value is not None for value in fleet_kwargs.values()
            ):
                parser.error(
                    "the fleet flags (--devices/--routing/--scheduling/"
                    "--executor/--workers/--regions) configure bench-client's "
                    "self-hosted server; an external server at --port already "
                    "picked its own fleet"
                )
            network_kwargs = dict(
                host=arguments.host,
                port=arguments.port,
                deadline_ms=arguments.deadline_ms,
                **fleet_kwargs,
            )
            for key, value in (
                ("n_requests", arguments.requests),
                ("connections", arguments.connections),
                ("window", arguments.window),
                ("pattern", arguments.pattern),
            ):
                if value is not None:
                    network_kwargs[key] = value
        result = _EXPERIMENTS[arguments.experiment](settings, **network_kwargs)
    else:
        result = _EXPERIMENTS[arguments.experiment](settings)
    print(result.to_text())
    return 0


def _run_lint(parser: argparse.ArgumentParser, arguments) -> int:
    """``pilote lint``: run the static invariant linter, exit 1 on findings."""
    # Deferred import: the linter is tooling, not part of the serving path.
    import repro
    from repro.analysis import render_json, render_text, run_lint
    from repro.exceptions import AnalysisError

    if arguments.lint_path is not None:
        root = Path(arguments.lint_path)
    else:
        root = Path(repro.__file__).resolve().parent
    select = (
        [part.strip() for part in arguments.lint_select.split(",") if part.strip()]
        if arguments.lint_select is not None
        else None
    )
    try:
        findings = run_lint(root, select=select)
    except AnalysisError as error:
        parser.error(str(error))
    if arguments.lint_format == "json":
        print(render_json(findings))
    else:
        print(render_text(findings))
    return 1 if findings else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
