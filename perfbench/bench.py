"""Measure one workload: end-to-end metrics untraced, per-layer metrics traced.

``--trace 0`` runs the workload for ``--seconds`` after five set-ups and
reports the end-to-end metrics.  ``--trace 1`` runs a fixed number of blocks
twice — untraced, then traced — from fresh set-ups; the traced pass gives
the per-layer metrics, the pair gives the tracing overhead, and the two
passes must serve identical answers.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.backend import precision

from perfbench.harness import (
    DEFAULT_SCALE,
    ROOT,
    WORKLOADS,
    Deployment,
    Samples,
    Scale,
    clock,
)
from perfbench.reference import Probes, Reference
from perfbench.tracing import Tracer, phase

#: (name, unit) of every end-to-end metric, in report order.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("increment_s", "s"),
    ("first_answer_ms", "ms"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("throughput_rps", "1/s"),
    ("answered_fraction", "ratio"),
    ("old_class_accuracy", "ratio"),
    ("new_class_accuracy", "ratio"),
    ("footprint_kb", "KiB"),
    ("peak_alloc_mb", "MiB"),
)

#: (name, unit) of every per-layer metric, in report order.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("nn.trainer.fit_s", "s"),
    ("nn.optim.step_s", "s"),
    ("nn.optim.steps", "count"),
    ("autodiff.backward_s", "s"),
    ("autodiff.backward_calls", "count"),
    ("backend.registry.dispatches", "count"),
    ("core.pairs.sample_s", "s"),
    ("core.herding_s", "s"),
    ("core.prototype_refresh_s", "s"),
    ("core.embed_s", "s"),
    ("core.embed_calls", "count"),
    ("core.embed_us", "us"),
    ("core.refine_prototype_us", "us"),
    ("edge.engine.predict_us", "us"),
    ("edge.engine.calls", "count"),
    ("edge.engine.rows_per_call", "rows"),
    ("edge.engine.cache_refreshes", "count"),
    ("backend.pairwise_distances_us", "us"),
    ("serving.submit_us", "us"),
    ("serving.drain_us", "us"),
    ("serving.drain_self_us", "us"),
    ("serving.pump_steps", "count"),
    ("serving.requests_per_step", "requests"),
    ("serving.executor.sync_bytes", "B"),
    ("server.wire.encode_us", "us"),
    ("server.wire.decode_us", "us"),
    ("server.wire.frames", "count"),
    ("loadgen.late_p99_ms", "ms"),
    ("trace.overhead_pct", "%"),
)

SETUPS = 5
IMPORT_PROBES = 3
#: On a shared host the CPU slows by up to 1.7x, in spells from tens of
#: milliseconds to minutes (a fixed numpy loop, timed back to back on a
#: 2-vCPU VM: 32 ms calm, up to 55 ms slow), and the share of a run they
#: cover varies from run to run.  Interference only ever adds time, so each
#: timing reports the run's calm spells: the 5th percentile of its operations
#: (of each epoch of an increment, see :func:`calm_update_s`) and of its
#: windows' p50s, the 95th percentile of its windows' throughputs, and the
#: 10th percentile of its p99 windows.  A change in the code moves every
#: operation; a slow spell moves only those it covers.  The shorter the
#: operation or window, the more often it falls in a calm spell.  What calm
#: the run found is then divided out: each timing is scaled to the host
#: speed of a reference probe timed between blocks (:mod:`perfbench.reference`).
CALM_OPERATIONS = 5.0
CALM_WINDOWS = 10.0
#: Samples per p99 window: five beyond the window's p99.  Windows of 1000
#: left an increment run only three or four to choose from.
P99_WINDOW = 500


@dataclass
class Result:
    """One run's outcome, in the shape of the final output line."""

    correct: bool
    attempted: int
    failed: int
    metrics: Dict[str, Tuple[float, str]]
    failures: List[str] = field(default_factory=list)
    extra: Dict[str, object] = field(default_factory=dict)
    tracer: Optional[Tracer] = None

    def line(self) -> str:
        return json.dumps({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in self.metrics.items()
            },
        })


# ---------------------------------------------------------------------- #
def environment() -> Dict[str, object]:
    """Where the numbers came from: cores, BLAS threads, versions, source."""
    def version(package: str) -> Optional[str]:
        try:
            return importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            module = sys.modules.get(package)
            return getattr(module, "__version__", None)

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, check=True, timeout=10,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else None,
        "blas_threads": {
            name: os.environ.get(name)
            for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                         "MKL_NUM_THREADS")
        },
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def import_seconds() -> float:
    """Wall time of ``import repro`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    began = clock()
    subprocess.run([sys.executable, "-c", "import repro"], env=env, cwd=ROOT,
                   check=True, timeout=120)
    return clock() - began


def percentile(values: List[float], q: float) -> float:
    return float(np.percentile(np.asarray(values), q)) if len(values) else 0.0


def calm_update_s(samples: Samples) -> float:
    """The run's calm update time.

    Where every update was split into the same pieces (an increment's
    training epochs and the time outside them), this is the sum of each
    piece's :data:`CALM_OPERATIONS` percentile over the run's updates.
    Every repeat does the same work piece by piece, and a 30 ms epoch falls
    inside a calm spell far more often than a whole 0.3 s increment does:
    slow spells come and go within a second, and a run may hold few whole
    calm increments.  Otherwise it is that percentile of the updates.
    """
    pieces = samples.update_pieces
    if pieces and len({len(piece) for piece in pieces}) == 1:
        return float(np.percentile(np.asarray(pieces), CALM_OPERATIONS,
                                   axis=0).sum())
    return percentile(samples.update_s, CALM_OPERATIONS)


def windowed_p99(values: List[float]) -> float:
    """The run's calm-window p99: the p99 of each consecutive window of
    :data:`P99_WINDOW` samples, then the :data:`CALM_WINDOWS` percentile of
    those."""
    if len(values) < 2 * P99_WINDOW:
        return percentile(values, 99)
    return percentile([
        percentile(values[start:start + P99_WINDOW], 99)
        for start in range(0, len(values) - P99_WINDOW + 1, P99_WINDOW)
    ], CALM_WINDOWS)


def freeze_heap() -> None:
    """Keep the deployment's long-lived objects out of the cyclic collector.

    A long-running server would do the same after start-up.  Without it one
    full collection over the set-up state (~40 ms on a 2-vCPU machine) lands
    in the tail of whichever block it happens to hit.  ``gc.unfreeze()``
    undoes it.
    """
    gc.collect()
    gc.freeze()


def checked(samples: Samples, deployments_checks: List[Samples]) -> List[str]:
    failures = list(samples.failures)
    for check in deployments_checks:
        failures.extend(f"set-up check: {message}" for message in check.failures)
    return failures


# ---------------------------------------------------------------------- #
def measure(workload: str, seed: int, seconds: float,
            scale: Scale = DEFAULT_SCALE, setups: int = SETUPS,
            import_probes: int = IMPORT_PROBES) -> Result:
    """The untraced run: end-to-end metrics."""
    block = WORKLOADS[workload]
    setup_s, checks = [], []
    for index in range(setups):
        began = clock()
        deployment = Deployment(seed, scale)
        setup_s.append(clock() - began)
        checks.append(deployment.check)
        if index < setups - 1:
            deployment.close()
    samples = Samples()
    scratch = Samples()
    probes = Probes()
    reference = Reference()
    freeze_heap()
    try:
        deadline = clock() + seconds
        while True:
            probes.add(reference.probe())
            block(deployment, samples)
            if clock() >= deadline:
                break
        # Allocation peaks come from one more block, outside the timed loop.
        tracemalloc.start()
        try:
            block(deployment, scratch)
        finally:
            tracemalloc.stop()
    finally:
        gc.unfreeze()
        deployment.close()
        reference.close()
    imports = [import_seconds() for _ in range(import_probes)]
    failures = checked(samples, checks) + [
        f"peak-allocation block: {message}" for message in scratch.failures
    ]
    # Timings at the reference host speed (see perfbench.reference): an
    # increment's epochs by whole probes, requests and ticks by chunks.
    speed = probes.speed(whole=False, calm=CALM_OPERATIONS)
    update_speed = (probes.speed(whole=True, calm=CALM_OPERATIONS)
                    if samples.update_pieces else speed)
    timings = {
        "increment_s": calm_update_s(samples),
        "first_answer_ms": percentile(samples.first_answer_ms, CALM_OPERATIONS),
        "latency_p50_ms": percentile(samples.window_p50_ms, CALM_OPERATIONS),
        "latency_p99_ms": windowed_p99(samples.latency_ms),
    }
    throughput = percentile(samples.window_rps, 100 - CALM_OPERATIONS)
    values = {
        "setup_s": statistics.median(setup_s),
        **{name: value * (update_speed if name == "increment_s" else speed)
           for name, value in timings.items()},
        "throughput_rps": throughput / speed,
        "answered_fraction": samples.answered / samples.sent,
        "old_class_accuracy": samples.accuracy("old"),
        "new_class_accuracy": samples.accuracy("new"),
        "footprint_kb": samples.footprint_bytes / 1024,
        "peak_alloc_mb": statistics.median(scratch.peak_bytes) / 2**20,
    }
    attempted = samples.sent + samples.updates
    return Result(
        correct=not failures,
        attempted=attempted,
        failed=len(failures),
        metrics={name: (float(values[name]), unit) for name, unit in END_TO_END},
        failures=failures,
        extra={
            "updates": len(samples.update_s),
            "speed": speed,
            "update_speed": update_speed,
            "unscaled": {**timings, "throughput_rps": throughput},
            "import_s": statistics.median(imports),
            "import_probes_s": [round(value, 4) for value in imports],
            "setups_s": [round(value, 4) for value in setup_s],
            "latency_samples": len(samples.latency_ms),
        },
    )


@dataclass
class Pass:
    """One fixed-length pass of a workload (see :func:`trace`)."""

    samples: Samples
    check: Samples
    sync_bytes: int
    wall_s: float          # set-up, blocks and teardown
    blocks: Tuple[float, float]  # clock() at the first block's start, last's end


def _pass(workload: str, seed: int, scale: Scale) -> Pass:
    block = WORKLOADS[workload]
    samples = Samples()
    began = clock()
    with phase("bench.setup"):
        deployment = Deployment(seed, scale)
        freeze_heap()
    try:
        first = clock()
        for _ in range(scale.trace_blocks[workload]):
            block(deployment, samples)
        last = clock()
    finally:
        with phase("bench.teardown"):
            gc.unfreeze()
            sync_bytes = deployment.sync_bytes()
            deployment.close()
    return Pass(samples, deployment.check, sync_bytes, clock() - began,
                (first, last))


def trace(workload: str, seed: int, scale: Scale = DEFAULT_SCALE) -> Result:
    """The traced run: per-layer metrics plus tracing overhead."""
    plain = _pass(workload, seed, scale)
    tracer = Tracer().install()
    try:
        traced = _pass(workload, seed, scale)
    finally:
        tracer.uninstall()
    samples, check, sync_bytes = traced.samples, traced.check, traced.sync_bytes
    failures = checked(plain.samples, [plain.check]) + checked(samples, [check])
    if plain.samples.digest.digest() != samples.digest.digest():
        failures.append("traced and untraced runs served different answers")

    layers = tracer.layers()
    counts = tracer.counts

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    def us_per_call(name: str) -> float:
        return ratio(layers[name].total, layers[name].calls) * 1e6

    drain = layers["serving.drain"]
    pump = layers["serving.pump_step"]
    engine = layers["edge.engine.predict"]
    frames = layers["server.wire.encode"].calls
    values = {
        "nn.trainer.fit_s": layers["nn.trainer.fit"].total,
        "nn.optim.step_s": layers["nn.optim.step"].total,
        "nn.optim.steps": layers["nn.optim.step"].calls,
        "autodiff.backward_s": layers["autodiff.backward"].total,
        "autodiff.backward_calls": layers["autodiff.backward"].calls,
        "backend.registry.dispatches": counts["backend.registry.dispatches"],
        "core.pairs.sample_s": layers["core.pairs.sample"].total,
        "core.herding_s": layers["core.herding"].total,
        "core.prototype_refresh_s": layers["core.prototype_refresh"].total,
        "core.embed_s": layers["core.embed"].total,
        "core.embed_calls": layers["core.embed"].calls,
        "core.embed_us": us_per_call("core.embed"),
        "core.refine_prototype_us": us_per_call("core.refine_prototype"),
        "edge.engine.predict_us": us_per_call("edge.engine.predict"),
        "edge.engine.calls": engine.calls,
        "edge.engine.rows_per_call": ratio(engine.items, engine.calls),
        "edge.engine.cache_refreshes": counts["edge.engine.cache_refreshes"],
        "backend.pairwise_distances_us": us_per_call("backend.pairwise_distances"),
        "serving.submit_us": ratio(layers["serving.submit"].total,
                                   layers["serving.submit"].items) * 1e6,
        "serving.drain_us": us_per_call("serving.drain"),
        "serving.drain_self_us": ratio(drain.self_total, drain.calls) * 1e6,
        "serving.pump_steps": pump.calls,
        "serving.requests_per_step": ratio(pump.items, pump.calls),
        "serving.executor.sync_bytes": sync_bytes,
        "server.wire.encode_us": ratio(layers["server.wire.encode"].total, frames) * 1e6,
        "server.wire.decode_us": ratio(layers["server.wire.decode"].total, frames) * 1e6,
        "server.wire.frames": frames,
        "loadgen.late_p99_ms": percentile(check.lateness_ms + samples.lateness_ms, 99),
        "trace.overhead_pct": (traced.wall_s - plain.wall_s) / plain.wall_s * 100.0,
    }
    # How much of the blocks' wall time the main thread's top-level spans
    # account for: the program's layers, plus the benchmark's own bench.*
    # spans.  Work that no span records shows up as missing coverage.
    first, last = traced.blocks
    top = tracer.top_level(threading.get_ident(), first, last)
    program = sum(total for name, total in top.items()
                  if not name.startswith("bench."))
    return Result(
        correct=not failures,
        attempted=sum(run.sent + run.updates for run in (plain.samples, samples)),
        failed=len(failures),
        metrics={name: (float(values[name]), unit) for name, unit in PER_LAYER},
        failures=failures,
        extra={
            "traced_wall_s": traced.wall_s,
            "untraced_wall_s": plain.wall_s,
            "blocks_span_coverage_pct": sum(top.values()) / (last - first) * 100.0,
            "blocks_program_pct": program / (last - first) * 100.0,
            "blocks_top_level_s": {name: round(total, 4)
                                   for name, total in sorted(top.items())},
            "spans": len(tracer.spans),
        },
        tracer=tracer,
    )


# ---------------------------------------------------------------------- #
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    env = environment()
    print("env " + json.dumps(env, sort_keys=True), flush=True)
    with precision("edge"):
        if args.trace:
            result = trace(args.workload, args.seed)
        else:
            result = measure(args.workload, args.seed, args.seconds)
    for name, (value, unit) in result.metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    for key, value in result.extra.items():
        print(f"{args.workload} {key}: {value}")
    for message in result.failures:
        print(f"CHECK FAILED: {message}")

    out = ROOT / ".perfbench"
    out.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "correct": result.correct,
        "failures": result.failures, "extra": result.extra,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()},
    }
    if result.tracer is not None:
        record["trace_spans"] = result.tracer.export()
    path = out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record))
    print(result.line(), flush=True)
    return 0 if result.correct else 1
