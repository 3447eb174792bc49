"""Tiny-scale tests of the benchmark harness itself.

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

import json
import math
import re

import pytest

from repro.backend import precision

from perfbench.bench import END_TO_END, PER_LAYER, measure, trace
from perfbench.harness import ROOT, WORKLOADS, Scale
from perfbench.reference import CHUNKS, Probes, Reference

TINY = Scale(
    samples_per_class=40,
    small_ticks=6,
    check_requests=4,
    trace_blocks={"increment": 1, "serve-small": 2},
)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_benchmark_json_declares_what_the_harness_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(metric["name"]), metric["name"]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(workload):
    with precision("edge"):
        result = measure(workload, seed=3, seconds=0.0, scale=TINY,
                         setups=1, import_probes=1)
    assert result.failures == []
    assert list(result.metrics) == [name for name, _ in END_TO_END]
    for name, (value, _) in result.metrics.items():
        assert math.isfinite(value) and value > 0, name
    assert result.metrics["answered_fraction"][0] == 1.0
    line = json.loads(result.line())
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["attempted"] >= 1


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_run_serves_identical_answers_and_splits_by_layer(workload):
    with precision("edge"):
        result = trace(workload, seed=3, scale=TINY)
    # trace() fails the run when the traced pass served different answers.
    assert result.failures == []
    assert list(result.metrics) == [name for name, _ in PER_LAYER]
    for name, (value, _) in result.metrics.items():
        assert math.isfinite(value), name
        if name != "trace.overhead_pct":
            assert value > 0, name
    # Top-level spans never overlap, so coverage cannot pass 100%; the
    # benchmark's own spans are part of it, the program's layers most of it.
    coverage = result.extra["blocks_span_coverage_pct"]
    assert 90.0 <= coverage <= 100.0 + 1e-9
    assert 0.0 < result.extra["blocks_program_pct"] < coverage


def test_reference_probe_gives_a_speed_and_its_process_ends():
    reference = Reference()
    try:
        probes = Probes()
        probes.add(reference.probe())
    finally:
        reference.close()
    assert reference._child.poll() is not None
    assert len(probes.chunks) == CHUNKS
    assert probes.probes == [sum(probes.chunks)]
    for whole in (True, False):
        assert probes.speed(whole=whole, calm=5.0) > 0


def test_a_failed_request_is_a_failed_operation(monkeypatch):
    from repro.exceptions import ExecutorError
    from repro.serving import scheduler

    result_of = scheduler._BatchFuture.result
    calls = []

    def flaky(future):
        calls.append(future)
        if len(calls) % 5 == 0:
            raise ExecutorError("injected")
        return result_of(future)

    monkeypatch.setattr(scheduler._BatchFuture, "result", flaky)
    with precision("edge"):
        result = measure("serve-small", seed=3, seconds=0.0, scale=TINY,
                         setups=1, import_probes=1)
    assert not result.correct
    assert result.failed >= 1
    assert any("injected" in message for message in result.failures)
    assert 0.0 < result.metrics["answered_fraction"][0] < 1.0
    assert json.loads(result.line())["failed"] == result.failed
