"""Benchmarks of the self-tuning control plane (`repro.control`).

Three gates, all on a serving-only learner (no gradient training, so the
measurements isolate the serving and control layers):

1. **Adaptive beats every static config under chaos** — a Zipf stream at
   ~4x overload with a mid-run worker-death storm on half the fleet, run
   through every static ``{fifo,edf} x {hash,p2c}`` config and through the
   adaptive stack (edf + p2c + load-shedding + hedged requests).  The
   adaptive client must answer a strictly larger fraction of the stream
   within deadline than the *best* static config, by a CI-gated margin.
   The run uses the serial executor's simulated clock and sets deadlines
   from its service time of one lane's per-tick batch
   (:func:`~repro.serving.scheduler.service_seconds`), so the result is
   the same on every machine.
2. **Autoscaler elasticity without lost batches** — a bursty stream on the
   process executor: the autoscaler must grow the worker pool during the
   burst, shrink it back when traffic quiets (respecting cooldown), and
   every submitted request must still resolve successfully — resizes land
   between rounds (drain-then-retire), never dropping an in-flight batch.
3. **Chaos suite exactly-once** — every registered chaos scenario, run in
   both adaptive and static mode, must satisfy the exactly-once ledger:
   ``sent == answered + failed`` with zero unresolved futures, zero
   double-fired callbacks, and server-side conservation including hedges.

Run via pytest (``python -m pytest benchmarks/bench_control.py -q -s``) or
directly (``PYTHONPATH=src python benchmarks/bench_control.py``).
"""

from __future__ import annotations


import numpy as np

from bench_fleet import N_FEATURES, build_fleet, make_serving_learner
from repro.backend import precision
from repro.control import ControlPlane, FlakyDevice, PoolAutoscaler, run_suite
from repro.edge.transfer import package_for_edge
from repro.fleet import TrafficGenerator, WorkloadSpec
from repro.serving import serve
from repro.serving.scheduler import service_seconds

#: Overload factor of the chaos workload: per-tick arrivals carry ~4x the
#: service capacity of one tick interval.
OVERLOAD = 4.0

#: Deadline classes as in ``bench_deadlines``: 1-in-8 requests urgent
#: (relative deadline 3x one lane-batch service time), the rest relaxed.
#: The urgent sub-stream alone is ~overload/8 = 0.5x capacity.
DEADLINE_MULTIPLIERS = (1.0,) + (40.0,) * 7

N_DEVICES = 4
REQUESTS_PER_TICK = 512
N_TICKS = 12
#: Worker-death storm: half the fleet fails fast for the middle third of
#: the run.  A dead lane looks idle to load-based routing (it drains
#: instantly by failing), so static p2c keeps feeding it — the
#: failure-vortex the hedging controller's unhealthy-lane signal breaks.
STORM_TICKS = frozenset(range(4, 8))
STORM_DEVICES = (0, 1)

STATIC_CONFIGS = [
    ("fifo", "hash"),
    ("fifo", "p2c"),
    ("edf", "hash"),
    ("edf", "p2c"),
]


def _run_chaos_config(package, pool, batch_service, scheduling, routing, adaptive):
    """One closed-loop chaos run; returns the stream-level SLO summary."""
    fleet = build_fleet(package, N_DEVICES)
    storm = []
    for position in STORM_DEVICES:
        wrapper = FlakyDevice(fleet.devices[position])
        fleet.replace_device(wrapper.device_id, wrapper)
        assert fleet.device(wrapper.device_id) is wrapper
        storm.append(wrapper)
    client = serve(
        fleet, routing=routing, scheduling=scheduling, seed=7, adaptive=adaptive
    )
    workload = WorkloadSpec(
        pattern="zipf",
        n_users=1000,
        requests_per_tick=REQUESTS_PER_TICK,
        n_ticks=N_TICKS,
        windows_per_request=1,
        tick_seconds=batch_service / OVERLOAD,
        deadline_seconds=3.0 * batch_service,
        deadline_multipliers=DEADLINE_MULTIPLIERS,
    )
    traffic = TrafficGenerator(pool, workload, seed=7)
    sent = 0
    # Closed loop (submit a tick, drain, repeat): the signal window sees
    # each round's failures, which is what lets the adaptive stack react
    # mid-storm; static configs run the identical loop.
    for tick, requests in enumerate(traffic.ticks()):
        for wrapper in storm:
            wrapper.failing = tick in STORM_TICKS
        sent += len(requests)
        client.submit_many(requests)
        client.drain()
    rep = client.report()
    in_deadline = rep.total_deadline_requests - rep.total_deadline_misses
    hedges = 0
    if adaptive:
        stats = client.control_stats()["hedging"]
        hedges = stats["fired"]
        # Duplicated answers would inflate attainment: a served loser may
        # re-count its deadline facts, so cap the claimed wins accordingly.
        in_deadline -= stats["losers_served"]
    return {
        "scheduling": scheduling,
        "routing": routing,
        "adaptive": adaptive,
        "sent": sent,
        "in_deadline": int(in_deadline),
        "attainment": in_deadline / sent,
        "failed": int(rep.total_failed),
        "expired": int(rep.total_expired),
        "shed": int(rep.total_shed),
        "cancelled": int(rep.total_cancelled),
        "hedges_fired": int(hedges),
    }


def test_adaptive_beats_static_under_chaos(report):
    """Adaptive control answers more of the stream in deadline than any
    static config, under overload with a worker-death storm."""
    with precision("edge"):
        package = package_for_edge(make_serving_learner())
        pool = np.random.default_rng(3).normal(size=(4096, N_FEATURES))
        fleet = build_fleet(package, N_DEVICES)
        batch_service = service_seconds(fleet.devices[0], REQUESTS_PER_TICK // N_DEVICES)

        rows = [
            _run_chaos_config(package, pool, batch_service, scheduling, routing, False)
            for scheduling, routing in STATIC_CONFIGS
        ]
        adaptive = _run_chaos_config(
            package, pool, batch_service, "edf", "p2c", True
        )

    best_static = max(rows, key=lambda row: row["attainment"])
    margin = adaptive["attainment"] - best_static["attainment"]
    n_requests = REQUESTS_PER_TICK * N_TICKS
    lines = [
        f"SLO attainment under ~{OVERLOAD:.0f}x Zipf overload with a "
        f"worker-death storm ({n_requests} requests, {N_DEVICES} devices, "
        f"{len(STORM_DEVICES)} dying for ticks {min(STORM_TICKS)}-"
        f"{max(STORM_TICKS)}, 1-in-8 urgent)",
    ]
    for row in rows + [adaptive]:
        label = (
            f"adaptive {row['scheduling']}+{row['routing']}"
            if row["adaptive"]
            else f"static   {row['scheduling']}+{row['routing']}"
        )
        lines.append(
            f"  {label:22s} {row['in_deadline']:5d} in deadline "
            f"({row['attainment']:7.2%})   failed {row['failed']:4d}   "
            f"expired {row['expired']:4d}   shed {row['shed']:4d}   "
            f"hedges {row['hedges_fired']:4d}"
        )
    lines.append(
        f"  margin over best static ({best_static['scheduling']}+"
        f"{best_static['routing']}): {margin:+.2%} of the stream"
    )
    report(
        "bench_control_slo",
        "\n".join(lines),
        data={
            "configs": rows + [adaptive],
            "best_static_attainment": best_static["attainment"],
            "adaptive_attainment": adaptive["attainment"],
            "margin": margin,
        },
    )
    assert adaptive["in_deadline"] > best_static["in_deadline"]
    # CI gate: the margin on this workload is 5.55% of the stream, the
    # same on every run (simulated clock); the gate sits at roughly half.
    assert margin >= 0.03, (
        f"adaptive margin {margin:.2%} below the 3% gate "
        f"(adaptive {adaptive['attainment']:.2%} vs best static "
        f"{best_static['attainment']:.2%})"
    )
    # The storm actually bit: static configs lost requests to dying lanes.
    assert best_static["failed"] > 0 or min(r["failed"] for r in rows) > 0


def test_autoscaler_elastic_without_lost_batches(report):
    """The autoscaler grows the process pool under burst, shrinks it when
    quiet, and never loses an in-flight batch across resizes."""
    with precision("edge"):
        package = package_for_edge(make_serving_learner())
        pool = np.random.default_rng(5).normal(size=(2048, N_FEATURES))
        fleet = build_fleet(package, N_DEVICES)
        reference = fleet.devices[0].infer(pool[:256])  # serial ground truth
        client = serve(fleet, routing="hash", seed=7, executor="process", workers=1)
        scaler = PoolAutoscaler(
            high_queue_per_worker=32.0, low_queue_per_worker=4.0, cooldown_ticks=1
        )
        ControlPlane(client, [scaler])
        executor = client.scheduler.executor
        futures = []
        sizes = []
        try:
            assert executor.n_workers == 1
            for _ in range(3):  # burst: 256 requests per wave
                futures.extend(
                    client.submit_many(
                        [
                            _predict_request(u, pool[u % 256])
                            for u in range(256)
                        ]
                    )
                )
                sizes.append(executor.n_workers)
                client.drain()
            grown = max(sizes)
            for _ in range(8):  # quiet: trickle waves
                futures.extend(
                    client.submit_many([_predict_request(0, pool[0])])
                )
                client.drain()
                sizes.append(executor.n_workers)
            shrunken = sizes[-1]
            results = [future.result() for future in futures]  # raises if lost
        finally:
            client.close()

    stats = scaler.stats()
    report(
        "bench_control_autoscaler",
        f"process-pool autoscaling over a burst-then-quiet stream "
        f"({len(futures)} requests, {N_DEVICES} lanes)\n"
        f"  pool size trace:     {sizes}\n"
        f"  grew to:             {grown} workers during the burst\n"
        f"  shrank to:           {shrunken} workers when quiet\n"
        f"  resize actions:      {stats['actions']} "
        f"({stats['scale_ups']} up, {stats['scale_downs']} down)\n"
        f"  lost batches:        0 (all {len(futures)} futures answered)",
        data={
            "sizes": sizes,
            "grown": grown,
            "shrunken": shrunken,
            **{k: v for k, v in stats.items() if k != "last"},
        },
    )
    assert grown > 1, "the burst must grow the pool"
    assert shrunken < grown, "quiet traffic must shrink the pool back"
    assert stats["scale_ups"] >= 1 and stats["scale_downs"] >= 1
    # Cooldown + hysteresis bound the churn well below one resize per wave.
    assert stats["actions"] <= 6
    assert len(results) == len(futures)
    # Answers across every pool size match the serial ground truth.
    for index in range(256):
        assert results[index].class_ids[0] == reference[index]


def _predict_request(user_id, features):
    from repro.serving import PredictRequest

    return PredictRequest(user_id=user_id, features=features)


def test_chaos_suite_exactly_once(report):
    """Every chaos scenario, adaptive and static, keeps the ledger exact."""
    with precision("edge"):
        adaptive_runs = run_suite(adaptive=True, seed=11)
        static_runs = run_suite(adaptive=False, seed=11)

    lines = ["chaos suite exactly-once ledgers (seed 11)"]
    data = {"adaptive": [], "static": []}
    for mode, runs in (("adaptive", adaptive_runs), ("static", static_runs)):
        for run in runs:
            lines.append(
                f"  {mode:8s} {run.name:22s} sent {run.sent:4d}  "
                f"answered {run.answered:4d}  failed {run.failed:4d}  "
                f"hedges {run.hedges_fired:4d}  exactly_once={run.exactly_once}"
            )
            data[mode].append(run.to_dict())
    report("bench_control_chaos", "\n".join(lines), data=data)
    for run in adaptive_runs + static_runs:
        assert run.exactly_once, f"{run.name}: {run.to_dict()}"
        assert run.sent == run.answered + run.failed
        assert run.unresolved == 0 and run.double_fired == 0


if __name__ == "__main__":
    def _report(name, text, data=None):
        print()
        print(text)
        return name

    test_adaptive_beats_static_under_chaos(_report)
    test_autoscaler_elastic_without_lost_batches(_report)
    test_chaos_suite_exactly_once(_report)
    print("\nall control benchmarks passed")
