"""Quickstart: incremental learning of a new activity with PILOTE.

This is the smallest complete example of the library's public API:

1. generate a MAGNETO-like synthetic HAR dataset (22 sensor channels → 80
   statistical features per one-second window);
2. hold one activity ('Run') out as the *new* class;
3. pre-train PILOTE on the cloud side with the remaining four activities;
4. learn the new activity on the edge from the support set + new samples;
5. evaluate on the full five-activity test set.

Run with::

    python examples/quickstart.py

Serving
-------

Predictions are served through the unified serving API
(:mod:`repro.serving`): ``serve(learner)`` builds a client speaking the same
typed :class:`~repro.serving.PredictRequest` /
:class:`~repro.serving.PredictResponse` protocol that also fronts a
``MagnetoPlatform`` or a whole device fleet — step 6 below uses it, and
``examples/serving_api.py`` covers futures, deadlines, routing policies and
the serving report.

Fleet serving
-------------

Everything here is single-device, exactly as in the paper.  To serve many
devices from one cloud broadcast — request routing, staggered per-device
increments, checkpoint/restore — see ``examples/fleet_simulation.py`` and
the :mod:`repro.fleet` package, run ``pilote fleet-sim --scale quick
--routing least-loaded`` for the end-to-end simulation, or ``pilote serve``
for the same workload answered by every serving layer.  Past ~1000 devices
the simulation pools the fleet into regions (``pilote fleet-sim --devices
1000000``, or ``--regions 8`` to pick the count): regions serve one pooled
copy-on-write template each and devices are only materialised when they
drift — so a million-device fleet runs in megabytes, not terabytes.

Profiling the update
--------------------

``learner.phase_seconds`` splits the most recent update into training,
herding and prototype-refresh wall-clock time, and
:class:`repro.edge.profiler.EdgeProfiler` exports the same split.  On this
scenario training takes nearly all of it.

Control plane
-------------

Under overload or failures the serving stack can close the loop on its own
signals: ``serve(..., adaptive=True)`` attaches the control plane from
:mod:`repro.control`, which hedges requests by racing a clone past a dying
or backlogged lane.  ``examples/control_plane.py`` walks through the plane
and the chaos suite (``pilote chaos``) that proves no request is ever
dropped or double-answered while it acts.

Network serving
---------------

To serve *outside* callers over a real socket, :mod:`repro.server` puts an
asyncio front door on the same serving stack: ``pilote serve-net`` hosts a
fleet behind a length-prefixed binary wire protocol (typed error frames,
per-client backpressure, graceful shutdown), and ``pilote bench-client``
drives it closed-loop with end-to-end p50/p99 and SLO attainment reporting
— see ``examples/async_serving.py`` for the bridge, server and load layers
used directly from ``asyncio``.

Correctness tooling
-------------------

The conventions all of the above relies on — seeded RNG streams, the
simulated-vs-wall clock split, typed serving errors, registry completeness —
are machine-checked by :mod:`repro.analysis`: ``pilote lint`` runs the
repo's AST invariant linter (exit non-zero on findings; ``--format json``
for CI artifacts, ``# repro: noqa[rule-id] reason`` to suppress a justified
exception), and ``pilote chaos --sanitize`` (or ``REPRO_SANITIZE=1`` for
the test suite) re-runs the failure-injection scenarios under a runtime
race sanitizer that asserts the stack's single-writer discipline.  The
README's "Correctness tooling" section documents every rule id.
"""

from repro import PILOTE, PiloteConfig
from repro.data import Activity, build_incremental_scenario, make_feature_dataset
from repro.metrics.classification import classification_report
from repro.metrics.forgetting import new_class_accuracy, old_class_accuracy
from repro.serving import PredictRequest, serve


def main() -> None:
    # 1. Synthetic five-activity dataset (the paper's proprietary data is replaced
    #    by a parametric generator with the same class-similarity structure).
    dataset = make_feature_dataset(samples_per_class=250, seed=42)
    print(f"dataset: {dataset.n_samples} windows x {dataset.n_features} features")

    # 2. Class-incremental scenario: 'Run' is unknown at pre-training time.
    scenario = build_incremental_scenario(dataset, [Activity.RUN], rng=42)
    print(f"old classes: {[dataset.class_name(c) for c in scenario.old_classes]}")
    print(f"new classes: {[dataset.class_name(c) for c in scenario.new_classes]}")

    # 3. Cloud pre-training (contrastive Siamese embedding + herded support set).
    config = PiloteConfig.edge_lightweight(seed=42)
    learner = PILOTE(config)
    history = learner.pretrain(
        scenario.old_train, scenario.old_validation, exemplars_per_class=100
    )
    print(f"pre-training: {history.epochs_run} epochs, final loss {history.train_losses[-1]:.4f}")

    old_test = scenario.test.select_classes(scenario.old_classes)
    print(f"accuracy on old classes before the increment: {learner.evaluate(old_test):.4f}")

    # 4. Edge-side incremental learning of 'Run' (joint distillation + contrastive loss).
    history = learner.learn_new_classes(scenario.new_train, scenario.new_validation)
    print(f"incremental update: {history.epochs_run} epochs")

    # 5. Evaluation on all five activities.
    predictions = learner.predict(scenario.test.features)
    print()
    print(classification_report(scenario.test.labels, predictions,
                                label_names=dataset.label_names))
    print()
    print(f"old-class accuracy after the increment: "
          f"{old_class_accuracy(scenario.test.labels, predictions, scenario.old_classes):.4f}")
    print(f"new-class accuracy after the increment: "
          f"{new_class_accuracy(scenario.test.labels, predictions, scenario.new_classes):.4f}")
    print()
    footprint = learner.memory_footprint()
    print(f"edge footprint: model {footprint['model_bytes'] / 1024:.1f} KB, "
          f"support set {footprint['support_set_bytes'] / 1024:.1f} KB")

    # 6. Serving through the unified API: the same client (and request/
    #    response types) would front a MagnetoPlatform or an N-device fleet,
    #    and serve(..., executor="process", workers=N) would run the same
    #    batches on real worker processes instead of inline (see
    #    examples/serving_api.py step 6).
    client = serve(learner)
    pending = client.submit(
        PredictRequest(user_id=7, features=scenario.test.features[:4])
    )
    client.drain()
    response = pending.result()
    print()
    print(f"served {response.n_windows} windows for user {response.user_id} "
          f"in {response.latency_seconds * 1e3:.2f} ms (simulated) "
          f"on device {response.device_id}")


if __name__ == "__main__":
    main()
