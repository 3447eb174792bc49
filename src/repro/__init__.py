"""repro — a reproduction of PILOTE (EDBT 2023).

PILOTE pushes class-incremental learning of human physical activities to the
extreme edge: a Siamese embedding network trained with a supervised
contrastive loss, a herding-selected exemplar support set, a feature-space
distillation loss that prevents catastrophic forgetting, and a nearest-class
-mean classifier.

Quick start::

    from repro import PILOTE, PiloteConfig
    from repro.data import make_feature_dataset, build_incremental_scenario, Activity

    dataset = make_feature_dataset(samples_per_class=200, seed=0)
    scenario = build_incremental_scenario(dataset, [Activity.RUN], rng=0)

    learner = PILOTE(PiloteConfig.edge_lightweight(seed=0))
    learner.pretrain(scenario.old_train, scenario.old_validation)
    learner.learn_new_classes(scenario.new_train, scenario.new_validation)
    print("accuracy:", learner.evaluate(scenario.test))

The paper's comparison (Table 2, Figures 4–7) lives in
:mod:`repro.evaluation`: ``ExperimentRunner`` increments deep copies of one
pre-trained learner with the *Pre-trained* baseline (new-class prototypes on
the frozen embedding), the *Re-trained* baseline (PILOTE with α = 0) and
PILOTE itself, and ``RepeatedRounds`` aggregates the rounds; the
reproductions of each table and figure are in :mod:`repro.experiments`.

Compute backend
---------------

All numerics run through one numeric substrate (:mod:`repro.backend`),
which owns two policy decisions:

* **dtype policy** — leaf tensors and backend arrays use the global compute
  dtype: ``float64`` in the default *reference* profile (seed-compatible,
  required by gradient checking), ``float32`` under the *edge* profile used
  by device profiles and benchmarks.  Switch with
  ``repro.backend.precision("edge")`` (scoped) or
  ``repro.backend.set_default_dtype`` (global); ``EdgeDevice.precision()``
  applies a device profile's dtype.
* **op registry** — every autodiff operation is a named forward/vjp record
  (:mod:`repro.autodiff.primitives`), so the tape is inspectable
  (``Tensor.trace()``) and ops are testable in isolation.

Array creation and the shared kernels (distance matrices, grouped means)
live on :class:`repro.backend.NumpyBackend`, reached through
:func:`repro.backend.get_backend`.

Serving goes through :class:`repro.edge.inference.InferenceEngine` (also
reachable as ``learner.inference_engine()``), a handle that answers with the
learner's own Eq. 1 program (``PILOTE.predict``: embed, then nearest
prototype) and follows it through every increment without re-wiring.

Fleet serving
-------------

:mod:`repro.fleet` scales the single-device pipeline out to many devices
behind one cloud broadcast: :class:`~repro.fleet.FleetCoordinator` provisions
and deploys the fleet (``fleet.provision(n)`` then
``fleet.deploy(package_for_edge(learner))``),
:class:`~repro.fleet.TrafficGenerator` replays seeded uniform/bursty/Zipf
workloads, and :class:`~repro.fleet.CheckpointStore` snapshots/restores
device state.  Run the end-to-end simulation with
``pilote fleet-sim``.

Unified serving API
-------------------

:mod:`repro.serving` is the single front door for predictions, whichever
layer answers them.  ``serve(obj)`` builds a :class:`~repro.serving
.ServingClient` from a bare :class:`PILOTE` learner, a
:class:`MagnetoPlatform` or a whole :class:`~repro.fleet.FleetCoordinator`;
every layer speaks the same typed protocol::

    from repro.serving import serve, PredictRequest

    client = serve(learner)                       # or serve(platform/fleet)
    class_ids = client.predict(windows)           # one-liner: user 0, no deadline

    pending = client.submit(
        PredictRequest(user_id=7, features=windows, deadline_seconds=0.5)
    )
    client.drain()                                # event loop, simulated clock
    response = pending.result()                   # ids + device + latency

Fleet clients take a routing policy (``routing="hash" | "least-loaded" |
"p2c"``), and ``FleetCoordinator.deploy(package)`` ships one package to
every region that lacks it; a partially deployed fleet serves from its
deployed devices.  ``examples/quickstart.py`` and
``examples/serving_api.py`` walk through the API; ``pilote serve`` runs the
three-layer demonstration.
"""

from repro.backend import NumpyBackend, get_backend, precision
from repro.core import PILOTE, PiloteConfig, EmbeddingNetwork, NCMClassifier
from repro.data import Activity, HARDataset, build_incremental_scenario, make_feature_dataset
from repro.edge import InferenceEngine, MagnetoPlatform
from repro.fleet import CheckpointStore, FleetCoordinator, TrafficGenerator, WorkloadSpec
from repro.serving import (
    PendingResult,
    PredictRequest,
    PredictResponse,
    ServingClient,
    serve,
)

__version__ = "1.3.0"

__all__ = [
    "PILOTE",
    "PiloteConfig",
    "EmbeddingNetwork",
    "NCMClassifier",
    "Activity",
    "HARDataset",
    "make_feature_dataset",
    "build_incremental_scenario",
    "MagnetoPlatform",
    "InferenceEngine",
    "FleetCoordinator",
    "TrafficGenerator",
    "WorkloadSpec",
    "CheckpointStore",
    "serve",
    "ServingClient",
    "PredictRequest",
    "PredictResponse",
    "PendingResult",
    "NumpyBackend",
    "get_backend",
    "precision",
    "__version__",
]
