"""Edge runtime: device resource model, transfer accounting, MAGNETO orchestration.

The paper's MAGNETO platform (Section 3) pre-trains an initial model on the
cloud and ships it — together with the exemplar support set — to the edge
device, where all further learning and inference happen without any data going
back to the cloud.  This package models that pipeline: storage/latency budgets
(:class:`EdgeDevice`), the transfer payload of a pre-trained learner and its
byte size (:func:`package_for_edge`, :class:`TransferPackage`), the device
that deploys, learns and serves it (:class:`FleetDevice`, one per fleet
device and one on the platform), end-to-end orchestration
(:class:`MagnetoPlatform`) and a small profiler used by the Q2 experiments.
Serving runs through the batched :class:`InferenceEngine`, which caches the
prototype matrix and follows the learner's state version across incremental
updates.
"""

from repro.edge.device import DeviceProfile, EdgeDevice, FleetDevice
from repro.edge.inference import InferenceEngine
from repro.edge.transfer import TransferPackage, package_for_edge
from repro.edge.magneto import MagnetoPlatform
from repro.edge.profiler import EdgeProfiler, LatencyReport

__all__ = [
    "EdgeDevice",
    "DeviceProfile",
    "FleetDevice",
    "InferenceEngine",
    "TransferPackage",
    "package_for_edge",
    "MagnetoPlatform",
    "EdgeProfiler",
    "LatencyReport",
]
