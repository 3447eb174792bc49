"""Exception hierarchy for the repro (PILOTE reproduction) library.

All library-specific errors derive from :class:`ReproError` so callers can
catch a single base class at API boundaries.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError, ValueError):
    """Raised when a configuration object holds invalid or inconsistent values.

    Also a :class:`ValueError`, so callers validating plain values (e.g. a
    :class:`~repro.fleet.traffic.WorkloadSpec` with a non-positive rate) can
    catch the standard built-in without importing the library hierarchy.
    """


class DataError(ReproError):
    """Raised when input data is malformed (wrong shape, dtype, empty, ...)."""


class NotFittedError(ReproError):
    """Raised when a model is used for prediction before being trained."""


class GradientError(ReproError):
    """Raised when the autodiff engine detects an invalid backward pass, or
    an optimiser cannot apply one (a missing gradient, mixed dtypes)."""


class ShapeError(DataError):
    """Raised when array shapes are incompatible with the requested operation."""


class EdgeResourceError(ReproError):
    """Raised when an operation would exceed an edge device's resource budget."""


class SerializationError(ReproError):
    """Raised when a model or dataset cannot be saved or restored."""


class ServingError(ReproError):
    """Base class for errors raised by the unified serving API."""


class InvalidRequestError(ServingError, DataError):
    """Raised when a :class:`~repro.serving.PredictRequest` is malformed."""


class DeadlineExceededError(ServingError):
    """Raised when a request's deadline passes before service begins."""


class RoutingError(ServingError, ConfigurationError):
    """Raised when requests cannot be routed (unknown policy, resized fleet)."""


class RequestCancelledError(ServingError):
    """Raised through a future whose queued request was cancelled before
    service began — e.g. the losing attempt of a hedged request pair after
    the winner completed.  Cancelled requests are counted in
    ``RoutingReport.total_cancelled`` and excluded from SLO denominators
    (their logical request was answered by the winning attempt)."""


class ClientClosedError(ServingError):
    """Raised when requests are submitted to a closed serving client, and
    set on any still-pending futures a ``close()`` had to abandon — a closed
    client never leaves a future silently unresolved."""


class WireProtocolError(ServingError):
    """Raised when a network peer violates the serving wire protocol
    (garbage framing, oversized header/payload, an unusable codec, or a
    connection dropped mid-frame).  Travels over the wire as a typed error
    frame like every other :class:`ServingError`."""


class ExecutorError(ServingError):
    """Raised when a serving executor cannot run a batch (missing engine or
    learner state, unusable worker pool, unknown executor name)."""


class WorkerDiedError(ExecutorError):
    """Raised through a request's future when the worker process executing
    its batch died before answering; the batch is neither retried nor
    dropped silently (counted in ``RoutingReport.total_failed``)."""


class AnalysisError(ReproError):
    """Raised when the static-analysis tooling itself fails (unknown rule id,
    unreadable source tree) — never for a lint *finding*, which is data, not
    an exception."""


class SanitizerViolationError(AnalysisError):
    """Raised by :meth:`repro.analysis.Sanitizer.assert_clean` when the
    runtime sanitizer recorded an unsynchronized cross-thread write to
    scheduler, stats, or signal-bus state."""
