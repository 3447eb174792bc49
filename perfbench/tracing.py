"""Span tracing installed from outside the program.

:class:`Tracer` replaces public functions of each layer (``autodiff``,
``backend``, ``nn``, ``core``, ``edge``, ``serving``, ``server``) with thin
wrappers that record one span per call — name, start, end, parent span and
thread — into an in-memory list, and restores the originals on
:meth:`Tracer.uninstall`.  Nothing under ``src/`` changes.

Registry dispatches are counted where callers look the function up:
``repro.autodiff.tensor`` and ``repro.autodiff.ops`` bind
``registry.apply`` as a module global ``_apply`` at import time, so patching
``repro.backend.registry.apply`` alone would count none of them.

A span's *self time* is its duration minus the time its child spans cover
(children always nest on the parent's thread).  Worker processes forked
while the tracer is installed inherit the wrappers but record nothing: their
spans could never reach the parent.

The benchmark's own work (making inputs, checking outputs) is recorded with
:func:`harness` as one ``bench.*`` span, and nothing it calls inside is
recorded: a check's ``predict`` on hundreds of rows must not count as
serving work.
"""

from __future__ import annotations

import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

# span record fields
NAME, START, END, PARENT, THREAD = range(5)

#: The installed tracer, if any.
_ACTIVE: Optional["Tracer"] = None
#: Per-thread ``paused`` flag: set inside :func:`harness` spans.
_LOCAL = threading.local()


def _paused() -> bool:
    return getattr(_LOCAL, "paused", False)


@contextmanager
def phase(name: str):
    """Record the ``with`` body as one span on the installed tracer, if any;
    the calls inside it are recorded as its children."""
    tracer = _ACTIVE
    if tracer is None:
        yield
        return
    with tracer.span(name):
        yield


@contextmanager
def harness(name: str):
    """Record the ``with`` body as the benchmark's own work.

    With a tracer installed the body is one span named ``name`` and the
    calls inside it record nothing.  Without one it costs one lookup.
    """
    tracer = _ACTIVE
    if tracer is None or _paused():
        yield
        return
    with tracer.span(name):
        _LOCAL.paused = True
        try:
            yield
        finally:
            _LOCAL.paused = False


class LayerStats:
    """Aggregate of every span with one name."""

    __slots__ = ("calls", "total", "self_total", "items")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_total = 0.0
        self.items = 0


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self.items: Dict[str, int] = defaultdict(int)
        self._local = threading.local()
        self._patches: List[tuple] = []
        self._pid = os.getpid()

    # -- recording ------------------------------------------------------ #
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> Tuple[list, list]:
        """Start a span on this thread; returns ``(record, thread stack)``."""
        stack = self._stack()
        record = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1,
                  threading.get_ident()]
        stack.append(len(self.spans))
        self.spans.append(record)
        return record, stack

    @contextmanager
    def span(self, name: str):
        """Record the ``with`` body as one span (used for top-level spans)."""
        record, stack = self._open(name)
        try:
            yield
        finally:
            record[END] = time.perf_counter()
            stack.pop()

    # -- patching ------------------------------------------------------- #
    def patch(self, owner, attr: str, factory: Callable) -> None:
        """Replace ``owner.attr`` by ``factory(original)`` until uninstall."""
        raw = vars(owner)[attr]
        setattr(owner, attr, factory(raw))
        self._patches.append((owner, attr, raw))

    def wrap(self, owner, attr: str, name: str,
             items: Optional[Callable] = None) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``.

        ``items(args)`` optionally counts the work units of a call (rows,
        requests), summed into ``self.items[name]``.
        """
        tracer = self

        def factory(original):
            def traced(*args, **kwargs):
                if os.getpid() != tracer._pid or _paused():
                    return original(*args, **kwargs)
                if items is not None:
                    tracer.items[name] += items(args)
                record, stack = tracer._open(name)
                try:
                    return original(*args, **kwargs)
                finally:
                    record[END] = time.perf_counter()
                    stack.pop()

            return traced

        self.patch(owner, attr, factory)

    def count(self, owner, attr: str, name: str) -> None:
        """Count calls of ``owner.attr`` without recording spans."""
        counts = self.counts

        def factory(original):
            def counted(*args, **kwargs):
                if not _paused():
                    counts[name] += 1
                return original(*args, **kwargs)

            return counted

        self.patch(owner, attr, factory)

    def install(self) -> "Tracer":
        """Patch every traced layer boundary of the program."""
        global _ACTIVE
        from repro.autodiff import ops as autodiff_ops
        from repro.autodiff import tensor as autodiff_tensor
        from repro.backend import registry
        from repro.backend.backend import NumpyBackend
        from repro.core.embedding import EmbeddingNetwork
        from repro.core.pairs import PairSampler
        from repro.core.pilote import PILOTE
        from repro.edge.inference import InferenceEngine
        from repro.edge.transfer import TransferPackage
        from repro.nn.optim import Adam
        from repro.nn.trainer import Trainer
        from repro.server import wire
        from repro.server.bridge import AsyncServingClient
        from repro.serving.client import ServingClient

        rows = lambda args: int(np.shape(args[1])[0]) if np.ndim(args[1]) > 1 else 1  # noqa: E731
        count = lambda args: len(args[1])  # noqa: E731

        for module in (autodiff_tensor, autodiff_ops):
            self.count(module, "_apply", "backend.registry.dispatches")
        self.count(registry, "apply", "backend.registry.dispatches")
        self.wrap(autodiff_tensor.Tensor, "backward", "autodiff.backward")
        self.wrap(NumpyBackend, "pairwise_distances", "backend.pairwise_distances")
        self.wrap(Trainer, "fit", "nn.trainer.fit")
        self.wrap(Adam, "step", "nn.optim.step")
        self.wrap(PILOTE, "pretrain", "core.pretrain")
        self.wrap(PILOTE, "learn_new_classes", "core.learn_new_classes")
        self.wrap(PILOTE, "refine_prototype", "core.refine_prototype")
        self.wrap(PILOTE, "_select_class_exemplars", "core.herding")
        self.wrap(PILOTE, "_refresh_prototypes", "core.prototype_refresh")
        self.wrap(PairSampler, "sample", "core.pairs.sample")
        self.wrap(EmbeddingNetwork, "embed", "core.embed", items=rows)
        self.wrap(TransferPackage, "instantiate_learner", "edge.instantiate")
        self.wrap(InferenceEngine, "predict", "edge.engine.predict", items=rows)
        self.patch(InferenceEngine, "_refresh_if_stale", self._refresh_counter)
        self.wrap(ServingClient, "__init__", "serving.open")
        self.wrap(ServingClient, "close", "serving.close")
        self.wrap(ServingClient, "submit_many", "serving.submit", items=count)
        self.wrap(ServingClient, "drain", "serving.drain")
        self.wrap(AsyncServingClient, "_pump_step", "serving.pump_step", items=count)
        self.wrap(wire, "encode_frame", "server.wire.encode")
        for attr in ("_decode_header", "decode_predict", "decode_response"):
            self.wrap(wire, attr, "server.wire.decode")
        _ACTIVE = self
        return self

    def _refresh_counter(self, original):
        counts = self.counts

        def refresh(engine):
            if _paused():
                return original(engine)
            before = engine.cache_refreshes
            try:
                return original(engine)
            finally:
                counts["edge.engine.cache_refreshes"] += engine.cache_refreshes - before

        return refresh

    def uninstall(self) -> None:
        global _ACTIVE
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches = []
        _ACTIVE = None

    # -- analysis ------------------------------------------------------- #
    def self_seconds(self) -> List[float]:
        """Each span's duration minus the time its child spans cover."""
        spans = self.spans
        self_time = [record[END] - record[START] for record in spans]
        for record in spans:
            if record[PARENT] >= 0:
                self_time[record[PARENT]] -= record[END] - record[START]
        return self_time

    def layers(self) -> Dict[str, LayerStats]:
        """Per-name call count, total time and self time."""
        stats: Dict[str, LayerStats] = defaultdict(LayerStats)
        for record, own in zip(self.spans, self.self_seconds()):
            entry = stats[record[NAME]]
            entry.calls += 1
            entry.total += record[END] - record[START]
            entry.self_total += own
        for name, value in self.items.items():
            stats[name].items = value
        return stats

    def top_level(self, thread: int, since: float, until: float) -> Dict[str, float]:
        """Summed duration, per name, of the spans on ``thread`` that have no
        parent and lie within ``[since, until]``.

        Top-level spans do not overlap, so their sum is the time the trace
        accounts for; work that no span records, on the program's side or
        the benchmark's, is the rest.
        """
        totals: Dict[str, float] = defaultdict(float)
        for record in self.spans:
            if record[PARENT] < 0 and record[THREAD] == thread \
                    and record[START] >= since and record[END] <= until:
                totals[record[NAME]] += record[END] - record[START]
        return dict(totals)

    def export(self) -> dict:
        """Spans and counters as plain JSON-ready data."""
        return {
            "fields": ["name", "start", "end", "parent", "thread"],
            "spans": self.spans,
            "counts": dict(self.counts),
            "items": dict(self.items),
        }
