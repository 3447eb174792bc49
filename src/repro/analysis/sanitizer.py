"""Runtime race sanitizer for the concurrent serving stack.

The scheduler, its per-device :class:`~repro.serving.report.DeviceStats` rows,
and the :class:`~repro.control.ControlPlane` attached to a client are all
designed for a *single-writer* discipline: every mutation happens on the
thread driving the event loop (the caller of ``submit``/``drain``, or the
asyncio bridge's pump thread), while executor worker threads only ever hand
results back through queues and futures.  Nothing enforces that — a stray
mutation from a worker thread would be a data race that only shows up as a
corrupted ledger thousands of requests later.

This module makes the discipline observable: :class:`Sanitizer.attach` wraps
a live :class:`~repro.serving.ServingClient`'s mutable state in recording
proxies that log ``(thread_id, target, field, op)`` for every write and
assert the single-writer invariant — the first thread to write a target
becomes its owner; any later write from a different thread is a violation.
Ownership is per *target* (one stats row, the scheduler's method surface, the
control plane), so handing the whole client from a main thread to a pump thread
before traffic starts is fine, while two threads interleaving writes to one
row is not.

Enabled via ``pilote chaos --sanitize`` or the ``REPRO_SANITIZE=1``
environment variable (picked up by the test-suite fixture), so the existing
chaos suite doubles as a race detector.
"""

from __future__ import annotations

import os
import threading
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Deque, Dict, FrozenSet, Iterator, List, Optional

from repro.exceptions import SanitizerViolationError

__all__ = [
    "AccessRecord",
    "AccessLog",
    "RecordingProxy",
    "Sanitizer",
    "auto_sanitize",
    "sanitize_enabled",
]

#: Scheduler entry points that mutate lane/queue/stats state.  All of them
#: must be driven from one thread; the executor's worker threads never call
#: them (they communicate through futures and queues).
SCHEDULER_MUTATORS = (
    "submit",
    "submit_many",
    "submit_assigned",
    "drain",
    "fail_pending",
    "replace_device",
)

#: Methods that mutate a DeviceStats row beyond plain attribute assignment.
STATS_MUTATORS: FrozenSet[str] = frozenset({"note_deadline"})



def sanitize_enabled() -> bool:
    """True when ``REPRO_SANITIZE`` requests the sanitizer (1/true/yes)."""
    return os.environ.get("REPRO_SANITIZE", "").strip().lower() in ("1", "true", "yes")


@dataclass(frozen=True)
class AccessRecord:
    """One observed access: which thread touched which field, and how."""

    thread_id: int
    thread_name: str
    target: str
    field: str
    op: str  # "write" | "call"

    def to_dict(self) -> dict:
        return {
            "thread_id": self.thread_id,
            "thread_name": self.thread_name,
            "target": self.target,
            "field": self.field,
            "op": self.op,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "AccessRecord":
        return cls(
            thread_id=int(payload["thread_id"]),
            thread_name=payload["thread_name"],
            target=payload["target"],
            field=payload["field"],
            op=payload["op"],
        )


class AccessLog:
    """Thread-safe bounded log of writes plus single-writer bookkeeping.

    The log itself is the *observer*, so it synchronises internally; the
    invariant it checks is about the observed objects, which are meant to be
    mutated without any synchronisation by exactly one thread each.
    """

    def __init__(self, maxlen: int = 10_000) -> None:
        self._mutex = threading.Lock()
        self.records: Deque[AccessRecord] = deque(maxlen=maxlen)
        self.owners: Dict[str, AccessRecord] = {}
        self.violations: List[dict] = []

    def record(self, target: str, field: str, op: str) -> None:
        thread = threading.current_thread()
        entry = AccessRecord(
            thread_id=thread.ident or 0,
            thread_name=thread.name,
            target=target,
            field=field,
            op=op,
        )
        with self._mutex:
            self.records.append(entry)
            owner = self.owners.setdefault(target, entry)
            if owner.thread_id != entry.thread_id:
                self.violations.append(
                    {
                        "target": target,
                        "field": field,
                        "op": op,
                        "owner_thread": f"{owner.thread_name}({owner.thread_id})",
                        "writer_thread": f"{entry.thread_name}({entry.thread_id})",
                    }
                )

    @property
    def write_count(self) -> int:
        with self._mutex:
            return len(self.records)


_PROXY_SLOTS = ("_san_target", "_san_label", "_san_log", "_san_mutators")


class RecordingProxy:
    """Transparent attribute-forwarding proxy that logs every write.

    ``proxy.field = x`` and ``proxy.field += x`` record a ``write``;
    calling a method listed in ``mutators`` records a ``call``.  Reads
    forward untouched, so report building and metrics never notice the
    proxy.
    """

    def __init__(self, target, label: str, log: AccessLog, mutators: FrozenSet[str] = frozenset()):
        object.__setattr__(self, "_san_target", target)
        object.__setattr__(self, "_san_label", label)
        object.__setattr__(self, "_san_log", log)
        object.__setattr__(self, "_san_mutators", mutators)

    def __getattr__(self, name: str):
        target = object.__getattribute__(self, "_san_target")
        value = getattr(target, name)
        if name in object.__getattribute__(self, "_san_mutators"):
            label = object.__getattribute__(self, "_san_label")
            log = object.__getattribute__(self, "_san_log")

            def recorded(*args, **kwargs):
                log.record(label, name, "call")
                return value(*args, **kwargs)

            return recorded
        return value

    def __setattr__(self, name: str, value) -> None:
        log = object.__getattribute__(self, "_san_log")
        label = object.__getattribute__(self, "_san_label")
        log.record(label, name, "write")
        setattr(object.__getattribute__(self, "_san_target"), name, value)

    def __repr__(self) -> str:
        return f"RecordingProxy({object.__getattribute__(self, '_san_target')!r})"


class _RecordingStatsDict(dict):
    """Scheduler ``_stats`` replacement: wraps rows in recording proxies.

    The scheduler lazily creates rows with ``setdefault`` during submit and
    drain; overriding the insert paths means every row is proxied no matter
    which code path created it.
    """

    def __init__(self, log: AccessLog, initial: Optional[dict] = None):
        super().__init__()
        self._san_log = log
        for key, value in (initial or {}).items():
            self[key] = value

    def _wrap(self, key, value):
        # Already reporting to this log (same sanitizer re-attaching): keep.
        # A proxy bound to a *different* log (a second sanitizer stacking on
        # the first) is wrapped again so both logs observe every write.
        if (
            isinstance(value, RecordingProxy)
            and object.__getattribute__(value, "_san_log") is self._san_log
        ):
            return value
        return RecordingProxy(
            value, f"stats[{key}]", self._san_log, mutators=STATS_MUTATORS
        )

    def __setitem__(self, key, value) -> None:
        super().__setitem__(key, self._wrap(key, value))

    def setdefault(self, key, default=None):
        if key in self:
            return self[key]
        self[key] = default
        return self[key]


class Sanitizer:
    """Attachable single-writer race detector for serving clients."""

    def __init__(self, maxlen: int = 10_000) -> None:
        self.log = AccessLog(maxlen=maxlen)
        self._seen: set = set()

    # -- attachment --------------------------------------------------------
    def attach(self, client) -> "Sanitizer":
        """Instrument a :class:`~repro.serving.ServingClient` in place.

        Wraps the scheduler's per-device stats rows, its mutating entry
        points, and — when a control plane is attached — the plane's
        ``after_submit``, which advances its failure window and ledger.
        Safe to call on a client that already carries traffic; ownership is
        established by the *next* write to each target.
        """
        label = getattr(client, "label", "fleet")
        self._instrument_scheduler(client.scheduler, label=label)
        plane = getattr(client, "control", None)
        if plane is not None and id(plane) not in self._seen:
            self._seen.add(id(plane))
            plane.after_submit = self._recorded_call(
                f"control[{label}]", "after_submit", plane.after_submit
            )
        return self

    def _instrument_scheduler(self, scheduler, label: str) -> None:
        tag = f"scheduler[{label}]"
        # Idempotence is per scheduler *instance*: a restarted client reuses
        # the label but needs its fresh scheduler instrumented.
        if id(scheduler) in self._seen:
            return
        self._seen.add(id(scheduler))
        scheduler._stats = _RecordingStatsDict(self.log, scheduler._stats)
        for name in SCHEDULER_MUTATORS:
            original = getattr(scheduler, name, None)
            if original is None:
                continue
            setattr(scheduler, name, self._recorded_call(tag, name, original))

    def _recorded_call(self, target: str, field: str, bound: Callable) -> Callable:
        log = self.log

        def recorded(*args, **kwargs):
            log.record(target, field, "call")
            return bound(*args, **kwargs)

        recorded.__name__ = getattr(bound, "__name__", field)
        return recorded

    # -- results -----------------------------------------------------------
    @property
    def violations(self) -> List[dict]:
        return list(self.log.violations)

    def report(self) -> dict:
        per_target: Dict[str, int] = {}
        for record in list(self.log.records):
            per_target[record.target] = per_target.get(record.target, 0) + 1
        return {
            "writes": self.log.write_count,
            "targets": dict(sorted(per_target.items())),
            "violations": list(self.log.violations),
            "clean": not self.log.violations,
        }

    def assert_clean(self) -> None:  # repro: noqa[repro-unused] test tooling: tests/conftest.py
        """Raise :class:`~repro.exceptions.SanitizerViolationError` if any
        cross-thread write was observed."""
        if not self.log.violations:
            return
        lines = [
            f"  {v['target']}.{v['field']} ({v['op']}) written by "
            f"{v['writer_thread']}, owned by {v['owner_thread']}"
            for v in self.log.violations
        ]
        raise SanitizerViolationError(
            f"{len(self.log.violations)} unsynchronized cross-thread write(s):\n"
            + "\n".join(lines)
        )


@contextmanager
def auto_sanitize() -> Iterator[Sanitizer]:  # repro: noqa[repro-unused] test tooling: tests/conftest.py
    """Attach one shared :class:`Sanitizer` to every client built inside.

    Patches ``ServingClient.__init__`` for the duration of the context so
    tests (the ``REPRO_SANITIZE=1`` fixture) and the chaos runner need no
    per-call plumbing.  A control plane is instrumented on
    ``attach_control``, since planes attach after construction.
    """
    from repro.serving.client import ServingClient

    sanitizer = Sanitizer()
    original_init = ServingClient.__init__
    original_attach = ServingClient.attach_control

    def init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        sanitizer.attach(self)

    def attach_control(self, plane):
        original_attach(self, plane)
        sanitizer.attach(self)

    ServingClient.__init__ = init
    ServingClient.attach_control = attach_control
    try:
        yield sanitizer
    finally:
        ServingClient.__init__ = original_init
        ServingClient.attach_control = original_attach
