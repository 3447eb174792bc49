"""Declarative rule registry for the repro invariant linter.

Mirrors the registry shape of :mod:`repro.backend.registry`: each rule is a
class with a stable ``rule_id``, registered in a module-level dict, looked up
by id (the engine's ``select`` raises :class:`~repro.exceptions.AnalysisError`
for unknown ids).  The engine (:mod:`repro.analysis.engine`) stays rule-
agnostic; adding a rule is "write the class, call :func:`register_rule`".

Shipped rules
-------------
``repro-rng``
    No raw ``np.random.*`` / ``random.*`` calls outside ``utils/rng.py`` —
    all randomness flows through the seeded :func:`~repro.utils.rng.resolve_rng`
    seam.
``repro-clock``
    No wall-clock reads (``time.time``/``monotonic``/``perf_counter``,
    ``datetime.now``) in simulated-clock modules; use
    :func:`repro.utils.clock.perf_seconds`.
``repro-errors``
    Every constructed ``raise`` in ``serving/``, ``server/``, ``control/``
    must be a :class:`~repro.exceptions.ServingError` (or
    :class:`~repro.exceptions.ConfigurationError`) subclass; bare ``except:``
    and silent ``except Exception: pass`` are banned.
``repro-registry``
    Concrete ``Executor``/``RoutingPolicy`` implementations
    must appear in their registry dict and their package ``__all__``.
``repro-lock-callback``
    No user-callback invocation inside a ``with <lock>:`` block — the
    deadlock class the scheduler/executor dodged by hand.
``repro-export``
    A public dataclass's ``to_dict`` names each of its public fields.
``repro-unused``
    Every function, class and method is referenced somewhere in the tree
    beyond its definition, imports and ``__all__``.
``repro-unused-import``
    Every module other than a package ``__init__`` uses each name it
    imports.
"""

from __future__ import annotations

import fnmatch
from typing import Dict, List, Optional, Sequence, Tuple, Type

from repro.analysis.engine import FileContext, Finding
from repro.exceptions import AnalysisError

__all__ = [
    "Rule",
    "RULES",
    "register_rule",
    "default_rules",
]


class Rule:
    """Base class for lint rules.

    Subclasses set:

    ``rule_id``
        Stable kebab-case identifier used in reports, ``--select``, and
        ``# repro: noqa[...]`` suppressions.
    ``description``
        One-line summary shown by ``pilote lint --help`` style listings.
    ``scope``
        Optional tuple of :func:`fnmatch.fnmatch` patterns over the
        repo-relative posix path; ``None`` means every file.
    ``whitelist``
        Tuple of patterns naming files *exempt* from the rule (the sanctioned
        seam, e.g. ``utils/rng.py`` for ``repro-rng``).
    ``visits``
        Tuple of :mod:`ast` node types the rule wants dispatched to
        :meth:`visit`; empty means the rule only uses the file/project hooks.
    """

    rule_id: str = "abstract"
    description: str = ""
    scope: Optional[Tuple[str, ...]] = None
    whitelist: Tuple[str, ...] = ()
    visits: tuple = ()

    def applies_to(self, rel_path: str) -> bool:
        if any(fnmatch.fnmatch(rel_path, pattern) for pattern in self.whitelist):
            return False
        if self.scope is None:
            return True
        return any(fnmatch.fnmatch(rel_path, pattern) for pattern in self.scope)

    # -- hooks -------------------------------------------------------------
    def begin_file(self, context: FileContext) -> None:
        """Reset per-file state before the engine walks ``context.tree``."""

    def visit(self, node, context: FileContext) -> List[Finding]:
        """Inspect one dispatched AST node."""
        return []

    def end_file(self, context: FileContext) -> List[Finding]:
        """Emit findings that need the whole file (post-walk)."""
        return []

    def finish(self, contexts: Sequence[FileContext]) -> List[Finding]:
        """Emit project-level findings after every file was walked."""
        return []

    # -- helpers -----------------------------------------------------------
    def finding(self, node, context: FileContext, message: str) -> Finding:
        return Finding(
            rule_id=self.rule_id,
            path=context.rel_path,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


RULES: Dict[str, Type[Rule]] = {}


def register_rule(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding ``cls`` to the :data:`RULES` registry."""
    if cls.rule_id in RULES:
        raise AnalysisError(f"duplicate rule id: {cls.rule_id!r}")
    RULES[cls.rule_id] = cls
    return cls


def default_rules() -> List[Rule]:
    """One fresh instance of every registered rule, in registration order."""
    return [cls() for cls in RULES.values()]


# Import rule modules for their registration side effects.
from repro.analysis.rules import rng as _rng  # noqa: E402,F401
from repro.analysis.rules import clock as _clock  # noqa: E402,F401
from repro.analysis.rules import errors as _errors  # noqa: E402,F401
from repro.analysis.rules import registries as _registries  # noqa: E402,F401
from repro.analysis.rules import locks as _locks  # noqa: E402,F401
from repro.analysis.rules import export as _export  # noqa: E402,F401
from repro.analysis.rules import unused as _unused  # noqa: E402,F401
from repro.analysis.rules import imports as _imports  # noqa: E402,F401
