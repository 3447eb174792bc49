"""R5 ``repro-lock-callback``: no user callbacks fired under a held lock.

Invoking a user-supplied callback (``add_done_callback`` targets, the
control plane's ``after_submit`` hook) while holding a lock hands the
callback a chance to re-enter the serving API and deadlock on the same lock —
the class of bug the scheduler and asyncio bridge dodged by careful design.
This rule flags any call whose name looks like a user-callback invocation
lexically inside a ``with <lock>:`` (or ``async with``) block, where the
context manager's terminal identifier contains ``lock``/``mutex`` or is a
``threading.Lock``/``RLock``/``Condition``/``Semaphore`` constructor call.
"""

from __future__ import annotations

import ast
import re
from typing import List

from repro.analysis.engine import FileContext, Finding
from repro.analysis.rules import Rule, register_rule
from repro.analysis.rules.rng import _dotted

__all__ = ["LockCallbackRule"]

_LOCKISH_NAME = re.compile(r"(lock|mutex)", re.IGNORECASE)
_LOCK_CTORS = frozenset({"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore"})
_CALLBACK_NAME = re.compile(
    r"^(callbacks?|cb|hooks?|handler|add_done_callback|fire_callbacks?"
    r"|run_callbacks?|invoke_callbacks?|on_[a-z0-9_]+"
    r"|after_[a-z0-9_]+|before_[a-z0-9_]+)$"
)


def _is_lockish(expr: ast.expr) -> bool:
    """Does this with-item context expression look like a lock acquisition?"""
    # with self._lock: / with lock: / with state.mutex:
    if isinstance(expr, ast.Call):
        chain = _dotted(expr.func)
        if chain and chain[-1] in _LOCK_CTORS:
            return True
        # with self._lock.acquire_timeout(...):  — recurse into the callee root
        if chain and any(_LOCKISH_NAME.search(part) for part in chain):
            return True
        return False
    chain = _dotted(expr)
    return bool(chain) and bool(_LOCKISH_NAME.search(chain[-1]))


@register_rule
class LockCallbackRule(Rule):
    rule_id = "repro-lock-callback"
    description = (
        "no user-callback invocation (add_done_callback targets, control-plane "
        "hooks) inside a `with <lock>:` block"
    )
    visits = (ast.With, ast.AsyncWith)

    def visit(self, node, context: FileContext) -> List[Finding]:
        if not any(_is_lockish(item.context_expr) for item in node.items):
            return []
        findings: List[Finding] = []
        for inner in ast.walk(node):
            if not isinstance(inner, ast.Call):
                continue
            chain = _dotted(inner.func)
            if not chain:
                continue
            terminal = chain[-1]
            if _CALLBACK_NAME.match(terminal):
                findings.append(
                    self.finding(
                        inner,
                        context,
                        f"call to {terminal}(...) inside a `with lock:` block "
                        "can re-enter the API and deadlock; fire callbacks "
                        "after releasing the lock",
                    )
                )
        return findings
