"""R7 ``repro-unused``: every function, class and method has a caller.

A definition nothing refers to is dead API: it costs reading, testing and
import time and does no work.  This is a project-level rule: it runs in
:meth:`finish` over every parsed file, collects

* *definitions* — every ``def``/``class`` (methods and nested ones too),
  except dunders and definitions handed to a registering decorator such as
  ``@register_rule`` (the registry is their caller), and
* *references* — every ``Name`` id, every ``Attribute`` attr (base-class
  entries are one of the two), and every string constant that is a bare or
  dotted identifier (``getattr(obj, "name")``, registry keys),

and flags each definition whose name is never referenced.  The definition
itself, import statements and ``__all__`` are not references, and neither
is a reference inside a definition of the same name: a recursive call, or
a method that only forwards to the same-named method of another object,
does not keep the name alive.

Beyond that, names are matched without scope, so one use of ``run``
anywhere keeps every ``run``.  A definition whose only caller lives outside
the lint root (a benchmark, an example, a test oracle) keeps itself with
``# repro: noqa[repro-unused] <caller>`` on its ``def``/``class`` line.
"""

from __future__ import annotations

import ast
import re
from typing import FrozenSet, List, Sequence, Set, Tuple

from repro.analysis.engine import FileContext, Finding
from repro.analysis.rules import Rule, register_rule

__all__ = ["UnusedRule"]

_DOTTED_IDENTIFIER = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*\Z")
_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_ASSIGNMENTS = (ast.Assign, ast.AugAssign, ast.AnnAssign)


def _is_registered(node) -> bool:
    """True when a decorator named ``register*`` receives ``node``."""
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name.startswith("register"):
            return True
    return False


def _assigns_all(node) -> bool:
    """True for ``__all__ = [...]`` and ``__all__ += [...]``."""
    targets = getattr(node, "targets", None) or [node.target]
    return node.value is not None and any(
        isinstance(target, ast.Name) and target.id == "__all__" for target in targets
    )


@register_rule
class UnusedRule(Rule):
    rule_id = "repro-unused"
    description = (
        "every function, class and method is referenced somewhere beyond its "
        "definition, imports and __all__"
    )
    visits = ()  # project-level: everything happens in finish()

    def finish(self, contexts: Sequence[FileContext]) -> List[Finding]:
        definitions: List[Tuple[ast.AST, FileContext]] = []
        referenced: Set[str] = set()
        for context in contexts:
            exported: Set[int] = set()  # id() of every node inside __all__'s value
            # Depth first, each node with the names of the definitions around
            # it; a node is seen before its children, so an assignment
            # precedes its values.
            stack: List[Tuple[ast.AST, FrozenSet[str]]] = [(context.tree, frozenset())]
            while stack:
                node, enclosing = stack.pop()
                names: Tuple[str, ...] = ()
                if isinstance(node, _DEFINITIONS):
                    dunder = node.name.startswith("__") and node.name.endswith("__")
                    if not dunder and not _is_registered(node):
                        definitions.append((node, context))
                    enclosing = enclosing | {node.name}
                elif isinstance(node, _ASSIGNMENTS) and _assigns_all(node):
                    exported.update(id(child) for child in ast.walk(node.value))
                elif isinstance(node, ast.Name):
                    names = (node.id,)
                elif isinstance(node, ast.Attribute):
                    names = (node.attr,)
                elif (
                    isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                    and id(node) not in exported
                    and _DOTTED_IDENTIFIER.match(node.value)
                ):
                    names = tuple(node.value.split("."))
                referenced.update(name for name in names if name not in enclosing)
                stack.extend((child, enclosing) for child in ast.iter_child_nodes(node))
        return [
            self.finding(node, context, f"{node.name} is defined but never referenced")
            for node, context in definitions
            if node.name not in referenced
        ]
