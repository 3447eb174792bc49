"""R4 ``repro-registry``: concrete protocol implementations are registered.

The serving stack dispatches executors and routing policies by name through
module-level registry dicts (``EXECUTORS``, ``ROUTING_POLICIES``).
A concrete subclass that never lands in its registry is silently
un-dispatchable — the drift class this rule machine-checks.  A class counts
as *concrete* when it is public (no leading underscore) and declares a
class-level ``name = "..."`` other than ``"abstract"``; it must then appear

* as a value in its registry dict (literal entry or ``REGISTRY[...] = Cls``
  assignment), and
* in the ``__all__`` of an enclosing package ``__init__.py`` (checked only
  when such an ``__all__`` exists).

This is a project-level rule: it runs in :meth:`finish` over every parsed
file so the class, its registry, and its package export list may live in
different modules.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.engine import FileContext, Finding
from repro.analysis.rules import Rule, register_rule

__all__ = ["RegistryRule", "REGISTRY_SPECS"]

# base-class name -> registry dict variable name
REGISTRY_SPECS: Dict[str, str] = {
    "Executor": "EXECUTORS",
    "RoutingPolicy": "ROUTING_POLICIES",
}


@dataclass
class _ClassInfo:
    name: str
    bases: Tuple[str, ...]
    has_concrete_name: bool
    context: FileContext
    node: ast.ClassDef


def _base_names(node: ast.ClassDef) -> Tuple[str, ...]:
    names = []
    for base in node.bases:
        if isinstance(base, ast.Name):
            names.append(base.id)
        elif isinstance(base, ast.Attribute):
            names.append(base.attr)
    return tuple(names)


def _concrete_name_attr(node: ast.ClassDef) -> Optional[str]:
    """The class-level ``name = "..."`` string constant, if any."""
    for stmt in node.body:
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "name":
                if isinstance(value, ast.Constant) and isinstance(value.value, str):
                    return value.value
    return None


@register_rule
class RegistryRule(Rule):
    rule_id = "repro-registry"
    description = (
        "concrete Executor/RoutingPolicy "
        "classes must appear in their registry dict and package __all__"
    )
    visits = ()  # project-level: everything happens in finish()

    def finish(self, contexts: Sequence[FileContext]) -> List[Finding]:
        classes: List[_ClassInfo] = []
        registered: Dict[str, Set[str]] = {name: set() for name in REGISTRY_SPECS.values()}
        exports: Dict[str, Set[str]] = {}  # package dir (posix) -> __all__ strings

        for context in contexts:
            self._scan_file(context, classes, registered, exports)

        findings: List[Finding] = []
        # Resolve concrete implementations: direct textual subclassing plus an
        # iterative one-level-at-a-time closure for indirect subclasses.
        base_of: Dict[str, str] = {base: base for base in REGISTRY_SPECS}
        changed = True
        while changed:
            changed = False
            for info in classes:
                if info.name in base_of:
                    continue
                for parent in info.bases:
                    if parent in base_of:
                        base_of[info.name] = base_of[parent]
                        changed = True
                        break

        for info in classes:
            root = base_of.get(info.name)
            if root is None or info.name in REGISTRY_SPECS:
                continue
            if info.name.startswith("_") or not info.has_concrete_name:
                continue
            registry = REGISTRY_SPECS[root]
            if info.name not in registered[registry]:
                findings.append(
                    self.finding(
                        info.node,
                        info.context,
                        f"concrete {root} subclass {info.name} is missing from "
                        f"the {registry} registry",
                    )
                )
            exported = self._exported_anywhere(info, exports)
            if exported is False:
                findings.append(
                    self.finding(
                        info.node,
                        info.context,
                        f"concrete {root} subclass {info.name} is missing from "
                        "its package __all__",
                    )
                )
        return findings

    # -- per-file scan -----------------------------------------------------
    def _scan_file(
        self,
        context: FileContext,
        classes: List[_ClassInfo],
        registered: Dict[str, Set[str]],
        exports: Dict[str, Set[str]],
    ) -> None:
        registry_names = set(REGISTRY_SPECS.values())
        for node in ast.walk(context.tree):
            if isinstance(node, ast.ClassDef):
                concrete = _concrete_name_attr(node)
                classes.append(
                    _ClassInfo(
                        name=node.name,
                        bases=_base_names(node),
                        has_concrete_name=concrete is not None and concrete != "abstract",
                        context=context,
                        node=node,
                    )
                )
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                value = node.value
                for target in targets:
                    # EXECUTORS = {Cls.name: Cls, ...}
                    if (
                        isinstance(target, ast.Name)
                        and target.id in registry_names
                        and isinstance(value, ast.Dict)
                    ):
                        for entry in value.values:
                            if isinstance(entry, ast.Name):
                                registered[target.id].add(entry.id)
                    # EXECUTORS[...] = Cls
                    elif (
                        isinstance(target, ast.Subscript)
                        and isinstance(target.value, ast.Name)
                        and target.value.id in registry_names
                        and isinstance(value, ast.Name)
                    ):
                        registered[target.value.id].add(value.id)
                    # __all__ = [...] in a package __init__.py
                    elif (
                        isinstance(target, ast.Name)
                        and target.id == "__all__"
                        and context.rel_path.endswith("__init__.py")
                        and isinstance(value, (ast.List, ast.Tuple))
                    ):
                        package = context.rel_path.rsplit("/", 1)[0] if "/" in context.rel_path else ""
                        bucket = exports.setdefault(package, set())
                        for element in value.elts:
                            if isinstance(element, ast.Constant) and isinstance(
                                element.value, str
                            ):
                                bucket.add(element.value)

    @staticmethod
    def _exported_anywhere(
        info: _ClassInfo, exports: Dict[str, Set[str]]
    ) -> Optional[bool]:
        """True/False if an ancestor package has ``__all__``; None if none do."""
        rel = info.context.rel_path
        parts = rel.split("/")[:-1]
        seen_any = False
        while True:
            package = "/".join(parts)
            if package in exports:
                seen_any = True
                if info.name in exports[package]:
                    return True
            if not parts:
                break
            parts = parts[:-1]
        return False if seen_any else None
