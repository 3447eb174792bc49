"""R6 ``repro-export``: a ``to_dict`` names every field it exports.

Public dataclasses that export themselves with ``to_dict`` (reports,
findings, chaos ledgers) feed the server's stats frame, ``pilote lint
--format json`` and the benchmark JSON that CI diffs; a field added to the
class but not to ``to_dict`` silently drops out of all of them.  The rule
checks, per public ``@dataclass`` defining ``to_dict``, that every public
field (annotated assignment, not ``ClassVar``, not declared
``field(..., repr=False)`` — the convention here for derived/bulky state
excluded from the export) appears as a string literal in its body.
Nothing reads an export back; a reader lands with its caller, and
``repro-unused`` flags one that has none.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Set

from repro.analysis.engine import FileContext, Finding
from repro.analysis.rules import Rule, register_rule

__all__ = ["ExportRule"]


def _is_dataclass_decorated(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
        if isinstance(target, ast.Attribute) and target.attr == "dataclass":
            return True
    return False


def _is_repr_false_field(value: Optional[ast.expr]) -> bool:
    """``field(..., repr=False)`` — excluded from serialization by convention."""
    if not isinstance(value, ast.Call):
        return False
    callee = value.func
    name = callee.attr if isinstance(callee, ast.Attribute) else getattr(callee, "id", "")
    if name != "field":
        return False
    for keyword in value.keywords:
        if (
            keyword.arg == "repr"
            and isinstance(keyword.value, ast.Constant)
            and keyword.value.value is False
        ):
            return True
    return False


def _annotation_is_classvar(annotation: ast.expr) -> bool:
    target = annotation
    if isinstance(target, ast.Subscript):
        target = target.value
    if isinstance(target, ast.Name):
        return target.id == "ClassVar"
    if isinstance(target, ast.Attribute):
        return target.attr == "ClassVar"
    return False


def _string_literals(node: ast.AST) -> Set[str]:
    return {
        inner.value
        for inner in ast.walk(node)
        if isinstance(inner, ast.Constant) and isinstance(inner.value, str)
    }


@register_rule
class ExportRule(Rule):
    rule_id = "repro-export"
    description = "public dataclasses with to_dict must name every public field in it"
    visits = (ast.ClassDef,)

    def visit(self, node, context: FileContext) -> List[Finding]:
        if node.name.startswith("_") or not _is_dataclass_decorated(node):
            return []
        to_dict = next(
            (
                stmt
                for stmt in node.body
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                and stmt.name == "to_dict"
            ),
            None,
        )
        if to_dict is None:
            return []
        mentioned = _string_literals(to_dict)
        missing = [
            stmt.target.id
            for stmt in node.body
            if isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.target, ast.Name)
            and not stmt.target.id.startswith("_")
            and not _annotation_is_classvar(stmt.annotation)
            and not _is_repr_false_field(stmt.value)
            and stmt.target.id not in mentioned
        ]
        if not missing:
            return []
        return [
            self.finding(
                to_dict,
                context,
                f"{node.name}.to_dict does not mention field(s) "
                f"{', '.join(missing)}; the export drops them",
            )
        ]
