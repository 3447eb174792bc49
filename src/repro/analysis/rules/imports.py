"""R8 ``repro-unused-import``: every module uses what it imports.

An import its module never uses costs import time and misleads the reader
about what the module depends on.  For each module other than a package
``__init__`` (whose imports are its re-exports), the rule collects the name
each ``import``/``from ... import`` binds (``import a.b`` binds ``a``) and
flags the ones the module never uses.  A *use* is a ``Name`` read anywhere
in the module (``np.zeros`` uses ``np``; annotations count; assigning the
name is no use), or the first part of a string constant that is a bare or
dotted identifier (a quoted annotation, or a re-export named in
``__all__``).  ``from __future__`` imports and star imports are not
checked.  An import kept for its side effect says so with
``# repro: noqa[repro-unused-import] <reason>`` on its line.
"""

from __future__ import annotations

import ast
import re
from typing import List, Set, Tuple

from repro.analysis.engine import FileContext, Finding
from repro.analysis.rules import Rule, register_rule

__all__ = ["UnusedImportRule"]

_DOTTED_IDENTIFIER = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*\Z")


@register_rule
class UnusedImportRule(Rule):
    rule_id = "repro-unused-import"
    description = "every module other than a package __init__ uses each name it imports"
    whitelist = ("*__init__.py",)
    visits = ()  # needs the whole module: everything happens in end_file()

    def end_file(self, context: FileContext) -> List[Finding]:
        bound: List[Tuple[str, ast.alias]] = []
        used: Set[str] = set()
        for node in ast.walk(context.tree):
            if isinstance(node, ast.Import):
                bound += [(alias.asname or alias.name.split(".")[0], alias)
                          for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound += [(alias.asname or alias.name, alias)
                          for alias in node.names if alias.name != "*"]
            elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and _DOTTED_IDENTIFIER.match(node.value)
            ):
                used.add(node.value.split(".")[0])
        return [
            self.finding(alias, context, f"{name} is imported but never used")
            for name, alias in bound
            if name not in used
        ]
