"""AST-walking lint engine for the repro invariant linter.

The engine owns everything rule-agnostic: discovering ``*.py`` files under a
root, parsing each one exactly once, collecting ``# repro: noqa[...]``
suppressions from the token stream, dispatching AST nodes to the rules that
registered interest in their types, and rendering the resulting
:class:`Finding` records as text or JSON.  Rules themselves live in
:mod:`repro.analysis.rules` and are pure visitors — they never touch the
filesystem.

Suppression convention (mirrors flake8's ``noqa`` but namespaced so it can
never collide with other tools):

* a *trailing* comment ``# repro: noqa[rule-id]`` suppresses the listed rules
  on that physical line only;
* a comment on a line *of its own* suppresses the listed rules for the whole
  file;
* omitting the bracket (``# repro: noqa``) suppresses every rule;
* free text after the closing bracket is an (encouraged) human reason and is
  ignored by the parser: ``# repro: noqa[repro-errors] abstract method``.
"""

from __future__ import annotations

import ast
import io
import json
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.exceptions import AnalysisError

__all__ = [
    "Finding",
    "FileContext",
    "LintEngine",
    "run_lint",
    "render_text",
    "render_json",
]

_NOQA_RE = re.compile(r"#\s*repro:\s*noqa(?:\[([^\]]*)\])?", re.IGNORECASE)

# Sentinel rule-id meaning "all rules" in a suppression set.
_ALL = "*"


@dataclass(frozen=True)
class Finding:
    """One lint violation: a rule id anchored to ``path:line:col``."""

    rule_id: str
    path: str
    line: int
    col: int
    message: str

    def to_dict(self) -> dict:
        return {
            "rule_id": self.rule_id,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    def __str__(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule_id} {self.message}"


def _parse_noqa_sets(comment: str) -> Optional[Set[str]]:
    """Return the set of suppressed rule ids in ``comment`` (or ``None``)."""
    match = _NOQA_RE.search(comment)
    if match is None:
        return None
    ids = match.group(1)
    if ids is None or not ids.strip():
        return {_ALL}
    return {part.strip() for part in ids.split(",") if part.strip()}


@dataclass
class FileContext:
    """Everything the engine knows about one parsed source file."""

    path: Path
    rel_path: str
    source: str
    tree: ast.AST
    # line number -> suppressed rule ids for that line; line 0 = whole file.
    suppressions: Dict[int, Set[str]] = field(default_factory=dict)

    def is_suppressed(self, rule_id: str, line: int) -> bool:
        for scope in (0, line):
            ids = self.suppressions.get(scope)
            if ids is not None and (_ALL in ids or rule_id in ids):
                return True
        return False


def _collect_suppressions(source: str) -> Dict[int, Set[str]]:
    """Scan the token stream for ``# repro: noqa`` comments.

    A comment token that is the first non-whitespace content on its line is a
    file-level suppression (line 0); anything trailing code is line-level.
    """
    suppressions: Dict[int, Set[str]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            ids = _parse_noqa_sets(token.string)
            if ids is None:
                continue
            line_text = token.line[: token.start[1]]
            scope = 0 if not line_text.strip() else token.start[0]
            suppressions.setdefault(scope, set()).update(ids)
    except tokenize.TokenError:
        # Unterminated string/bracket: ast.parse will report the real error.
        pass
    return suppressions


class LintEngine:
    """Run a set of rules over a source tree and collect findings.

    Parameters
    ----------
    rules:
        Rule instances (see :class:`repro.analysis.rules.Rule`).  Defaults to
        one instance of every registered rule.
    select:
        Optional iterable of rule ids restricting the run; unknown ids raise
        :class:`~repro.exceptions.AnalysisError` so typos fail loudly.
    """

    def __init__(self, rules: Optional[Sequence] = None, select: Optional[Iterable[str]] = None):
        if rules is None:
            from repro.analysis.rules import default_rules

            rules = default_rules()
        if select is not None:
            wanted = set(select)
            known = {rule.rule_id for rule in rules}
            unknown = wanted - known
            if unknown:
                raise AnalysisError(
                    f"unknown rule id(s): {sorted(unknown)}; known: {sorted(known)}"
                )
            rules = [rule for rule in rules if rule.rule_id in wanted]
        self.rules = list(rules)

    # -- discovery ---------------------------------------------------------
    @staticmethod
    def discover(root: Path) -> List[Path]:
        root = Path(root)
        if root.is_file():
            return [root]
        if not root.exists():
            raise AnalysisError(f"lint root does not exist: {root}")
        return sorted(root.rglob("*.py"))

    # -- per-file pipeline -------------------------------------------------
    def _parse(self, path: Path, root: Path) -> Tuple[Optional[FileContext], List[Finding]]:
        try:
            rel = path.relative_to(root).as_posix()
        except ValueError:
            rel = path.as_posix()
        try:
            source = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as error:
            return None, [Finding("repro-parse", rel, 0, 0, f"unreadable source: {error}")]
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as error:
            return None, [
                Finding(
                    "repro-parse",
                    rel,
                    error.lineno or 0,
                    error.offset or 0,
                    f"syntax error: {error.msg}",
                )
            ]
        context = FileContext(
            path=path,
            rel_path=rel,
            source=source,
            tree=tree,
            suppressions=_collect_suppressions(source),
        )
        return context, []

    def run(self, root: Path) -> List[Finding]:
        root = Path(root)
        files = self.discover(root)
        lint_root = root if root.is_dir() else root.parent
        findings: List[Finding] = []
        contexts: List[FileContext] = []
        for path in files:
            context, errors = self._parse(path, lint_root)
            findings.extend(errors)
            if context is None:
                continue
            contexts.append(context)
            findings.extend(self._run_file(context))
        # Project-level rules (e.g. registry completeness) see every file.
        for rule in self.rules:
            for finding in rule.finish(contexts):
                source = next(
                    (c for c in contexts if c.rel_path == finding.path), None
                )
                if source is not None and source.is_suppressed(finding.rule_id, finding.line):
                    continue
                findings.append(finding)
        findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id))
        return findings

    def _run_file(self, context: FileContext) -> List[Finding]:
        active = [rule for rule in self.rules if rule.applies_to(context.rel_path)]
        if not active:
            return []
        for rule in active:
            rule.begin_file(context)
        # Single walk; dispatch each node to the rules that want its type.
        dispatch: List[Tuple[object, tuple]] = [
            (rule, rule.visits) for rule in active if rule.visits
        ]
        findings: List[Finding] = []
        if dispatch:
            for node in ast.walk(context.tree):
                for rule, node_types in dispatch:
                    if isinstance(node, node_types):
                        findings.extend(rule.visit(node, context))
        for rule in active:
            findings.extend(rule.end_file(context))
        return [
            finding
            for finding in findings
            if not context.is_suppressed(finding.rule_id, finding.line)
        ]


def run_lint(root: Path, select: Optional[Iterable[str]] = None) -> List[Finding]:
    """Lint ``root`` with the default (or ``select``-ed) rule set."""
    return LintEngine(select=select).run(root)


# -- reporters ------------------------------------------------------------
def render_text(findings: Sequence[Finding]) -> str:
    if not findings:
        return "lint: clean (0 findings)"
    lines = [str(finding) for finding in findings]
    lines.append(f"lint: {len(findings)} finding(s)")
    return "\n".join(lines)


def render_json(findings: Sequence[Finding]) -> str:
    by_rule: Dict[str, int] = {}
    for finding in findings:
        by_rule[finding.rule_id] = by_rule.get(finding.rule_id, 0) + 1
    payload = {
        "version": 1,
        "count": len(findings),
        "by_rule": dict(sorted(by_rule.items())),
        "findings": [finding.to_dict() for finding in findings],
    }
    return json.dumps(payload, indent=2, sort_keys=False)
