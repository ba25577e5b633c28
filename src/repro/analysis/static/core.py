"""Shared framework for the ``repro lint`` rules.

Every rule is a :class:`Rule` subclass registered with :func:`register`.
A rule implements :meth:`Rule.check` (one file's :class:`FileContext`:
source, AST, import bindings, ``noqa`` map) or :meth:`Rule.check_project`
(the whole-program :class:`~repro.analysis.static.graph.ProjectGraph`).
Rules emit :class:`Finding` records; suppression — a ``repro: noqa``
comment, optionally targeted as ``repro: noqa[RULE1,RULE2]`` (hash mark
omitted here so this docstring is not itself scanned as one) — is applied
centrally so individual rules never need to think about it.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field

__all__ = [
    "Finding",
    "FileContext",
    "LintConfig",
    "Rule",
    "register",
    "all_rules",
    "path_matches",
]

_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\s*\[(?P<rules>[A-Za-z0-9_,\s]+)\])?", re.IGNORECASE
)


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location.

    ``severity`` is ``"error"`` (fails the run) or ``"warning"``
    (reported, but does not affect the exit code) — the cross-module
    passes use warnings for one-sided contract drift such as a metric
    that is written but never read.
    """

    rule: str
    path: str
    line: int
    col: int
    message: str
    severity: str = "error"

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "severity": self.severity,
        }


class FileContext:
    """Parsed view of one source file shared by every rule.

    Attributes
    ----------
    path : str
        POSIX-style path as reported in findings.
    source : str
        Raw file text.
    tree : ast.Module
        Parsed AST (``None`` never — a syntax error aborts construction).
    bindings : dict[str, str]
        Local name -> dotted origin for module-level and function-level
        imports: ``import numpy as np`` yields ``{"np": "numpy"}``;
        ``from numpy import zeros as z`` yields ``{"z": "numpy.zeros"}``.
    noqa : dict[int, set[str] | None]
        Line -> suppressed rule ids; ``None`` means "all rules".
    """

    def __init__(self, path: str, source: str):
        self.path = path
        self.source = source
        self.tree = ast.parse(source, filename=path)
        self.bindings = _collect_bindings(self.tree)
        self.noqa = _collect_noqa(source)

    def resolve(self, node: ast.AST) -> str | None:
        """Full dotted name of a Name/Attribute chain, imports resolved.

        ``xp.zeros`` resolves to ``numpy.zeros`` when ``xp`` is bound to
        ``numpy``; chains rooted in anything other than a plain name
        (calls, subscripts) resolve to ``None``.
        """
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = self.bindings.get(node.id, node.id)
        parts.append(root)
        return ".".join(reversed(parts))

    def suppressed(self, rule: str, line: int) -> bool:
        if line not in self.noqa:
            return False
        rules = self.noqa[line]
        return rules is None or rule.upper() in rules


def _collect_bindings(tree: ast.Module) -> dict[str, str]:
    bindings: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bindings[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
                if alias.asname:
                    bindings[alias.asname] = alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level or node.module is None:
                continue  # relative imports never hit the banned namespaces
            for alias in node.names:
                if alias.name == "*":
                    continue
                bindings[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return bindings


def _collect_noqa(source: str) -> dict[int, set[str] | None]:
    noqa: dict[int, set[str] | None] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        m = _NOQA_RE.search(line)
        if not m:
            continue
        rules = m.group("rules")
        if rules is None:
            noqa[lineno] = None
        else:
            ids = {r.strip().upper() for r in rules.split(",") if r.strip()}
            noqa[lineno] = ids or None
    return noqa


def path_matches(path: str, patterns: list[str]) -> bool:
    """True if any pattern occurs as a segment-aligned substring of path.

    ``repro/tt`` matches both ``src/repro/tt/kernels.py`` and an
    installed ``site-packages/repro/tt/kernels.py``, never ``repro/ttx``.
    """
    haystack = "/" + path.replace("\\", "/").strip("/") + "/"
    for pattern in patterns:
        needle = "/" + pattern.replace("\\", "/").strip("/") + "/"
        if needle in haystack:
            return True
    return False


@dataclass
class LintConfig:
    """What one run checks: rule selection and the scopes rules read.

    ``hot_path`` scopes the dtype rules (DT001-DT003); ``state_scope``
    the modules whose state machines XMOD004 enforces; ``graph_roots``
    are trees parsed into the project graph besides the linted paths
    (relative to the working directory), so linting a subtree still
    sees the registries and readers that live elsewhere.
    """

    hot_path: list[str] = field(default_factory=lambda: [
        "repro/tt", "repro/ops", "repro/cache", "repro/baselines",
        "repro/compress"])
    state_scope: list[str] = field(default_factory=lambda: [
        "repro/runtime", "repro/sharding", "repro/distributed"])
    graph_roots: list[str] = field(default_factory=lambda: [
        "src", "benchmarks"])
    select: list[str] = field(default_factory=list)
    ignore: list[str] = field(default_factory=list)


@dataclass
class Rule:
    """Base class for lint rules.

    Subclasses set :attr:`id`/:attr:`summary` as class attributes and
    override :meth:`check` (findings in one file) or
    :meth:`check_project` (findings anchored anywhere in the whole
    program). The runner applies suppression and lint-path scoping
    afterwards, so a rule reports everything it sees.
    """

    id = "RULE000"
    summary = ""

    config: LintConfig = field(default_factory=LintConfig)

    def check(self, ctx: FileContext) -> list[Finding]:
        return []

    def check_project(self, graph) -> list[Finding]:
        return []

    def finding(self, path: str, node: ast.AST, message: str,
                severity: str = "error") -> Finding:
        return Finding(
            rule=self.id,
            path=path,
            line=getattr(node, "lineno", 0) or 0,
            col=getattr(node, "col_offset", 0) or 0,
            message=message,
            severity=severity,
        )


_REGISTRY: dict[str, type[Rule]] = {}


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if cls.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {cls.id}")
    _REGISTRY[cls.id] = cls
    return cls


def all_rules() -> dict[str, type[Rule]]:
    """Registered rules by id (import side effect of rules and passes)."""
    from repro.analysis.static import passes as _passes  # noqa: F401
    from repro.analysis.static import rules as _rules  # noqa: F401

    return dict(_REGISTRY)
