"""XMOD002: metric-name drift between instrument writers and readers."""

from __future__ import annotations

import ast

from repro.analysis.static.core import Finding, Rule, register
from repro.analysis.static.graph import (
    ModuleInfo,
    ProjectGraph,
    expand_comprehension_fstring,
    fstring_pattern,
    pattern_to_regex,
)

_INSTRUMENT_METHODS = {"counter", "gauge", "histogram"}
_WRITE_ATTRS = {"inc", "set", "observe"}
_READ_ATTRS = {"value", "count", "total", "mean", "min", "max",
               "quantile", "summary", "bucket_counts", "bounds"}


def _is_registry_receiver(node: ast.AST, ctx) -> bool:
    """Does this expression denote the shared metrics registry?"""
    if isinstance(node, ast.Call):
        dotted = ctx.resolve(node.func)
        return bool(dotted) and dotted.rsplit(".", 1)[-1] == "get_registry"
    dotted = ctx.resolve(node)
    if not dotted:
        return False
    if dotted.startswith("numpy"):
        return False
    leaf = dotted.rsplit(".", 1)[-1].lower()
    return leaf == "reg" or "registry" in leaf


class _Registration:
    """One ``reg.counter/gauge/histogram(name)`` site with usage roles."""

    def __init__(self, path: str, node: ast.AST, names: list[str],
                 pattern: str | None, kind: str):
        self.path = path
        self.node = node
        self.names = names          # exact names (possibly expanded)
        self.pattern = pattern      # wildcard pattern, or None
        self.kind = kind
        self.written = False
        self.read = False

    def match_keys(self) -> list[str]:
        return self.names or ([self.pattern] if self.pattern else [])


@register
class MetricDriftPass(Rule):
    """XMOD002: counter/gauge/histogram names written vs. read must agree.

    Rationale: the registry is get-or-create, so a reader that asks for
    a typo'd name receives a fresh zero-valued instrument — benchmarks,
    SLO reconciliation and the ``profile`` CLI all silently report zero
    instead of failing. The pass classifies every registration site by
    how its instrument is used (``.inc``/``.set``/``.observe`` writes;
    ``.value``/``.quantile``/``.summary``/… reads, tracked through
    local/``self`` bindings and dict-comprehension registries, with
    f-string names expanded over literal iterables or reduced to
    wildcard patterns). A name that is read but matches no write is an
    **error**; a name that is written but neither read nor referenced
    anywhere else (docstring, reconciler table, snapshot lookup) is a
    **warning**; a ``registry.reset(prefix)`` whose prefix matches no
    written name is an **error**.

    Bad::

        reg.counter("tt.plan.flops_saved").inc(n)   # writer
        saved = reg.counter("tt.plan.flop_saved")   # reader: typo ->
        print(saved.value)                          # always 0

    Good::

        reg.counter("tt.plan.flops_saved").inc(n)
        saved = reg.counter("tt.plan.flops_saved")
        print(saved.value)
    """

    id = "XMOD002"
    summary = "metric-name drift between registry writers and readers"

    def check_project(self, graph: ProjectGraph) -> list[Finding]:
        regs: list[_Registration] = []
        resets: list[tuple[str, str, ast.AST]] = []
        for info in graph.iter_modules():
            regs.extend(self._module_registrations(info))
            resets.extend(self._module_resets(info))
        if not regs:
            return []
        reg_sites = {(r.path, r.node.lineno) for r in regs}
        for r in regs:
            if r.node.args:
                reg_sites.add((r.path, r.node.args[0].lineno))

        writes = [r for r in regs if r.written or not r.read]
        reads = [r for r in regs if r.read]

        out: list[Finding] = []
        for r in reads:
            for key in r.match_keys():
                if not self._matched(key, "*" in key, writes):
                    out.append(self.finding(
                        r.path, r.node,
                        f"metric '{key}' is read here but never written "
                        "anywhere in the analyzed tree: the registry will "
                        "hand back a fresh zero-valued instrument",
                    ))
        warned: set[str] = set()
        for r in sorted(writes, key=lambda r: (r.path, r.node.lineno)):
            if r.read:
                continue
            for key in r.match_keys():
                if key in warned:
                    continue
                if self._matched(key, "*" in key, reads):
                    continue
                if self._referenced_elsewhere(key, graph, reg_sites):
                    continue
                warned.add(key)
                out.append(self.finding(
                    r.path, r.node,
                    f"metric '{key}' is written but never read or "
                    "referenced anywhere else (no .value/.quantile "
                    "consumer, no read-role registration, no snapshot "
                    "lookup or docstring mention): dead telemetry or a "
                    "misspelled reader",
                    severity="warning",
                ))
        for path, prefix, node in resets:
            hit = any(
                key.startswith(prefix) or prefix.startswith(key.split("*")[0])
                for r in regs for key in r.match_keys()
            )
            if not hit:
                out.append(self.finding(
                    path, node,
                    f"registry.reset prefix '{prefix}' matches no registered "
                    "metric name: the reset is a no-op (typo'd prefix?)",
                ))
        return out

    @staticmethod
    def _referenced_elsewhere(key: str, graph: ProjectGraph,
                              reg_sites: set[tuple[str, int]]) -> bool:
        """Any string literal mentioning the name outside registrations.

        Docstrings documenting exported metrics, reconciler tables and
        snapshot-key lookups all count as evidence that the name is a
        deliberate contract rather than a typo.
        """
        fragments = sorted(
            (f.strip(".") for f in key.split("*")), key=len)
        needle = fragments[-1] if fragments else key
        for info in graph.iter_modules():
            for lit in info.strings:
                if (lit.path, lit.line) in reg_sites:
                    continue
                if needle and needle in lit.value:
                    return True
        return False

    @staticmethod
    def _matched(key: str, is_pattern: bool,
                 others: list[_Registration]) -> bool:
        if is_pattern:
            rx = pattern_to_regex(key)
            lit = key.split("*")[0]
            for o in others:
                for ok in o.match_keys():
                    if "*" in ok:
                        olit = ok.split("*")[0]
                        if olit.startswith(lit) or lit.startswith(olit):
                            return True
                    elif rx.match(ok):
                        return True
            return False
        for o in others:
            for ok in o.match_keys():
                if "*" in ok:
                    if pattern_to_regex(ok).match(key):
                        return True
                elif ok == key:
                    return True
        return False

    # ------------------------------------------------------------------ #
    # Per-module extraction
    # ------------------------------------------------------------------ #

    def _module_registrations(self, info: ModuleInfo) -> list[_Registration]:
        ctx = info.ctx
        parents: dict[int, ast.AST] = {}
        for parent in ast.walk(ctx.tree):
            for child in ast.iter_child_nodes(parent):
                parents[id(child)] = parent
        usage = self._binding_usage(ctx.tree)

        regs: list[_Registration] = []
        for node in ast.walk(ctx.tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _INSTRUMENT_METHODS):
                continue
            if not node.args:
                continue
            if not _is_registry_receiver(node.func.value, ctx):
                continue
            names, pattern = self._metric_names(node, parents)
            if not names and pattern is None:
                continue
            reg = _Registration(info.path, node, names, pattern,
                                node.func.attr)
            self._classify_roles(reg, node, parents, usage)
            regs.append(reg)
        return regs

    def _module_resets(self, info: ModuleInfo):
        ctx = info.ctx
        for node in ast.walk(ctx.tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "reset"):
                continue
            if not _is_registry_receiver(node.func.value, ctx):
                continue
            arg = node.args[0] if node.args else next(
                (kw.value for kw in node.keywords if kw.arg == "prefix"), None)
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                yield info.path, arg.value, node

    @staticmethod
    def _metric_names(node: ast.Call, parents: dict[int, ast.AST]):
        arg = node.args[0]
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            return [arg.value], None
        if isinstance(arg, ast.JoinedStr):
            comp = None
            cursor: ast.AST | None = node
            while cursor is not None:
                cursor = parents.get(id(cursor))
                if isinstance(cursor, ast.DictComp):
                    comp = cursor
                    break
                if isinstance(cursor, ast.stmt):
                    break
            expanded = expand_comprehension_fstring(node, comp)
            if expanded:
                return expanded, None
            return [], fstring_pattern(arg)
        return [], None

    def _classify_roles(self, reg: _Registration, node: ast.Call,
                        parents: dict[int, ast.AST],
                        usage: dict[str, set[str]]) -> None:
        # Direct chain: reg.counter("x").inc(...)
        parent = parents.get(id(node))
        if isinstance(parent, ast.Attribute):
            if parent.attr in _WRITE_ATTRS:
                reg.written = True
            elif parent.attr in _READ_ATTRS:
                reg.read = True
            return
        # Assigned binding: walk up to the enclosing statement.
        cursor: ast.AST | None = node
        stmt = None
        while cursor is not None:
            cursor = parents.get(id(cursor))
            if isinstance(cursor, ast.stmt):
                stmt = cursor
                break
        binding = None
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            binding = self._binding_repr(stmt.targets[0])
        elif isinstance(stmt, (ast.AnnAssign,)) and stmt.target is not None:
            binding = self._binding_repr(stmt.target)
        if binding is None:
            return
        attrs = usage.get(binding, set())
        reg.written = bool(attrs & _WRITE_ATTRS)
        reg.read = bool(attrs & _READ_ATTRS)

    @staticmethod
    def _binding_repr(node: ast.AST) -> str | None:
        if isinstance(node, ast.Name):
            return node.id
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"):
            return f"self.{node.attr}"
        return None

    @staticmethod
    def _binding_usage(tree: ast.Module) -> dict[str, set[str]]:
        """Map binding repr -> set of attributes accessed beyond it."""
        usage: dict[str, set[str]] = {}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute):
                continue
            base = node.value
            while isinstance(base, ast.Subscript):
                base = base.value
            if isinstance(base, ast.Name):
                key = base.id
            elif (isinstance(base, ast.Attribute)
                  and isinstance(base.value, ast.Name)
                  and base.value.id == "self"):
                key = f"self.{base.attr}"
            else:
                continue
            usage.setdefault(key, set()).add(node.attr)
        return usage
