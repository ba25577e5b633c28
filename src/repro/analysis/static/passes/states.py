"""XMOD004: state-machine literal exhaustiveness across modules."""

from __future__ import annotations

import ast

from repro.analysis.static.core import Finding, Rule, path_matches, register
from repro.analysis.static.graph import ModuleInfo, ProjectGraph

# The attribute families whose assigned string literals are machine states.
STATE_ATTRS = {"state", "verdict"}


def _literal_values(node: ast.AST) -> set[str]:
    """String literals a production RHS can evaluate to (best effort)."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return {node.value}
    if isinstance(node, ast.IfExp):
        return _literal_values(node.body) | _literal_values(node.orelse)
    if isinstance(node, (ast.List, ast.Tuple, ast.Set)):
        out: set[str] = set()
        for elt in node.elts:
            out |= _literal_values(elt)
        return out
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
        return _literal_values(node.left) | _literal_values(node.right)
    if isinstance(node, ast.Dict):
        out = set()
        for value in node.values:
            out |= _literal_values(value)
        return out
    return set()


@register
class StateMachineDriftPass(Rule):
    """XMOD004: state literals assigned vs. dispatched-on must reconcile.

    Rationale: worker lifecycle states (``up``/``hung``/``down``/
    ``rewarming``) are plain strings assigned in one module and
    dispatched on in others; a typo'd comparison is dead code that
    Python never flags, and a newly added state silently falls through
    every existing dispatcher. The pass pools, **graph-wide**, every
    string a tracked attribute (``state``/``verdict``) is assigned,
    keyed by attribute family — then, only inside ``state_scope``
    modules (default ``runtime/``, ``sharding/`` and ``distributed/``),
    it reports: a comparison against a value never assigned anywhere is
    an **error**; an assigned value no comparison ever dispatches on is
    an **error**; and a pure ``if/elif`` equality chain over a tracked
    attribute with no ``else`` that misses some assigned values is a
    **warning** naming the unhandled states.

    Bad::

        self.state = "rewarming"
        ...
        if worker.state == "rewarmin":   # typo: branch never taken
            skip(worker)

    Good::

        self.state = "rewarming"
        ...
        if worker.state == "rewarming":
            skip(worker)
    """

    id = "XMOD004"
    summary = "state-machine literal drift between producers and dispatchers"

    def check_project(self, graph: ProjectGraph) -> list[Finding]:
        scope, attrs = self.config.state_scope, STATE_ATTRS
        produced: dict[str, set[str]] = {}
        productions: list[tuple[str, str, str, ast.AST]] = []
        consumed: dict[str, set[str]] = {}
        consumptions: list[tuple[str, str, str, ast.AST]] = []
        in_scope: list[ModuleInfo] = []
        for info in graph.iter_modules():
            scoped = path_matches(info.path, scope)
            if scoped:
                in_scope.append(info)
            for family, value, node in self._productions(info, attrs):
                produced.setdefault(family, set()).add(value)
                if scoped:
                    productions.append((info.path, family, value, node))
            for family, value, node in self._consumptions(info, attrs):
                consumed.setdefault(family, set()).add(value)
                if scoped:
                    consumptions.append((info.path, family, value, node))
        if not produced:
            return []

        out: list[Finding] = []
        for path, family, value, node in consumptions:
            pool = produced.get(family, set())
            if pool and value not in pool:
                known = ", ".join(sorted(pool))
                out.append(self.finding(
                    path, node,
                    f"comparison against {family} '{value}' which is never "
                    f"assigned anywhere (known {family} values: {known}): "
                    "the branch is dead",
                ))
        reported: set[tuple[str, str]] = set()
        for path, family, value, node in productions:
            if value in consumed.get(family, set()):
                continue
            if (family, value) in reported:
                continue
            reported.add((family, value))
            out.append(self.finding(
                path, node,
                f"{family} '{value}' is assigned here but no dispatcher "
                "anywhere compares against it: the state is unhandled",
            ))
        for info in in_scope:
            out.extend(self._chain_findings(info, attrs, produced))
        return out

    # ------------------------------------------------------------------ #
    # Extraction
    # ------------------------------------------------------------------ #

    @staticmethod
    def _family(node: ast.AST, attrs: set[str]) -> str | None:
        while isinstance(node, ast.Subscript):
            node = node.value
        if isinstance(node, ast.Attribute) and node.attr in attrs:
            return node.attr
        if isinstance(node, ast.Name) and node.id in attrs:
            return node.id
        return None

    def _productions(self, info: ModuleInfo, attrs: set[str]):
        for node in ast.walk(info.ctx.tree):
            targets: list[ast.AST] = []
            value = None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            if value is None:
                continue
            for target in targets:
                family = self._family(target, attrs)
                if family is None:
                    continue
                for literal in sorted(_literal_values(value)):
                    yield family, literal, value
        yield from self._local_flow_productions(info, attrs)

    def _local_flow_productions(self, info: ModuleInfo, attrs: set[str]):
        """Literals flowing into a state attr through a local.

        The transition idiom assigns the attribute from a parameter
        (``self.state = to``) and branches on the literal elsewhere in
        the same function (``if to == "open": ...``): every literal the
        local is compared with or assigned counts as produced.
        """
        for fn in ast.walk(info.ctx.tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            feeders: dict[str, str] = {}  # local name -> attr family
            for node in ast.walk(fn):
                if not isinstance(node, ast.Assign):
                    continue
                if not isinstance(node.value, ast.Name):
                    continue
                for target in node.targets:
                    family = self._family(target, attrs)
                    if family is not None:
                        feeders[node.value.id] = family
            if not feeders:
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Compare):
                    sides = [node.left, *node.comparators]
                    locals_hit = [s.id for s in sides
                                  if isinstance(s, ast.Name)
                                  and s.id in feeders]
                    if not locals_hit:
                        continue
                    for side in sides:
                        for literal in sorted(_literal_values(side)):
                            for name in locals_hit:
                                yield feeders[name], literal, node
                elif isinstance(node, ast.Assign):
                    for target in node.targets:
                        if (isinstance(target, ast.Name)
                                and target.id in feeders):
                            for literal in sorted(
                                    _literal_values(node.value)):
                                yield feeders[target.id], literal, node

    def _consumptions(self, info: ModuleInfo, attrs: set[str]):
        for node in ast.walk(info.ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            sides = [node.left, *node.comparators]
            families = [self._family(s, attrs) for s in sides]
            if not any(families):
                continue
            for side, family in zip(sides, families):
                if family is not None:
                    continue
                for other_family in families:
                    if other_family is None:
                        continue
                    for literal in sorted(_literal_values(side)):
                        yield other_family, literal, node

    def _chain_findings(self, info: ModuleInfo, attrs: set[str],
                        produced: dict[str, set[str]]) -> list[Finding]:
        elif_children: set[int] = set()
        for node in ast.walk(info.ctx.tree):
            if (isinstance(node, ast.If) and len(node.orelse) == 1
                    and isinstance(node.orelse[0], ast.If)):
                elif_children.add(id(node.orelse[0]))

        out: list[Finding] = []
        for node in ast.walk(info.ctx.tree):
            if not isinstance(node, ast.If) or id(node) in elif_children:
                continue
            family, covered, closed = self._walk_chain(node, attrs)
            if family is None or closed:
                continue
            if len(covered) < 2:
                # A lone `if x.state == "..."` is a guard, not a
                # dispatcher; only real if/elif chains claim exhaustiveness.
                continue
            pool = produced.get(family, set())
            missing = pool - covered
            if not pool or not missing:
                continue
            names = ", ".join(sorted(missing))
            out.append(self.finding(
                info.path, node,
                f"if/elif chain over '{family}' has no else and does not "
                f"handle: {names} (those states fall through silently)",
                severity="warning",
            ))
        return out

    def _walk_chain(self, node: ast.If, attrs: set[str]):
        """Follow a pure ``== literal`` elif chain; (family, covered, closed).

        ``closed`` is True when the chain ends in an ``else`` (exhaustive
        by construction) — and family is None when any condition is not a
        simple equality over a single tracked attribute.
        """
        family: str | None = None
        covered: set[str] = set()
        cursor: ast.stmt | None = node
        while isinstance(cursor, ast.If):
            test = cursor.test
            if not (isinstance(test, ast.Compare) and len(test.ops) == 1
                    and isinstance(test.ops[0], ast.Eq)):
                return None, covered, False
            left_fam = self._family(test.left, attrs)
            right = test.comparators[0]
            if left_fam is None or not (
                    isinstance(right, ast.Constant)
                    and isinstance(right.value, str)):
                return None, covered, False
            if family is None:
                family = left_fam
            elif family != left_fam:
                return None, covered, False
            covered.add(right.value)
            if not cursor.orelse:
                return family, covered, False
            if len(cursor.orelse) == 1 and isinstance(cursor.orelse[0],
                                                      ast.If):
                cursor = cursor.orelse[0]
                continue
            return family, covered, True
        return family, covered, False
