"""XMOD001: fault-site registry vs. fire-site reconciliation."""

from __future__ import annotations

import ast
from itertools import product

from repro.analysis.static.contracts import ContractPass, register_pass
from repro.analysis.static.core import Finding, dotted_name
from repro.analysis.static.graph import ModuleInfo, ProjectGraph
from repro.analysis.static.rules import path_matches

# Injector methods whose first positional argument is a site name.
_FIRE_METHODS = {"fires", "draw", "corrupt", "register"}


def _receiver_is_injector(node: ast.AST) -> bool:
    """Heuristic: does this expression denote a fault injector?

    Matches dotted chains whose final segment mentions ``inj``
    (``self.injector``, ``inj``, ``router.injector``), direct
    ``FaultInjector(...)`` constructions, and chained
    ``.register(...).register(...)`` builders.
    """
    dotted = dotted_name(node)
    if dotted is not None:
        return "inj" in dotted.rsplit(".", 1)[-1].lower()
    if isinstance(node, ast.Call):
        callee = dotted_name(node.func)
        if callee is not None and callee.rsplit(".", 1)[-1] == "FaultInjector":
            return True
        if (isinstance(node.func, ast.Attribute)
                and node.func.attr == "register"):
            return _receiver_is_injector(node.func.value)
    if isinstance(node, ast.Attribute):
        return _receiver_is_injector(node.value)
    return False


@register_pass
class FaultSiteDriftPass(ContractPass):
    """XMOD001: every fired fault site is registered, and vice versa.

    Rationale: the injector's ``draw``/``fires``/``corrupt`` probe
    unconditionally and unregistered sites silently never fire, so a
    typo'd site string turns a chaos drill into a clean run that still
    reports success — and a ``KNOWN_SITES`` entry nobody fires is dead
    documentation that reconcilers trust for coverage. The pass
    reconciles the registry tuple (``fault-registry`` config, default
    ``repro/reliability/fault_injection.py``) against every literal
    site string passed to an injector's fire-capable methods
    (``fires``/``draw``/``corrupt``/``register``) anywhere in the
    project graph. A site spelled as an f-string over a per-tier class
    attribute (``f"{self.site_prefix}.crash"`` in a shared base class)
    is resolved against every class-level ``site_prefix = "<literal>"``
    in the graph, so each payload class's sites reconcile exactly.

    Bad::

        KNOWN_SITES = ("shard.crash",)
        injector.fires("shard.crashh")     # typo: never fires, no error

    Good::

        KNOWN_SITES = ("shard.crash",)
        injector.fires("shard.crash")
    """

    id = "XMOD001"
    summary = "fault-site drift between KNOWN_SITES and injector call sites"

    def check_project(self, graph: ProjectGraph) -> list[Finding]:
        registry_patterns = self.config.get(
            "fault_registry", ["repro/reliability/fault_injection.py"])
        registry_name = self.config.get("fault_registry_name", "KNOWN_SITES")
        registry: dict[str, tuple[str, ast.AST]] = {}
        registry_modules = []
        for info in graph.iter_modules():
            if not path_matches(info.path, registry_patterns):
                continue
            registry_modules.append(info)
            for site, node in self._registry_entries(info, registry_name):
                registry.setdefault(site, (info.path, node))
        if not registry_modules:
            # The registry is out of the analyzed scope (e.g. linting a
            # single unrelated file): nothing can be reconciled.
            return []

        out: list[Finding] = []
        used: set[str] = set()
        class_literals = self._class_literals(graph)
        for info in graph.iter_modules():
            for site, node in self._fire_sites(info, class_literals):
                used.add(site)
                if site not in registry:
                    out.append(self.finding(
                        info.path, node,
                        f"fault site '{site}' is not in {registry_name}: the "
                        "probe silently never fires; register the site or "
                        "fix the name",
                    ))
        for site in sorted(registry):
            if site in used:
                continue
            path, node = registry[site]
            out.append(self.finding(
                path, node,
                f"registered fault site '{site}' is never passed to an "
                "injector fire/register call in the analyzed tree: dead "
                "registry entry (remove it or wire up the component)",
            ))
        return out

    @staticmethod
    def _registry_entries(info: ModuleInfo, registry_name: str):
        for node in ast.walk(info.ctx.tree):
            if not isinstance(node, ast.Assign):
                continue
            if not any(isinstance(t, ast.Name) and t.id == registry_name
                       for t in node.targets):
                continue
            if isinstance(node.value, (ast.Tuple, ast.List, ast.Set)):
                for elt in node.value.elts:
                    if (isinstance(elt, ast.Constant)
                            and isinstance(elt.value, str)):
                        yield elt.value, elt

    @staticmethod
    def _class_literals(graph: ProjectGraph) -> dict[str, list[str]]:
        """Class-body ``NAME = "literal"`` assignments, pooled by name."""
        out: dict[str, list[str]] = {}
        for info in graph.iter_modules():
            for cls in ast.walk(info.ctx.tree):
                if not isinstance(cls, ast.ClassDef):
                    continue
                for stmt in cls.body:
                    if (isinstance(stmt, ast.Assign)
                            and isinstance(stmt.value, ast.Constant)
                            and isinstance(stmt.value.value, str)):
                        for target in stmt.targets:
                            if isinstance(target, ast.Name):
                                out.setdefault(target.id, []).append(
                                    stmt.value.value)
        return out

    @staticmethod
    def _site_names(arg: ast.AST,
                    class_literals: dict[str, list[str]]) -> list[str]:
        """Every site a first argument can denote; ``[]`` if not literal."""
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            return [arg.value]
        if not isinstance(arg, ast.JoinedStr):
            return []
        pieces: list[list[str]] = []
        for piece in arg.values:
            if isinstance(piece, ast.Constant):
                pieces.append([str(piece.value)])
            elif (isinstance(piece, ast.FormattedValue)
                    and isinstance(piece.value, ast.Attribute)
                    and piece.value.attr in class_literals):
                pieces.append(class_literals[piece.value.attr])
            else:
                return []
        return ["".join(combo) for combo in product(*pieces)]

    def _fire_sites(self, info: ModuleInfo,
                    class_literals: dict[str, list[str]]):
        for node in ast.walk(info.ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (isinstance(func, ast.Attribute)
                    and func.attr in _FIRE_METHODS):
                continue
            if not node.args or not _receiver_is_injector(func.value):
                continue
            for site in self._site_names(node.args[0], class_literals):
                yield site, node.args[0]
