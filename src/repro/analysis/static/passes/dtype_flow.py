"""XMOD005: cross-module dtype taint flowing into hot-path modules."""

from __future__ import annotations

import ast

from repro.analysis.static.contracts import ContractPass, register_pass
from repro.analysis.static.core import Finding
from repro.analysis.static.graph import ModuleInfo, ProjectGraph
from repro.analysis.static.rules import path_matches
from repro.analysis.static.runner import _DEFAULT_CONFIG

# Allocators that default to float64 when no dtype is given. dtype-
# preserving constructors (asarray, *_like, copy) are deliberately out.
_ALLOC_FUNCS = {
    "zeros", "ones", "empty", "full", "arange", "linspace",
    "eye", "identity", "array",
}
_WIDE_DTYPES = {"float64", "double"}


def _is_tainted_alloc(call: ast.Call, ctx) -> bool:
    """Fresh numpy allocation that is dtype-less or explicitly float64."""
    dotted = ctx.resolve(call.func)
    if not dotted or not dotted.startswith("numpy"):
        return False
    if dotted.rsplit(".", 1)[-1] not in _ALLOC_FUNCS:
        return False
    for kw in call.keywords:
        if kw.arg != "dtype":
            continue
        value = kw.value
        if isinstance(value, ast.Constant):
            return value.value in _WIDE_DTYPES
        resolved = ctx.resolve(value)
        return bool(resolved) and (
            resolved.rsplit(".", 1)[-1] in _WIDE_DTYPES)
    return True


@register_pass
class DtypeTaintPass(ContractPass):
    """XMOD005: fresh float64 arrays must not leak into hot-path modules.

    Rationale: the per-file dtype rules police allocations *inside* the
    hot path, but a helper in a cold module that returns a dtype-less
    ``np.zeros(...)`` (float64 by default) re-introduces the exact
    memory blow-up TT compression exists to avoid the moment a hot-path
    module calls it — and no single-file rule can see that flow. The
    pass marks project functions whose return value is a freshly
    allocated dtype-less or explicitly-float64 numpy array (directly,
    through a local binding, or transitively by returning another
    tainted function's result), then reports every call-graph edge from
    a ``hot-path`` module into such a function outside the hot path.
    Call sites that immediately re-dtype the result (``.astype(...)``,
    or wrapping in a dtype-carrying ``np.asarray``/``np.array``) are
    exempt.

    Bad::

        # cold helper module
        def padding_block(n):
            return np.zeros((n, 64))          # float64 by default

        # hot-path module
        rows = padding_block(batch)           # 2x memory on the hot path

    Good::

        def padding_block(n, dtype=np.float32):
            return np.zeros((n, 64), dtype=dtype)
    """

    id = "XMOD005"
    summary = "fresh float64/dtype-less arrays flowing into hot-path modules"

    def check_project(self, graph: ProjectGraph) -> list[Finding]:
        hot_patterns = self.config.get("hot_path", _DEFAULT_CONFIG["hot_path"])

        tainted: set[str] = set()
        ret_calls: dict[str, list[str]] = {}
        for fn in graph.functions.values():
            info = graph.modules[fn.path]
            direct, returned = self._direct_taint(fn, info)
            if direct:
                tainted.add(fn.qualname)
            callmap = {id(node): callee for callee, node in fn.calls}
            ret_calls[fn.qualname] = [
                callmap[id(node)] for node in returned
                if id(node) in callmap
            ]
        changed = True
        while changed:
            changed = False
            for qual, callees in ret_calls.items():
                if qual in tainted:
                    continue
                if any(c in tainted for c in callees):
                    tainted.add(qual)
                    changed = True
        if not tainted:
            return []

        out: list[Finding] = []
        for info in graph.iter_modules():
            if not path_matches(info.path, hot_patterns):
                continue
            parents = self._parent_map(info)
            for fn in info.functions.values():
                for callee, node in fn.calls:
                    if callee not in tainted:
                        continue
                    callee_fn = graph.functions.get(callee)
                    if callee_fn is None or path_matches(
                            callee_fn.path, hot_patterns):
                        continue  # intra-hot flows are per-file territory
                    if self._recast_at_site(node, parents, info):
                        continue
                    out.append(self.finding(
                        info.path, node,
                        f"call to '{callee}' returns a fresh float64/"
                        "dtype-less array that flows into this hot-path "
                        "module: pass an explicit narrow dtype or cast at "
                        "the boundary",
                    ))
        return out

    # ------------------------------------------------------------------ #
    # Taint extraction
    # ------------------------------------------------------------------ #

    @staticmethod
    def _direct_taint(fn, info: ModuleInfo):
        """(returns fresh wide array directly?, return-position calls)."""
        ctx = info.ctx
        tainted_locals: set[str] = set()
        for node in ast.walk(fn.node):
            if (isinstance(node, ast.Assign)
                    and isinstance(node.value, ast.Call)
                    and _is_tainted_alloc(node.value, ctx)):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        tainted_locals.add(target.id)
        direct = False
        returned_calls: list[ast.Call] = []
        for node in ast.walk(fn.node):
            if not isinstance(node, ast.Return) or node.value is None:
                continue
            value = node.value
            if isinstance(value, ast.Call):
                if _is_tainted_alloc(value, ctx):
                    direct = True
                else:
                    returned_calls.append(value)
            elif (isinstance(value, ast.Name)
                  and value.id in tainted_locals):
                direct = True
        return direct, returned_calls

    @staticmethod
    def _parent_map(info: ModuleInfo) -> dict[int, ast.AST]:
        parents: dict[int, ast.AST] = {}
        for parent in ast.walk(info.ctx.tree):
            for child in ast.iter_child_nodes(parent):
                parents[id(child)] = parent
        return parents

    @staticmethod
    def _recast_at_site(node: ast.Call, parents: dict[int, ast.AST],
                        info: ModuleInfo) -> bool:
        """True when the call result is immediately re-dtyped."""
        parent = parents.get(id(node))
        if isinstance(parent, ast.Attribute) and parent.attr == "astype":
            return True
        if (isinstance(parent, ast.Call) and parent.args
                and parent.args[0] is node):
            dotted = info.ctx.resolve(parent.func)
            if (dotted and dotted.startswith("numpy")
                    and dotted.rsplit(".", 1)[-1] in ("asarray", "array")
                    and any(kw.arg == "dtype" for kw in parent.keywords)):
                return True
        return False
