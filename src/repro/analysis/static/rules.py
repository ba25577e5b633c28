"""The per-file lint rules (docs/STATIC_ANALYSIS.md).

Each rule is a small :class:`~repro.analysis.static.core.Rule` subclass
whose :meth:`check` sees one file. The dtype rules (DT001-DT003) apply
to the ``hot_path`` of the run's :class:`~repro.analysis.static.core.
LintConfig`; MUT001 to :data:`MUTATION_SCOPE`. Path patterns match as
whole ``/``-separated segments anywhere in the file's POSIX path
(:func:`~repro.analysis.static.core.path_matches`).
"""

from __future__ import annotations

import ast

from repro.analysis.static.core import (
    FileContext,
    Finding,
    Rule,
    path_matches,
    register,
)

# Kernels that receive caller-owned arrays (MUT001 applies here only).
MUTATION_SCOPE = ["repro/tt/kernels.py", "repro/cache"]


# --------------------------------------------------------------------- #
# Dtype discipline (hot-path modules only)
# --------------------------------------------------------------------- #


@register
class Float64LiteralRule(Rule):
    """DT001: no hard-coded ``np.float64`` in hot-path modules.

    Rationale: TT-Rec's entire point is memory compression; a literal
    ``np.float64`` in the TT/ops/cache hot path doubles a buffer and
    upcasts everything it touches, independent of the model's configured
    dtype. Derive dtypes from operands or ``repro.utils.dtypes``.

    Bad::

        acc = np.zeros(n, dtype=np.float64)

    Good::

        acc = np.zeros(n, dtype=result_dtype(core_a, core_b))
    """

    id = "DT001"
    summary = "hard-coded np.float64 in a hot-path module; use repro.utils.dtypes"

    def check(self, ctx: FileContext) -> list[Finding]:
        if not path_matches(ctx.path, self.config.hot_path):
            return []
        out = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Attribute) and ctx.resolve(node) == "numpy.float64":
                out.append(self.finding(
                    ctx.path, node,
                    "hard-coded np.float64 pins this buffer's dtype regardless "
                    "of the model's; derive it from an operand or use "
                    "repro.utils.dtypes (default_dtype/COUNT_DTYPE/result_dtype)",
                ))
        return out


_ALLOC_FNS = {"numpy.empty", "numpy.zeros", "numpy.ones"}


@register
class UntypedAllocRule(Rule):
    """DT002: ``np.empty/zeros/ones`` without an explicit dtype in hot paths.

    Rationale: dtype-less numpy allocators default to float64, so one
    forgotten ``dtype=`` in the hot path allocates a double-width buffer
    and upcasts every float32 operand combined with it — the exact
    memory blow-up the compression exists to avoid, and it shows up only
    as a quiet perf/memory regression.

    Bad::

        out = np.empty((batch, dim))

    Good::

        out = np.empty((batch, dim), dtype=cores[0].dtype)
    """

    id = "DT002"
    summary = "dtype-less np.empty/zeros/ones allocation in a hot-path module"

    def check(self, ctx: FileContext) -> list[Finding]:
        if not path_matches(ctx.path, self.config.hot_path):
            return []
        out = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = ctx.resolve(node.func)
            if name not in _ALLOC_FNS:
                continue
            has_dtype = len(node.args) >= 2 or any(
                kw.arg == "dtype" for kw in node.keywords
            )
            if not has_dtype:
                leaf = name.rsplit(".", 1)[1]
                out.append(self.finding(
                    ctx.path, node,
                    f"np.{leaf} without dtype= defaults to float64 and will "
                    "silently upcast float32 operands; pass an explicit dtype",
                ))
        return out


_LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
          ast.GeneratorExp)


@register
class AstypeInLoopRule(Rule):
    """DT003: ``.astype`` copies inside loops in hot paths.

    Rationale: ``.astype`` always allocates a fresh array; inside a loop
    that is one full-buffer copy per iteration, turning an O(1)
    conversion into O(iterations) allocations on the code the benchmarks
    gate. Convert once before the loop.

    Bad::

        for core in cores:
            acc = acc @ core.astype(np.float32)

    Good::

        cores32 = [np.asarray(c, dtype=np.float32) for c in cores]
        for core in cores32:
            acc = acc @ core
    """

    id = "DT003"
    summary = "astype copy inside a loop in a hot-path module"

    def check(self, ctx: FileContext) -> list[Finding]:
        if not path_matches(ctx.path, self.config.hot_path):
            return []
        out = []
        for loop in ast.walk(ctx.tree):
            if not isinstance(loop, _LOOPS):
                continue
            for node in ast.walk(loop):
                if node is loop:
                    continue
                if isinstance(node, _LOOPS):
                    continue  # the inner loop is walked in its own right
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "astype"):
                    out.append(self.finding(
                        ctx.path, node,
                        ".astype inside a loop allocates a fresh copy every "
                        "iteration; convert once before the loop "
                        "(np.asarray(x, dtype=...))",
                    ))
        # Nested loops would double-report: ast.walk(outer) sees the inner
        # loop's body too. Dedupe on location.
        seen: set[tuple[int, int]] = set()
        unique = []
        for f in out:
            if (f.line, f.col) not in seen:
                seen.add((f.line, f.col))
                unique.append(f)
        return unique


# --------------------------------------------------------------------- #
# Mutation safety
# --------------------------------------------------------------------- #

_VIEW_METHODS = {"reshape", "view", "ravel", "transpose", "swapaxes"}
_VIEW_FUNCS = {"numpy.asarray", "numpy.ascontiguousarray", "numpy.atleast_1d",
               "numpy.atleast_2d"}


@register
class ArgumentMutationRule(Rule):
    """MUT001: no in-place writes to function-argument arrays in kernel scope.

    Rationale: kernels receiving caller-owned arrays must not write into
    them — the caller may be holding a view of model state, and an
    aliased in-place update corrupts it invisibly. Tracks simple aliases
    (``flat = buf.reshape(...)``) so a view does not launder the
    mutation. Functions whose name ends in ``_`` follow the torch
    convention of documented in-place semantics and are exempt, as are
    ``self``/``cls``.

    Bad::

        def normalize(rows):
            rows /= np.linalg.norm(rows, axis=1, keepdims=True)

    Good::

        def normalize(rows):
            return rows / np.linalg.norm(rows, axis=1, keepdims=True)
    """

    id = "MUT001"
    summary = "in-place write to a function-argument array in kernel scope"

    def check(self, ctx: FileContext) -> list[Finding]:
        if not path_matches(ctx.path, MUTATION_SCOPE):
            return []
        out = []
        for fn in ast.walk(ctx.tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if fn.name.endswith("_"):
                continue
            out.extend(self._check_function(ctx, fn))
        return out

    def _check_function(self, ctx: FileContext,
                        fn: ast.FunctionDef) -> list[Finding]:
        args = fn.args
        tracked = {
            a.arg
            for a in (args.posonlyargs + args.args + args.kwonlyargs)
            if a.arg not in ("self", "cls")
        }
        if args.vararg:
            tracked.add(args.vararg.arg)
        if not tracked:
            return []
        out = []
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign):
                self._maybe_alias(ctx, node, tracked)
            targets: list[ast.AST] = []
            if isinstance(node, ast.AugAssign):
                targets.append(node.target)
            elif isinstance(node, ast.Assign):
                targets.extend(t for t in node.targets
                               if isinstance(t, ast.Subscript))
            for target in targets:
                base = target.value if isinstance(target, ast.Subscript) else target
                if isinstance(base, ast.Name) and base.id in tracked:
                    op = "augmented assignment" if isinstance(node, ast.AugAssign) \
                        else "subscript assignment"
                    out.append(self.finding(
                        ctx.path, node,
                        f"{op} writes into argument '{base.id}' in place; "
                        "return a new array, rename the function with a "
                        "trailing underscore, or suppress with "
                        "# repro: noqa[MUT001] if in-place is the contract",
                    ))
        return out

    def _maybe_alias(self, ctx: FileContext, node: ast.Assign,
                     tracked: set[str]) -> None:
        if len(node.targets) != 1 or not isinstance(node.targets[0], ast.Name):
            return
        target = node.targets[0].id
        value = node.value
        root: ast.AST | None = None
        if isinstance(value, ast.Name):
            root = value
        elif (isinstance(value, ast.Call) and isinstance(value.func, ast.Attribute)
              and value.func.attr in _VIEW_METHODS):
            root = value.func.value
        elif (isinstance(value, ast.Call) and value.args
              and ctx.resolve(value.func) in _VIEW_FUNCS):
            root = value.args[0]
        if isinstance(root, ast.Name) and root.id in tracked:
            tracked.add(target)
        elif target in tracked:
            # Rebound to something unrelated — no longer an alias.
            tracked.discard(target)
