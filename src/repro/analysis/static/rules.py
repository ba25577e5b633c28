"""The project-specific lint rules (docs/STATIC_ANALYSIS.md).

Each rule is a small :class:`~repro.analysis.static.core.Rule` subclass;
scoping (which files a rule applies to) comes from the ``[tool.repro.lint]``
config passed in as ``self.config``:

- ``hot_path``      — dtype rules (DT001-DT003) apply here only
- ``rng_allowed``   — files where global-state ``np.random`` is permitted
- ``clock_exempt``  — files where wall-clock reads are permitted
- ``mutation_scope``— files where argument-mutation (MUT001) is checked

Path patterns match as whole ``/``-separated segments anywhere in the
file's POSIX path, so ``repro/tt`` matches both ``src/repro/tt/kernels.py``
and an installed ``site-packages/repro/tt/kernels.py``.
"""

from __future__ import annotations

import ast

from repro.analysis.static.core import FileContext, Finding, Rule, register

__all__ = ["path_matches"]


def path_matches(path: str, patterns: list[str]) -> bool:
    """True if any pattern occurs as a segment-aligned substring of path."""
    haystack = "/" + path.replace("\\", "/").strip("/") + "/"
    for pattern in patterns:
        needle = "/" + pattern.replace("\\", "/").strip("/") + "/"
        if needle in haystack:
            return True
    return False


# --------------------------------------------------------------------- #
# RNG discipline
# --------------------------------------------------------------------- #

# Constructors that *build* Generator plumbing rather than touching numpy's
# hidden global stream — these are what the seeding helpers are made of.
_RNG_CONSTRUCTORS = {
    "default_rng", "Generator", "SeedSequence", "BitGenerator",
    "PCG64", "PCG64DXSM", "Philox", "MT19937", "SFC64",
}


@register
class GlobalRandomRule(Rule):
    """RNG001: no global-state ``np.random.<fn>()`` outside the seeding module.

    Rationale: calls through ``numpy.random``'s hidden module-level
    stream make results depend on every other draw that happened before
    them, so reordering any code path silently changes data, init and
    fault schedules. All randomness must flow from an explicit seeded
    ``Generator`` threaded through ``repro.utils.seeding``.

    Bad::

        noise = np.random.standard_normal(shape)

    Good::

        rng = as_rng(seed)
        noise = rng.standard_normal(shape)
    """

    id = "RNG001"
    summary = "global-state np.random call; thread a Generator via repro.utils.seeding"

    def check(self, ctx: FileContext) -> list[Finding]:
        if path_matches(ctx.path, self.config.get("rng_allowed", [])):
            return []
        out = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = ctx.resolve(node.func)
            if not name or not name.startswith("numpy.random."):
                continue
            leaf = name.rsplit(".", 1)[1]
            if leaf in _RNG_CONSTRUCTORS:
                continue
            out.append(self.finding(
                ctx, node,
                f"call to numpy.random.{leaf} uses numpy's hidden global RNG "
                "state; accept a seed and use repro.utils.seeding.as_rng",
            ))
        return out


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
        if not path_matches(ctx.path, self.config.get("hot_path", [])):
            return []
        out = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Attribute) and ctx.resolve(node) == "numpy.float64":
                out.append(self.finding(
                    ctx, node,
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
        if not path_matches(ctx.path, self.config.get("hot_path", [])):
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
                    ctx, node,
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
        if not path_matches(ctx.path, self.config.get("hot_path", [])):
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
                        ctx, node,
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
# Determinism
# --------------------------------------------------------------------- #

_WALL_CLOCK = {
    "time.time": "time.time",
    "time.time_ns": "time.time_ns",
    "datetime.datetime.now": "datetime.now",
    "datetime.datetime.utcnow": "datetime.utcnow",
    "datetime.datetime.today": "datetime.today",
    "datetime.date.today": "date.today",
}


@register
class WallClockRule(Rule):
    """DET001: no wall-clock reads in compute paths (use injectable clocks).

    Rationale: any decision taken off ``time.time()`` or
    ``datetime.now()`` differs between two runs of the same seed, so
    replays and chaos drills stop being byte-identical. Durations come
    from ``perf_counter``; schedule decisions come from an injected
    (Manual) clock.

    Bad::

        deadline = time.time() * 1000 + budget_ms

    Good::

        deadline = clock.now_ms() + budget_ms
    """

    id = "DET001"
    summary = "wall-clock read in a compute path; inject a clock instead"

    def check(self, ctx: FileContext) -> list[Finding]:
        if path_matches(ctx.path, self.config.get("clock_exempt", [])):
            return []
        out = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = ctx.resolve(node.func)
            if name in _WALL_CLOCK:
                out.append(self.finding(
                    ctx, node,
                    f"{_WALL_CLOCK[name]}() makes replays diverge; use "
                    "time.perf_counter for durations or an injectable clock "
                    "(serving.ManualClock) for schedule decisions",
                ))
        return out


_ENTROPY_CALLS = {
    "os.urandom": "os.urandom",
    "uuid.uuid1": "uuid.uuid1",
    "uuid.uuid4": "uuid.uuid4",
    "secrets.token_bytes": "secrets.token_bytes",
    "secrets.token_hex": "secrets.token_hex",
    "secrets.token_urlsafe": "secrets.token_urlsafe",
    "secrets.randbits": "secrets.randbits",
    "secrets.randbelow": "secrets.randbelow",
    "secrets.choice": "secrets.choice",
}


@register
class ProcessEntropyRule(Rule):
    """DET003: no ambient entropy / unsynchronized RNG in process scope.

    The sharded tier simulates multiple processes against one seeded
    fault stream; any draw from OS entropy (``os.urandom``, ``uuid4``,
    ``secrets``), the process-global stdlib ``random`` stream, or an
    unseeded ``default_rng()`` gives each "process" state the replay
    cannot reconstruct, so chaos schedules stop being reproducible.

    Bad::

        request_id = uuid.uuid4().hex

    Good::

        request_id = f"req-{rng.integers(2**63)}"   # rng from shared seed
    """

    id = "DET003"
    summary = "ambient entropy / unseeded RNG in process-replicated scope"

    def check(self, ctx: FileContext) -> list[Finding]:
        if not path_matches(ctx.path, self.config.get("process_scope", [])):
            return []
        out = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = ctx.resolve(node.func)
            if not name:
                continue
            if name in _ENTROPY_CALLS:
                out.append(self.finding(
                    ctx, node,
                    f"{_ENTROPY_CALLS[name]}() draws ambient OS entropy; a "
                    "simulated process must derive randomness from the "
                    "shared seeded stream (repro.utils.seeding.as_rng or "
                    "the run's FaultInjector) or replays diverge",
                ))
            elif name == "numpy.random.default_rng" \
                    and not node.args and not node.keywords:
                out.append(self.finding(
                    ctx, node,
                    "default_rng() without a seed gives every process its "
                    "own OS-entropy stream; pass a seed or a spawned "
                    "SeedSequence so cross-process draws are synchronized",
                ))
            elif name in ("random.Random", "random.SystemRandom"):
                if name == "random.SystemRandom" or not node.args:
                    out.append(self.finding(
                        ctx, node,
                        f"{name}() is OS-entropy-backed or unseeded; build "
                        "process RNG state from a shared seed instead",
                    ))
            elif name.startswith("random.") and name.count(".") == 1:
                leaf = name.rsplit(".", 1)[1]
                out.append(self.finding(
                    ctx, node,
                    f"random.{leaf}() uses the process-global stdlib RNG, "
                    "unsynchronized across simulated processes; thread a "
                    "seeded numpy Generator instead",
                ))
        return out


@register
class SetIterationRule(Rule):
    """DET002: no iteration over sets (nondeterministic order).

    Rationale: set iteration order depends on hash seeding and insertion
    history, so any float reduction, schedule or output built by walking
    a set can differ between identical runs. Sort the set (or keep a
    list) wherever the order can reach computation or artifacts.

    Bad::

        for shard in {w.shard for w in workers}:
            rebalance(shard)

    Good::

        for shard in sorted({w.shard for w in workers}):
            rebalance(shard)
    """

    id = "DET002"
    summary = "iteration over a set; order is nondeterministic across runs"

    def _is_set_expr(self, node: ast.AST, ctx: FileContext) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            return ctx.resolve(node.func) in ("set", "frozenset")
        return False

    def check(self, ctx: FileContext) -> list[Finding]:
        out = []
        for node in ast.walk(ctx.tree):
            iters: list[ast.AST] = []
            if isinstance(node, ast.For):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                iters.extend(gen.iter for gen in node.generators)
            for it in iters:
                if self._is_set_expr(it, ctx):
                    out.append(self.finding(
                        ctx, it,
                        "iterating a set feeds hash-order into downstream "
                        "computation; sort it (sorted(...)) or keep a list",
                    ))
        return out


# --------------------------------------------------------------------- #
# Exception hygiene
# --------------------------------------------------------------------- #


@register
class BareExceptRule(Rule):
    """EXC001: no bare ``except:``.

    Rationale: a bare ``except:`` catches ``KeyboardInterrupt`` and
    ``SystemExit`` too, so a hung chaos run cannot even be Ctrl-C'd out
    of, and the handler hides what it actually intended to catch.

    Bad::

        try:
            step()
        except:
            pass

    Good::

        try:
            step()
        except ShardTimeout:
            retry()
    """

    id = "EXC001"
    summary = "bare except swallows KeyboardInterrupt/SystemExit"

    def check(self, ctx: FileContext) -> list[Finding]:
        out = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                out.append(self.finding(
                    ctx, node,
                    "bare except catches KeyboardInterrupt and SystemExit; "
                    "name the exception type",
                ))
        return out


# A handler that neither re-raises nor leaves an observable trace hides
# faults from the PR-1/PR-2 reliability telemetry. "Observable" is a
# heuristic over called names: counters (.inc), events (emit_*), loggers,
# recorders.
_TELEMETRY_HINTS = ("inc", "emit", "record", "observe", "count", "log",
                    "fail", "exception", "warn", "trip", "add_event")


def _handler_observes(handler: ast.ExceptHandler) -> bool:
    for node in ast.walk(handler):
        if isinstance(node, ast.Raise):
            return True
        if isinstance(node, ast.Call):
            func = node.func
            leaf = None
            if isinstance(func, ast.Attribute):
                leaf = func.attr
            elif isinstance(func, ast.Name):
                leaf = func.id
            if leaf and any(h in leaf.lower() for h in _TELEMETRY_HINTS):
                return True
        if isinstance(node, ast.Return) and node.value is not None:
            # Returning a sentinel/fallback is a deliberate, visible choice.
            return True
    return False


@register
class SilentExceptionRule(Rule):
    """EXC002: ``except Exception`` must re-raise or leave a telemetry trace.

    Rationale: the reliability tier reconciles every injected fault
    against a defensive counter; an ``except Exception`` that swallows
    the fault without incrementing a counter, emitting an event or
    re-raising makes the ledger lie — faults happen and nothing shows.

    Bad::

        except Exception:
            result = None

    Good::

        except Exception:
            self._failures.inc()
            result = None
    """

    id = "EXC002"
    summary = "except Exception that neither re-raises nor records the fault"

    def check(self, ctx: FileContext) -> list[Finding]:
        out = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler) or node.type is None:
                continue
            types = (node.type.elts if isinstance(node.type, ast.Tuple)
                     else [node.type])
            names = {ctx.resolve(t) for t in types}
            if not ({"Exception", "BaseException"} & names):
                continue
            if not _handler_observes(node):
                out.append(self.finding(
                    ctx, node,
                    "except Exception that neither re-raises nor increments a "
                    "counter / emits an event hides the fault from the "
                    "reliability telemetry; record it or let it propagate",
                ))
        return out


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
        if not path_matches(ctx.path, self.config.get("mutation_scope", [])):
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
                        ctx, node,
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


# --------------------------------------------------------------------- #
# Suppression hygiene
# --------------------------------------------------------------------- #


@register
class UnknownSuppressionRule(Rule):
    """NOQA001: targeted ``noqa[...]`` comments must name real rule ids.

    Rationale: a suppression naming a rule that does not exist (typo,
    renamed rule, copy-paste from another linter) is dead weight at best
    — and at worst it convinces a reader the line is exempt from a check
    it is not. Unknown ids are an error instead of being silently
    ignored. Comma lists are fine: every id in the list is validated.

    The leading ``#`` is omitted from the examples below so that this
    docstring is not itself scanned as a suppression comment.

    Bad::

        x = np.zeros(n)  ... repro: noqa[DT0002]   (typo'd id: dead)

    Good::

        x = np.zeros(n)  ... repro: noqa[DT002]

    The findings themselves are emitted by the runner, which is the only
    layer that knows the full registry (per-file rules plus XMOD
    contract passes).
    """

    id = "NOQA001"
    summary = "unknown rule id named in a targeted noqa suppression"

    def check(self, ctx: FileContext) -> list[Finding]:
        return []
