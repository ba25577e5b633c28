"""The tree checks: eight AST checks over ``src/`` and ``benchmarks/``.

TT-Rec is a memory trade, and one float64 buffer on the hot path spends
the memory the cores saved; the dtype checks keep that out of the tree.
:func:`parse` reads every ``.py`` file of a tree once into a
:class:`Module`; each check is a plain function over that list returning
:class:`Finding` tuples (docs/STATIC_ANALYSIS.md has the rule tables):

- per file: ``DT001``-``DT003`` (dtype discipline on :data:`HOT_PATH`),
  ``MUT001`` (in-place writes to argument arrays in :data:`MUTATION_SCOPE`),
  ``IMP001`` (an import the module never reads);
- whole program: ``XMOD002`` (metric names written vs. read), ``XMOD003``
  (schema tags written vs. read), ``XMOD004`` (state literals assigned vs.
  dispatched on, reported inside :data:`STATE_SCOPE`).

:func:`run` applies ``# repro: noqa[RULE]`` comments. A scope pattern
matches as ``/``-aligned segments anywhere in a module's path, which is
relative to the parse root.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
ROOTS = ("src", "benchmarks")
SKIP = {"__pycache__", "build", "dist"}

HOT_PATH = ("repro/tt", "repro/ops", "repro/cache", "repro/baselines",
            "repro/compress")
MUTATION_SCOPE = ("repro/tt/kernels.py", "repro/cache")
STATE_SCOPE = ("repro/serving",)
STATE_ATTRS = {"state", "verdict"}

Finding = namedtuple("Finding", "rule path line message")

_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\s*\[(?P<rules>[A-Za-z0-9_,\s]+)\])?", re.IGNORECASE)


# --------------------------------------------------------------------- #
# One parse per file
# --------------------------------------------------------------------- #

class Module:
    """One parsed file: path, dotted name, AST, import bindings, noqa map.

    ``bindings`` maps a local name to its dotted origin (``import numpy as
    np`` -> ``{"np": "numpy"}``); ``noqa`` maps a line to the rule ids its
    ``# repro: noqa[...]`` comment suppresses (``None``: all of them).
    """

    def __init__(self, path: str, source: str):
        self.path = path
        self.name = _module_name(path)
        self.tree = ast.parse(source, filename=path)
        self.nodes = list(ast.walk(self.tree))
        self.bindings = _bindings(self.nodes)
        self.noqa = _noqa(source)

    def resolve(self, node: ast.AST) -> str | None:
        """Dotted name of a Name/Attribute chain with imports resolved
        (``xp.zeros`` -> ``numpy.zeros`` under ``import numpy as xp``)."""
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        parts.append(self.bindings.get(node.id, node.id))
        return ".".join(reversed(parts))

    def suppressed(self, rule: str, line: int) -> bool:
        return line in self.noqa and (self.noqa[line] is None
                                      or rule in self.noqa[line])

    @cached_property
    def parents(self) -> dict[int, ast.AST]:
        return {id(child): parent for parent in self.nodes
                for child in ast.iter_child_nodes(parent)}

    @cached_property
    def strings(self) -> list[tuple[str, int]]:
        """Every string literal and f-string pattern, with its line."""
        out = []
        for node in self.nodes:
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                out.append((node.value, node.lineno))
            elif isinstance(node, ast.JoinedStr):
                pattern = fstring_pattern(node)
                if pattern is not None:
                    out.append((pattern, node.lineno))
        return out


def parse(root: Path, *paths: str) -> list[Module]:
    """Every ``.py`` file under ``root/<path>`` (default :data:`ROOTS`),
    each parsed once, sorted by its POSIX path relative to ``root``."""
    rels = set()
    for entry in paths or ROOTS:
        top = root / entry
        for f in [top] if top.is_file() else top.rglob("*.py"):
            rel = f.relative_to(root)
            if not any(p in SKIP or p.startswith(".") for p in rel.parts):
                rels.add(rel.as_posix())
    return [Module(rel, (root / rel).read_text(encoding="utf-8"))
            for rel in sorted(rels)]


def _module_name(path: str) -> str:
    """``src/repro/tt/planner.py`` -> ``repro.tt.planner``."""
    parts = list(Path(path).with_suffix("").parts)
    if "src" in parts:
        parts = parts[len(parts) - parts[::-1].index("src"):]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _bindings(nodes: list[ast.AST]) -> dict[str, str]:
    bindings: dict[str, str] = {}
    for node in nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    bindings[alias.asname] = alias.name
                else:
                    root = alias.name.split(".")[0]
                    bindings[root] = root
        elif isinstance(node, ast.ImportFrom) and not node.level:
            for alias in node.names:
                if alias.name != "*":
                    bindings[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}")
    return bindings


def _noqa(source: str) -> dict[int, set[str] | None]:
    """Suppressions, read from comment tokens only (never from strings)."""
    noqa: dict[int, set[str] | None] = {}
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        m = tok.type == tokenize.COMMENT and _NOQA_RE.search(tok.string)
        if m:
            ids = {r.strip().upper()
                   for r in (m.group("rules") or "").split(",") if r.strip()}
            noqa[tok.start[0]] = ids or None
    return noqa


def in_scope(path: str, patterns) -> bool:
    """True if a pattern is a ``/``-aligned run of ``path``'s segments:
    ``repro/tt`` covers ``src/repro/tt/kernels.py``, not ``repro/ttx``."""
    haystack = "/" + path.strip("/") + "/"
    return any("/" + p.strip("/") + "/" in haystack for p in patterns)


def _finding(rule: str, m: Module, node: ast.AST, message: str) -> Finding:
    return Finding(rule, m.path, node.lineno, message)


def run(modules: list[Module]) -> tuple[list[Finding], list[Finding]]:
    """Every check over ``modules``: (kept, suppressed) findings."""
    by_path = {m.path: m for m in modules}
    kept, suppressed = [], []
    for check in CHECKS:
        for f in check(modules):
            (suppressed if by_path[f.path].suppressed(f.rule, f.line)
             else kept).append(f)
    return sorted(kept), sorted(suppressed)


# --------------------------------------------------------------------- #
# DT001-DT003: dtype discipline on the hot path
# --------------------------------------------------------------------- #

def dt001(modules: list[Module]) -> list[Finding]:
    """Hard-coded ``np.float64``: pins a buffer's dtype regardless of the
    model's, and next to float32 cores upcasts the whole GEMM chain."""
    return [_finding("DT001", m, node,
                     "hard-coded np.float64 pins this buffer's dtype "
                     "regardless of the model's; derive it from an operand "
                     "or use repro.utils.dtypes")
            for m in modules if in_scope(m.path, HOT_PATH)
            for node in m.nodes
            if isinstance(node, ast.Attribute)
            and m.resolve(node) == "numpy.float64"]


_ALLOC_FNS = {"numpy.empty", "numpy.zeros", "numpy.ones"}


def dt002(modules: list[Module]) -> list[Finding]:
    """``np.empty/zeros/ones`` without a dtype: defaults to float64."""
    out = []
    for m in modules:
        if not in_scope(m.path, HOT_PATH):
            continue
        for node in m.nodes:
            if not isinstance(node, ast.Call):
                continue
            name = m.resolve(node.func)
            if name in _ALLOC_FNS and len(node.args) < 2 and not any(
                    kw.arg == "dtype" for kw in node.keywords):
                out.append(_finding(
                    "DT002", m, node,
                    f"np.{name.rsplit('.', 1)[1]} without dtype= defaults "
                    "to float64 and will silently upcast float32 operands"))
    return out


_LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
          ast.GeneratorExp)


def dt003(modules: list[Module]) -> list[Finding]:
    """``.astype`` inside a loop: one fresh full-buffer copy per iteration."""
    out = []
    for m in modules:
        if not in_scope(m.path, HOT_PATH):
            continue
        sites = {(node.lineno, node.col_offset): node
                 for loop in m.nodes if isinstance(loop, _LOOPS)
                 for node in ast.walk(loop)
                 if isinstance(node, ast.Call)
                 and isinstance(node.func, ast.Attribute)
                 and node.func.attr == "astype"}
        out.extend(_finding("DT003", m, node,
                            ".astype inside a loop allocates a fresh copy "
                            "every iteration; convert once before the loop")
                   for node in sites.values())
    return out


# --------------------------------------------------------------------- #
# MUT001: kernels do not write into their callers' arrays
# --------------------------------------------------------------------- #

_VIEW_METHODS = {"reshape", "view", "ravel", "transpose", "swapaxes"}
_VIEW_FUNCS = {"numpy.asarray", "numpy.ascontiguousarray", "numpy.atleast_1d",
               "numpy.atleast_2d"}


def mut001(modules: list[Module]) -> list[Finding]:
    """In-place writes to an argument array, also through a simple alias
    (``flat = buf.reshape(...)``). A trailing-underscore function name
    (documented in-place semantics) and ``self``/``cls`` are exempt."""
    out = []
    for m in modules:
        if not in_scope(m.path, MUTATION_SCOPE):
            continue
        for fn in m.nodes:
            if (isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not fn.name.endswith("_")):
                out.extend(_argument_writes(m, fn))
    return out


def _argument_writes(m: Module, fn: ast.FunctionDef) -> list[Finding]:
    args = fn.args
    tracked = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
               if a.arg not in ("self", "cls")}
    if args.vararg:
        tracked.add(args.vararg.arg)
    out = []
    for node in ast.walk(fn) if tracked else ():
        if isinstance(node, ast.Assign):
            _track_alias(m, node, tracked)
            targets = [t for t in node.targets if isinstance(t, ast.Subscript)]
            op = "subscript assignment"
        elif isinstance(node, ast.AugAssign):
            targets, op = [node.target], "augmented assignment"
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Subscript):
                target = target.value
            if isinstance(target, ast.Name) and target.id in tracked:
                out.append(_finding(
                    "MUT001", m, node,
                    f"{op} writes into argument '{target.id}' in place; "
                    "return a new array, add a trailing underscore to the "
                    "function name, or suppress with a MUT001 noqa if "
                    "in-place is the contract"))
    return out


def _track_alias(m: Module, node: ast.Assign, tracked: set[str]) -> None:
    if len(node.targets) != 1 or not isinstance(node.targets[0], ast.Name):
        return
    target, value = node.targets[0].id, node.value
    root = None
    if isinstance(value, ast.Name):
        root = value
    elif isinstance(value, ast.Call):
        if (isinstance(value.func, ast.Attribute)
                and value.func.attr in _VIEW_METHODS):
            root = value.func.value
        elif value.args and m.resolve(value.func) in _VIEW_FUNCS:
            root = value.args[0]
    if isinstance(root, ast.Name) and root.id in tracked:
        tracked.add(target)
    else:
        tracked.discard(target)  # rebound to something unrelated


# --------------------------------------------------------------------- #
# Names in strings: the one resolver for metric, span and event names
# --------------------------------------------------------------------- #

def fstring_pattern(node: ast.JoinedStr) -> str | None:
    """``f"cache.{key}"`` -> ``cache.*``; ``None`` with no literal part."""
    if not any(isinstance(p, ast.Constant) and p.value for p in node.values):
        return None
    return "".join(p.value if isinstance(p, ast.Constant) else "*"
                   for p in node.values)


def pattern_to_regex(pattern: str) -> re.Pattern:
    """A ``*``-wildcard pattern as a full-match regex."""
    return re.compile(
        "".join(".*" if c == "*" else re.escape(c) for c in pattern) + r"\Z")


def class_literals(modules: list[Module]) -> dict[str, list[str]]:
    """Class-level ``NAME = "literal"`` values by attribute name."""
    literals: dict[str, list[str]] = {}
    for m in modules:
        for cls in m.nodes:
            for stmt in cls.body if isinstance(cls, ast.ClassDef) else ():
                if (isinstance(stmt, ast.Assign)
                        and isinstance(stmt.value, ast.Constant)
                        and isinstance(stmt.value.value, str)):
                    for target in stmt.targets:
                        if isinstance(target, ast.Name):
                            literals.setdefault(target.id, []).append(
                                stmt.value.value)
    return literals


def static_names(m: Module, arg: ast.AST,
                 literals: dict[str, list[str]]) -> list[str]:
    """The names a string argument can take, ``*`` marking the unknown.

    A literal is itself. An f-string is expanded over its interpolations
    when every one is the target of an enclosing dict comprehension over a
    literal tuple (``{k: reg.counter(f"x.{k}") for k in ("a", "b")}``) or
    an attribute naming class-level literals (``f"{self.site_prefix}.up"``);
    otherwise it is reduced to a pattern. Empty when nothing is static.
    """
    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
        return [arg.value]
    if not isinstance(arg, ast.JoinedStr):
        return []
    loop = _comprehension_literals(m, arg)
    pieces = []
    for piece in arg.values:
        if isinstance(piece, ast.Constant):
            pieces.append([piece.value])
            continue
        value = piece.value
        if isinstance(value, ast.Name) and value.id in loop:
            pieces.append(loop[value.id])
        elif isinstance(value, ast.Attribute) and value.attr in literals:
            pieces.append(literals[value.attr])
        else:
            pattern = fstring_pattern(arg)
            return [pattern] if pattern else []
    return ["".join(combo) for combo in product(*pieces)]


def _comprehension_literals(m: Module, node: ast.AST) -> dict[str, list[str]]:
    """``{target: values}`` of the dict comprehension enclosing ``node``
    within its statement, when it iterates one literal tuple/list."""
    while not isinstance(node, (ast.stmt, ast.DictComp)):
        node = m.parents.get(id(node))
        if node is None:
            return {}
    if not isinstance(node, ast.DictComp) or len(node.generators) != 1:
        return {}
    gen = node.generators[0]
    if not (isinstance(gen.target, ast.Name)
            and isinstance(gen.iter, (ast.Tuple, ast.List))
            and all(isinstance(e, ast.Constant) and isinstance(e.value, str)
                    for e in gen.iter.elts)):
        return {}
    return {gen.target.id: [e.value for e in gen.iter.elts]}


# --------------------------------------------------------------------- #
# IMP001: every import is read
# --------------------------------------------------------------------- #

def _exported(m: Module) -> set[str]:
    """The string entries of module-level ``__all__`` lists or tuples."""
    return {elt.value for node in m.tree.body if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets)
            and isinstance(node.value, (ast.List, ast.Tuple))
            for elt in node.value.elts
            if isinstance(elt, ast.Constant) and isinstance(elt.value, str)}


def imp001(modules: list[Module]) -> list[Finding]:
    """An imported name the module never reads and ``__all__`` does not
    list: dead weight that hides what a module really depends on."""
    out = []
    for m in modules:
        used = _exported(m) | {node.id for node in m.nodes
                               if isinstance(node, ast.Name)
                               and isinstance(node.ctx, ast.Load)}
        for node in m.nodes:
            if isinstance(node, ast.Import):
                names = [a.asname or a.name.split(".")[0] for a in node.names]
            elif (isinstance(node, ast.ImportFrom)
                  and node.module != "__future__"):
                names = [a.asname or a.name for a in node.names
                         if a.name != "*"]
            else:
                continue
            out.extend(_finding("IMP001", m, node,
                                f"'{name}' is imported but never read")
                       for name in names if name not in used)
    return out


# --------------------------------------------------------------------- #
# XMOD002: metric names written vs. read
# --------------------------------------------------------------------- #

_INSTRUMENT_METHODS = {"counter", "gauge", "histogram"}
_WRITE_ATTRS = {"inc", "set", "observe"}
_READ_ATTRS = {"value", "count", "total", "mean", "min", "max",
               "quantile", "summary", "bucket_counts", "bounds"}


@dataclass
class Registration:
    """One ``reg.counter/gauge/histogram(name)`` site and how it is used."""

    path: str
    node: ast.Call
    keys: list[str]
    written: bool = False
    read: bool = False


def _is_registry(m: Module, node: ast.AST) -> bool:
    if isinstance(node, ast.Call):
        dotted = m.resolve(node.func)
        return bool(dotted) and dotted.rsplit(".", 1)[-1] == "get_registry"
    dotted = m.resolve(node)
    if not dotted or dotted.startswith("numpy"):
        return False
    leaf = dotted.rsplit(".", 1)[-1].lower()
    return leaf == "reg" or "registry" in leaf


def registrations(m: Module,
                  literals: dict[str, list[str]]) -> list[Registration]:
    """The module's instrument registrations with their names and roles
    (``.inc``/``.set``/``.observe`` write; ``.value``/``.quantile``/...
    read), followed through local and ``self.`` bindings."""
    usage: dict[str, set[str]] = {}
    for node in m.nodes:
        if isinstance(node, ast.Attribute):
            base = node.value
            while isinstance(base, ast.Subscript):
                base = base.value
            key = _binding(base)
            if key:
                usage.setdefault(key, set()).add(node.attr)
    out = []
    for node in m.nodes:
        if not (isinstance(node, ast.Call) and node.args
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _INSTRUMENT_METHODS
                and _is_registry(m, node.func.value)):
            continue
        keys = static_names(m, node.args[0], literals)
        if not keys:
            continue
        reg = Registration(m.path, node, keys)
        parent = m.parents.get(id(node))
        if isinstance(parent, ast.Attribute):  # reg.counter("x").inc()
            reg.written = parent.attr in _WRITE_ATTRS
            reg.read = parent.attr in _READ_ATTRS
        else:
            while not isinstance(parent, ast.stmt) and parent is not None:
                parent = m.parents.get(id(parent))
            target = None
            if isinstance(parent, ast.Assign) and len(parent.targets) == 1:
                target = parent.targets[0]
            elif isinstance(parent, ast.AnnAssign):
                target = parent.target
            attrs = usage.get(_binding(target), set())
            reg.written = bool(attrs & _WRITE_ATTRS)
            reg.read = bool(attrs & _READ_ATTRS)
        out.append(reg)
    return out


def _binding(node: ast.AST | None) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "self"):
        return f"self.{node.attr}"
    return None


def _resets(m: Module):
    """(node, prefix) of every ``registry.reset("prefix")`` call."""
    for node in m.nodes:
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "reset"
                and _is_registry(m, node.func.value)):
            arg = node.args[0] if node.args else next(
                (kw.value for kw in node.keywords if kw.arg == "prefix"), None)
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                yield node, arg.value


def _matched(key: str, others: list[Registration]) -> bool:
    """Does a name or pattern meet any of ``others``' names/patterns?
    Two patterns meet when one literal prefix extends the other."""
    for ok in (ok for o in others for ok in o.keys):
        if "*" in key and "*" in ok:
            a, b = key.split("*")[0], ok.split("*")[0]
            hit = a.startswith(b) or b.startswith(a)
        elif "*" in key or "*" in ok:
            pattern, name = (key, ok) if "*" in key else (ok, key)
            hit = pattern_to_regex(pattern).match(name)
        else:
            hit = ok == key
        if hit:
            return True
    return False


def xmod002(modules: list[Module]) -> list[Finding]:
    """The registry is get-or-create, so a reader asking for a misspelled
    name gets a fresh zero. Reported: a name read but never written; a
    name written but never read nor mentioned in any other string
    (docstring, reconciler table, snapshot lookup); a ``reset(prefix)``
    matching no name."""
    literals = class_literals(modules)
    regs = [r for m in modules for r in registrations(m, literals)]
    if not regs:
        return []
    reg_sites = {(r.path, line) for r in regs
                 for line in (r.node.lineno, r.node.args[0].lineno)}
    writes = [r for r in regs if r.written or not r.read]
    reads = [r for r in regs if r.read]

    def mentioned(key: str) -> bool:
        needle = sorted((f.strip(".") for f in key.split("*")), key=len)[-1]
        return bool(needle) and any(needle in value
                   for m in modules for value, line in m.strings
                   if (m.path, line) not in reg_sites)

    out = [Finding("XMOD002", r.path, r.node.lineno,
                   f"metric '{key}' is read here but never written: the "
                   "registry hands back a fresh zero-valued instrument")
           for r in reads for key in r.keys if not _matched(key, writes)]
    warned: set[str] = set()
    for r in sorted(writes, key=lambda r: (r.path, r.node.lineno)):
        for key in [] if r.read else r.keys:
            if key in warned or _matched(key, reads) or mentioned(key):
                continue
            warned.add(key)
            out.append(Finding(
                "XMOD002", r.path, r.node.lineno,
                f"metric '{key}' is written but never read or mentioned "
                "anywhere else: dead telemetry or a misspelled reader"))
    for m in modules:
        for node, prefix in _resets(m):
            if not any(key.startswith(prefix)
                       or prefix.startswith(key.split("*")[0])
                       for r in regs for key in r.keys):
                out.append(_finding(
                    "XMOD002", m, node, f"registry.reset prefix '{prefix}' "
                    "matches no metric name: the reset is a no-op"))
    return out


# --------------------------------------------------------------------- #
# XMOD003: schema tags written vs. read
# --------------------------------------------------------------------- #

_TAG_RE = re.compile(r"repro\.[a-z0-9_.-]+/v\d+")
_SCHEMA_KEYS = ("schema", "$schema")


def _tag_of(m: Module, node: ast.AST, local: dict[str, str],
            consts: dict[str, str]) -> str | None:
    """The schema tag an expression denotes: a literal, or a constant
    resolved locally, by dotted import name, or by a unique suffix."""
    if isinstance(node, ast.Constant):
        ok = isinstance(node.value, str) and _TAG_RE.fullmatch(node.value)
        return node.value if ok else None
    dotted = m.resolve(node) if isinstance(node, (ast.Name, ast.Attribute)) \
        else None
    if not dotted:
        return None
    if dotted in local or dotted in consts:
        return local.get(dotted) or consts[dotted]
    hits = {v for k, v in consts.items() if k.endswith("." + dotted)}
    return hits.pop() if len(hits) == 1 else None


def _docstrings(m: Module) -> set[int]:
    return {id(node.body[0].value) for node in m.nodes
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef))
            and node.body and isinstance(node.body[0], ast.Expr)
            and isinstance(node.body[0].value, ast.Constant)
            and isinstance(node.body[0].value.value, str)}


def xmod003(modules: list[Module]) -> list[Finding]:
    """A ``repro.<name>/vN`` tag stamped under a ``"schema"`` key that no
    comparison ever reads leaves the artefact unvalidated; one tag base
    at two versions means writer and reader were bumped out of lockstep
    (reported at each minority occurrence)."""
    consts = {f"{m.name}.{target.id}": node.value.value
              for m in modules for node in m.nodes
              if isinstance(node, ast.Assign)
              and isinstance(node.value, ast.Constant)
              and isinstance(node.value.value, str)
              and _TAG_RE.fullmatch(node.value.value)
              for target in node.targets if isinstance(target, ast.Name)}
    writers: dict[str, list[Finding]] = {}
    readers: set[str] = set()
    versions: dict[str, list[tuple[str, Finding]]] = {}
    for m in modules:
        local = {k.rsplit(".", 1)[-1]: v for k, v in consts.items()
                 if k.startswith(m.name + ".")}
        docs = _docstrings(m)
        for node in m.nodes:
            written = []
            if isinstance(node, ast.Dict):
                written = [v for k, v in zip(node.keys, node.values)
                           if isinstance(k, ast.Constant)
                           and k.value in _SCHEMA_KEYS]
            elif isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Subscript)
                    and isinstance(t.slice, ast.Constant)
                    and t.slice.value in _SCHEMA_KEYS for t in node.targets):
                written = [node.value]
            for value in written:
                tag = _tag_of(m, value, local, consts)
                if tag:
                    writers.setdefault(tag, []).append(
                        Finding("XMOD003", m.path, value.lineno, tag))
            if isinstance(node, ast.Compare):
                operands = [node.left]
                for c in node.comparators:
                    multi = isinstance(c, (ast.Tuple, ast.List, ast.Set))
                    operands.extend(c.elts if multi else [c])
                readers.update(_tag_of(m, op, local, consts)
                               for op in operands)
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and id(node) not in docs):
                for match in _TAG_RE.finditer(node.value):
                    base, _, version = match.group(0).rpartition("/")
                    versions.setdefault(base, []).append(
                        (version, Finding("XMOD003", m.path, node.lineno, "")))

    out = [min(sites, key=lambda f: (f.path, f.line))._replace(
               message=f"schema tag '{tag}' is written here but no reader "
                       "compares a record against it")
           for tag, sites in sorted(writers.items()) if tag not in readers]
    for base, sites in sorted(versions.items()):
        seen = [v for v, _ in sites]
        canonical = max(set(seen), key=lambda v: (seen.count(v), v))
        out.extend(f._replace(message=f"schema tag '{base}/{v}' disagrees "
                                      f"with the prevailing '{canonical}'")
                   for v, f in sites if v != canonical)
    return out


# --------------------------------------------------------------------- #
# XMOD004: state literals assigned vs. dispatched on
# --------------------------------------------------------------------- #

def _literals(node: ast.AST) -> set[str]:
    """String literals an expression can evaluate to (best effort)."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return {node.value}
    if isinstance(node, ast.IfExp):
        return _literals(node.body) | _literals(node.orelse)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
        return _literals(node.left) | _literals(node.right)
    if isinstance(node, (ast.List, ast.Tuple, ast.Set, ast.Dict)):
        elts = node.values if isinstance(node, ast.Dict) else node.elts
        return set().union(*map(_literals, elts))
    return set()


def _family(node: ast.AST) -> str | None:
    while isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute) and node.attr in STATE_ATTRS:
        return node.attr
    if isinstance(node, ast.Name) and node.id in STATE_ATTRS:
        return node.id
    return None


def _productions(m: Module):
    """(family, literal, node): ``self.state = "up"``, and literals that
    reach the attribute through a local (``self.state = to`` in a function
    that compares or assigns ``to`` a literal)."""
    for node in m.nodes:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value:
            targets = getattr(node, "targets", None) or [node.target]
            for family in filter(None, map(_family, targets)):
                for literal in sorted(_literals(node.value)):
                    yield family, literal, node.value
    for fn in m.nodes:
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        feeders = {node.value.id: family for node in ast.walk(fn)
                   if isinstance(node, ast.Assign)
                   and isinstance(node.value, ast.Name)
                   for family in map(_family, node.targets) if family}
        for node in ast.walk(fn) if feeders else ():
            if isinstance(node, ast.Compare):
                sides = [node.left, *node.comparators]
                hit = [s.id for s in sides
                       if isinstance(s, ast.Name) and s.id in feeders]
                for side in sides if hit else ():
                    for literal in sorted(_literals(side)):
                        for name in hit:
                            yield feeders[name], literal, node
            elif isinstance(node, ast.Assign):
                for t in node.targets:
                    if isinstance(t, ast.Name) and t.id in feeders:
                        for literal in sorted(_literals(node.value)):
                            yield feeders[t.id], literal, node


def _consumptions(m: Module):
    """(family, literal, node) for every comparison against a state."""
    for node in m.nodes:
        if not isinstance(node, ast.Compare):
            continue
        sides = [node.left, *node.comparators]
        families = [_family(s) for s in sides]
        for side, family in zip(sides, families):
            if family is None:
                for other in filter(None, families):
                    for literal in sorted(_literals(side)):
                        yield other, literal, node


def _chain(node: ast.If) -> tuple[str | None, set[str], bool]:
    """Follow a pure ``state == "literal"`` if/elif chain: (family,
    covered literals, ends in ``else``); family ``None`` when a condition
    is anything else."""
    family, covered = None, set()
    while True:
        test = node.test
        if not (isinstance(test, ast.Compare) and len(test.ops) == 1
                and isinstance(test.ops[0], ast.Eq)):
            return None, covered, False
        left, right = _family(test.left), test.comparators[0]
        if (left is None or family not in (None, left)
                or not isinstance(right, ast.Constant)
                or not isinstance(right.value, str)):
            return None, covered, False
        family = left
        covered.add(right.value)
        if not node.orelse:
            return family, covered, False
        if len(node.orelse) == 1 and isinstance(node.orelse[0], ast.If):
            node = node.orelse[0]
            continue
        return family, covered, True


def xmod004(modules: list[Module]) -> list[Finding]:
    """State strings are pooled tree-wide per attribute family; inside
    :data:`STATE_SCOPE` a comparison against a never-assigned state (dead
    branch), an assigned state nothing compares against (unhandled), and
    an if/elif chain of two or more branches with no ``else`` missing some
    assigned states are reported."""
    produced: dict[str, set[str]] = {}
    consumed: dict[str, set[str]] = {}
    productions, consumptions = [], []
    for m in modules:
        scoped = in_scope(m.path, STATE_SCOPE)
        for family, value, node in _productions(m):
            produced.setdefault(family, set()).add(value)
            if scoped:
                productions.append((m, family, value, node))
        for family, value, node in _consumptions(m):
            consumed.setdefault(family, set()).add(value)
            if scoped:
                consumptions.append((m, family, value, node))
    if not produced:
        return []

    out = []
    for m, family, value, node in consumptions:
        pool = produced.get(family, set())
        if pool and value not in pool:
            out.append(_finding(
                "XMOD004", m, node,
                f"comparison against {family} '{value}' which is never "
                f"assigned (known: {', '.join(sorted(pool))}): dead branch"))
    reported = set()
    for m, family, value, node in productions:
        if value not in consumed.get(family, set()) \
                and (family, value) not in reported:
            reported.add((family, value))
            out.append(_finding(
                "XMOD004", m, node,
                f"{family} '{value}' is assigned here but nothing compares "
                "against it: the state is unhandled"))
    for m in modules:
        if not in_scope(m.path, STATE_SCOPE):
            continue
        elifs = {id(n.orelse[0]) for n in m.nodes
                 if isinstance(n, ast.If) and len(n.orelse) == 1
                 and isinstance(n.orelse[0], ast.If)}
        for node in m.nodes:
            if not isinstance(node, ast.If) or id(node) in elifs:
                continue
            family, covered, closed = _chain(node)
            missing = produced.get(family, set()) - covered
            # A lone `if x.state == ...` is a guard, not a dispatcher.
            if family and not closed and len(covered) >= 2 and missing:
                out.append(_finding(
                    "XMOD004", m, node,
                    f"if/elif chain over '{family}' has no else and does "
                    f"not handle: {', '.join(sorted(missing))}"))
    return out


CHECKS = (dt001, dt002, dt003, mut001, imp001, xmod002, xmod003, xmod004)
