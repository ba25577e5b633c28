"""Whole-program project graph for the cross-module contract passes.

``repro lint``'s per-file rules see one AST at a time, which is exactly
why stringly-typed contracts (metric names, schema tags, state literals)
can drift: the writer and the reader live in different files. The
:class:`ProjectGraph` parses every analyzed file once — the runner's
per-file rules read the same :class:`~repro.analysis.static.core.
FileContext` — and adds the two whole-program views the XMOD passes
consume:

- **module naming** — each file gets a dotted module name with any
  leading ``src``/``site-packages`` layout stripped, so a tag constant
  is known by the name other modules import it under;
- **a string index** — every string literal with its AST location, plus
  f-strings reduced to match patterns (literal fragments kept,
  interpolations wildcarded), so name-contract passes never re-walk
  the forest.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path

from repro.analysis.static.core import FileContext

__all__ = [
    "ModuleInfo",
    "ProjectGraph",
    "build_graph",
    "StringLit",
    "fstring_pattern",
    "pattern_to_regex",
]

_STRIP_ROOTS = ("src", "site-packages")


def module_name_for(path: str) -> str:
    """Dotted module name for a file path, project layout stripped.

    ``src/repro/tt/planner.py`` -> ``repro.tt.planner``;
    ``pkg/__init__.py`` -> ``pkg``. Paths without a recognized layout
    root keep every component, and imports resolve by suffix match.
    """
    parts = list(Path(path).with_suffix("").parts)
    for root in _STRIP_ROOTS:
        if root in parts:
            parts = parts[len(parts) - parts[::-1].index(root):]
    parts = [p for p in parts if p not in ("/", "")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(p for p in parts if p)


@dataclass
class StringLit:
    """One string literal (or f-string pattern) with its location."""

    value: str
    path: str
    line: int
    col: int
    is_pattern: bool = False  # True when wildcards came from an f-string


def fstring_pattern(node: ast.JoinedStr) -> str | None:
    """Reduce an f-string to a match pattern (``*`` per interpolation).

    ``f"cache.{key}"`` -> ``cache.*``; returns ``None`` when the
    f-string has no literal fragment at all (nothing to match on).
    """
    parts: list[str] = []
    has_literal = False
    for piece in node.values:
        if isinstance(piece, ast.Constant) and isinstance(piece.value, str):
            parts.append(piece.value)
            has_literal = has_literal or bool(piece.value)
        else:
            parts.append("*")
    return "".join(parts) if has_literal else None


def pattern_to_regex(pattern: str) -> re.Pattern:
    """Compile a ``*``-wildcard pattern to a full-match regex."""
    return re.compile(
        "".join(".*" if c == "*" else re.escape(c) for c in pattern) + r"\Z"
    )


def expand_comprehension_fstring(call: ast.Call,
                                 comp: ast.DictComp | None) -> list[str]:
    """Expand ``{k: reg.counter(f"x.{k}") for k in ("a", "b")}`` names.

    Returns the concrete metric names when the f-string's only
    interpolation is the comprehension target iterated over a literal
    tuple/list of strings; empty list when not statically expandable.
    """
    if comp is None or len(comp.generators) != 1 or not call.args:
        return []
    gen = comp.generators[0]
    if not isinstance(gen.target, ast.Name):
        return []
    if not isinstance(gen.iter, (ast.Tuple, ast.List)):
        return []
    values = []
    for elt in gen.iter.elts:
        if not (isinstance(elt, ast.Constant) and isinstance(elt.value, str)):
            return []
        values.append(elt.value)
    fstr = call.args[0]
    if not isinstance(fstr, ast.JoinedStr):
        return []
    out = []
    for v in values:
        parts = []
        for piece in fstr.values:
            if isinstance(piece, ast.Constant):
                parts.append(str(piece.value))
            elif (isinstance(piece, ast.FormattedValue)
                  and isinstance(piece.value, ast.Name)
                  and piece.value.id == gen.target.id):
                parts.append(v)
            else:
                return []
        out.append("".join(parts))
    return out


class ModuleInfo:
    """One parsed file: its context, module name and string literals."""

    def __init__(self, path: str, ctx: FileContext):
        self.path = path
        self.ctx = ctx
        self.name = module_name_for(path)
        self.strings: list[StringLit] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                self.strings.append(StringLit(
                    node.value, path, node.lineno, node.col_offset))
            elif isinstance(node, ast.JoinedStr):
                pattern = fstring_pattern(node)
                if pattern is not None:
                    self.strings.append(StringLit(
                        pattern, path, node.lineno, node.col_offset,
                        is_pattern=True))


class ProjectGraph:
    """Every analyzed file parsed once, keyed by its POSIX path."""

    def __init__(self):
        self.modules: dict[str, ModuleInfo] = {}
        self.parse_errors: list[tuple[str, str]] = []

    def add_file(self, path: Path) -> None:
        posix = path.as_posix()
        if posix in self.modules:
            return
        try:
            ctx = FileContext(posix, path.read_text(encoding="utf-8"))
        except (SyntaxError, UnicodeDecodeError) as exc:
            self.parse_errors.append((posix, str(exc)))
            return
        self.modules[posix] = ModuleInfo(posix, ctx)

    def iter_modules(self) -> list[ModuleInfo]:
        return [self.modules[p] for p in sorted(self.modules)]


def build_graph(files: list[Path]) -> ProjectGraph:
    """Parse ``files`` (each once, duplicates skipped) into a graph."""
    graph = ProjectGraph()
    for f in files:
        graph.add_file(Path(f))
    return graph
