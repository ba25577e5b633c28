"""XMOD003: JSONL schema-tag consistency between writers and readers."""

from __future__ import annotations

import ast
import re

from repro.analysis.static.core import Finding, Rule, register
from repro.analysis.static.graph import ModuleInfo, ProjectGraph

# A versioned artifact tag: "repro.<name>/v<N>".
_TAG_RE = re.compile(r"repro\.[a-z0-9_.-]+/v\d+")


def _split_tag(tag: str) -> tuple[str, str]:
    base, _, version = tag.rpartition("/")
    return base, version


@register
class SchemaTagDriftPass(Rule):
    """XMOD003: every versioned artifact writer has a reader; versions agree.

    Rationale: JSONL artifacts are stamped with a ``.../vN`` schema tag
    precisely so that readers can refuse records from a different
    contract generation. A writer whose tag no reader ever compares
    against is an unvalidated artifact — a schema bump would go
    unnoticed until a downstream consumer mis-parses it. And the same
    tag base appearing with two different versions means a writer and a
    reader were bumped out of lockstep. The pass collects tag constants
    and inline tag literals across the project graph, classifies each
    use as a **writer** (dict literal or subscript-assign under a
    ``schema`` key) or a **reader** (comparison against the tag), and
    reports: a written tag with no reader anywhere is an **error**; a
    tag base whose occurrences disagree on version is an **error** at
    each minority occurrence. Readers without in-repo writers are fine
    (the artifact may be produced out of process).

    Bad::

        SCHEMA = "example.artifact/v2"          # writer bumped...
        json.dump({"schema": SCHEMA, ...}, fh)
        # reader elsewhere still checks "example.artifact/v1"

    Good::

        SCHEMA = "example.artifact/v2"
        json.dump({"schema": SCHEMA, ...}, fh)
        # reader: if rec.get("schema") != SCHEMA: raise ValueError(...)
    """

    id = "XMOD003"
    summary = "JSONL schema-tag drift between artifact writers and readers"

    def check_project(self, graph: ProjectGraph) -> list[Finding]:
        global_consts: dict[str, str] = {}
        for info in graph.iter_modules():
            for name, tag in self._tag_constants(info):
                global_consts[f"{info.name}.{name}"] = tag

        writers: dict[str, list[tuple[str, ast.AST]]] = {}
        readers: dict[str, list[tuple[str, ast.AST]]] = {}
        occurrences: dict[str, list[tuple[str, str, ast.AST]]] = {}
        for info in graph.iter_modules():
            local = {k.rsplit(".", 1)[-1]: v
                     for k, v in global_consts.items()
                     if k.startswith(info.name + ".")}
            for tag, node in self._writer_sites(info, local, global_consts):
                writers.setdefault(tag, []).append((info.path, node))
            for tag, node in self._reader_sites(info, local, global_consts):
                readers.setdefault(tag, []).append((info.path, node))
            for tag, node in self._tag_occurrences(info):
                base, version = _split_tag(tag)
                occurrences.setdefault(base, []).append(
                    (version, info.path, node))

        out: list[Finding] = []
        for tag in sorted(writers):
            if tag in readers:
                continue
            path, node = min(writers[tag],
                             key=lambda s: (s[0], s[1].lineno))
            out.append(self.finding(
                path, node,
                f"schema tag '{tag}' is written here but no reader ever "
                "compares a record against it: the artifact is unvalidated "
                "and a version bump would go unnoticed",
            ))

        for base in sorted(occurrences):
            sites = occurrences[base]
            versions = sorted({v for v, _, _ in sites})
            if len(versions) < 2:
                continue
            counts = {v: sum(1 for sv, _, _ in sites if sv == v)
                      for v in versions}
            canonical = max(versions, key=lambda v: (counts[v], v))
            for version, path, node in sites:
                if version == canonical:
                    continue
                out.append(self.finding(
                    path, node,
                    f"schema tag '{base}/{version}' disagrees with the "
                    f"prevailing '{base}/{canonical}' used elsewhere: "
                    "writer and reader were bumped out of lockstep",
                ))
        return out

    # ------------------------------------------------------------------ #
    # Extraction
    # ------------------------------------------------------------------ #

    @staticmethod
    def _tag_constants(info: ModuleInfo):
        """Module-level ``NAME = "repro.x/vN"`` constant definitions."""
        for node in ast.walk(info.ctx.tree):
            if not isinstance(node, ast.Assign):
                continue
            if not (isinstance(node.value, ast.Constant)
                    and isinstance(node.value.value, str)
                    and _TAG_RE.fullmatch(node.value.value)):
                continue
            for target in node.targets:
                if isinstance(target, ast.Name):
                    yield target.id, node.value.value

    @staticmethod
    def _docstring_nodes(tree: ast.Module) -> set[int]:
        doc_ids: set[int] = set()
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Module, ast.ClassDef,
                                     ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            body = getattr(node, "body", [])
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                doc_ids.add(id(body[0].value))
        return doc_ids

    def _tag_occurrences(self, info: ModuleInfo):
        """Every tag literal in string constants, docstrings excluded."""
        doc_ids = self._docstring_nodes(info.ctx.tree)
        for node in ast.walk(info.ctx.tree):
            if not (isinstance(node, ast.Constant)
                    and isinstance(node.value, str)):
                continue
            if id(node) in doc_ids:
                continue
            for match in _TAG_RE.finditer(node.value):
                yield match.group(0), node

    def _tag_of(self, node: ast.AST, info: ModuleInfo,
                local: dict[str, str],
                global_consts: dict[str, str]) -> str | None:
        """Resolve an expression to a schema tag, if it denotes one."""
        if isinstance(node, ast.Constant):
            if (isinstance(node.value, str)
                    and _TAG_RE.fullmatch(node.value)):
                return node.value
            return None
        if not isinstance(node, (ast.Name, ast.Attribute)):
            return None
        dotted = info.ctx.resolve(node)
        if not dotted:
            return None
        if dotted in local:
            return local[dotted]
        if dotted in global_consts:
            return global_consts[dotted]
        suffix_hits = sorted(
            v for k, v in global_consts.items()
            if k.endswith("." + dotted)
        )
        if len(set(suffix_hits)) == 1:
            return suffix_hits[0]
        return None

    def _writer_sites(self, info: ModuleInfo, local: dict[str, str],
                      global_consts: dict[str, str]):
        """Dict literals and subscript assigns stamping a schema key."""
        for node in ast.walk(info.ctx.tree):
            if isinstance(node, ast.Dict):
                for key, value in zip(node.keys, node.values):
                    if not (isinstance(key, ast.Constant)
                            and key.value in ("schema", "$schema")):
                        continue
                    tag = self._tag_of(value, info, local, global_consts)
                    if tag:
                        yield tag, value
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if not (isinstance(target, ast.Subscript)
                            and isinstance(target.slice, ast.Constant)
                            and target.slice.value in ("schema", "$schema")):
                        continue
                    tag = self._tag_of(node.value, info, local,
                                       global_consts)
                    if tag:
                        yield tag, node.value

    def _reader_sites(self, info: ModuleInfo, local: dict[str, str],
                      global_consts: dict[str, str]):
        """Comparisons whose operands resolve to a schema tag."""
        for node in ast.walk(info.ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands: list[ast.AST] = [node.left]
            for comp in node.comparators:
                if isinstance(comp, (ast.Tuple, ast.List, ast.Set)):
                    operands.extend(comp.elts)
                else:
                    operands.append(comp)
            for operand in operands:
                tag = self._tag_of(operand, info, local, global_consts)
                if tag:
                    yield tag, operand
