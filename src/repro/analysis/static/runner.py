"""Runs ``repro lint``: file walking, one parse per file, formatting.

The runner builds one :class:`~repro.analysis.static.graph.ProjectGraph`
over the linted files *plus* the configured ``graph_roots`` (default
``src`` and ``benchmarks``), so linting a subtree still sees the
registries and readers that live elsewhere. Every file is parsed once,
under one normalised path (relative to the working directory when it is
under it), whether it was named by a linted path, a graph root, or both.
Each selected rule then runs in its layer:

- ``check(ctx)`` on every linted file's context (the per-file rules);
- ``check_project(graph)`` once on the graph (the XMOD passes), whose
  findings are only reported for files actually being linted.

Findings carry a severity: errors fail the run, warnings are reported
but leave the exit code at 0.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.static.core import Finding, LintConfig, all_rules
from repro.analysis.static.graph import build_graph

__all__ = [
    "LintConfig",
    "LintReport",
    "lint_paths",
    "format_text",
    "format_json",
    "validate_report",
]

SCHEMA = "repro.lint/v2"

# Directory names never descended into.
EXCLUDE = ("__pycache__", ".git", "build", "dist", ".eggs")


@dataclass
class LintReport:
    """Findings plus the bookkeeping the CLI needs for exit codes."""

    findings: list[Finding]
    files_checked: int
    suppressed: int
    parse_errors: list[tuple[str, str]] = field(default_factory=list)

    @property
    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == "error"]

    @property
    def warnings(self) -> list[Finding]:
        return [f for f in self.findings if f.severity != "error"]

    @property
    def ok(self) -> bool:
        """No error-severity findings and no parse errors (warnings pass)."""
        return not self.errors and not self.parse_errors


def _normalise(path: Path) -> Path:
    """One spelling per file: cwd-relative when under cwd, else absolute."""
    path = Path(os.path.abspath(path))
    try:
        return path.relative_to(Path.cwd())
    except ValueError:
        return path


def _iter_python_files(paths: list[str | Path]) -> list[Path]:
    files: list[Path] = []
    for entry in paths:
        p = Path(entry)
        if p.is_file():
            if p.suffix == ".py":
                files.append(_normalise(p))
            continue
        if not p.is_dir():
            raise FileNotFoundError(f"lint path does not exist: {p}")
        for sub in sorted(p.rglob("*.py")):
            if any(part in EXCLUDE or (part.startswith(".")
                                       and part not in (".", ".."))
                   for part in sub.parts):
                continue
            files.append(_normalise(sub))
    # Deterministic order and no duplicates even with overlapping roots.
    return list(dict.fromkeys(files))


def lint_paths(paths: list[str | Path], *,
               config: LintConfig | None = None) -> LintReport:
    """Run every selected rule over ``paths``."""
    config = config or LintConfig()
    registry = all_rules()
    selected = set(config.select or registry) - set(config.ignore)
    unknown = selected - set(registry)
    if unknown:
        raise ValueError(
            "unknown rule id(s) in select/ignore: " + ", ".join(sorted(unknown)))
    rules = [cls(config=config)
             for rid, cls in sorted(registry.items()) if rid in selected]

    files = _iter_python_files(paths)
    roots = [r for r in config.graph_roots if Path(r).is_dir()]
    graph = build_graph(files + _iter_python_files(roots))
    lint_set = {f.as_posix() for f in files}

    raw: list[Finding] = []
    for path in sorted(lint_set & set(graph.modules)):
        for rule in rules:
            raw.extend(rule.check(graph.modules[path].ctx))
    for rule in rules:
        raw.extend(f for f in rule.check_project(graph) if f.path in lint_set)

    findings = [f for f in raw
                if not graph.modules[f.path].ctx.suppressed(f.rule, f.line)]
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return LintReport(
        findings=findings, files_checked=len(files),
        suppressed=len(raw) - len(findings),
        parse_errors=[(p, e) for p, e in graph.parse_errors if p in lint_set])


def format_text(report: LintReport) -> str:
    lines = []
    for f in report.findings:
        tag = f"{f.rule} warning:" if f.severity != "error" else f.rule
        lines.append(f"{f.path}:{f.line}:{f.col}: {tag} {f.message}")
    for path, err in report.parse_errors:
        lines.append(f"{path}: PARSE-ERROR {err}")
    lines.append(
        f"{len(report.findings)} finding(s)"
        f" [{len(report.errors)} error(s), {len(report.warnings)}"
        f" warning(s)] in {report.files_checked} file(s)"
        f" ({report.suppressed} suppressed)"
    )
    return "\n".join(lines)


def format_json(report: LintReport) -> str:
    payload = {
        "schema": SCHEMA,
        "files_checked": report.files_checked,
        "suppressed": report.suppressed,
        "errors": len(report.errors),
        "warnings": len(report.warnings),
        "rules": {rid: cls.summary
                  for rid, cls in sorted(all_rules().items())},
        "findings": [f.to_dict() for f in report.findings],
        "parse_errors": [{"path": p, "error": e} for p, e in report.parse_errors],
    }
    return json.dumps(payload, indent=2)


def validate_report(payload: dict) -> None:
    """Raise ``ValueError`` unless ``payload`` is a valid lint report."""
    if payload.get("schema") != SCHEMA:
        raise ValueError(f"expected schema {SCHEMA}, got {payload.get('schema')!r}")
    for key in ("files_checked", "suppressed", "findings"):
        if key not in payload:
            raise ValueError(f"missing key {key!r}")
    for f in payload["findings"]:
        for key in ("rule", "path", "line", "col", "message"):
            if key not in f:
                raise ValueError(f"finding missing key {key!r}: {f}")
        if not isinstance(f["line"], int) or f["line"] < 1:
            raise ValueError(f"finding has invalid line: {f}")
        if f.get("severity", "error") not in ("error", "warning"):
            raise ValueError(f"finding has invalid severity: {f}")
