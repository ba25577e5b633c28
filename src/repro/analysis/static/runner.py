"""Driver for ``repro lint``: config, file walking, baselines, formatting.

Configuration lives under ``[tool.repro.lint]`` in ``pyproject.toml``
(parsed with :mod:`tomllib` when available — Python 3.11+ — and falling
back to built-in defaults otherwise, so the linter works on 3.10 CI
runners too). A baseline file (``--baseline``) holds ``path:line:RULE``
keys for grandfathered findings; the repo itself ships none — ``repro
lint src/`` must exit 0 with an empty baseline.

Two layers run per invocation:

- the **per-file rules** (:mod:`repro.analysis.static.rules`), one AST
  at a time;
- the **cross-module contract passes** (XMOD*, under
  :mod:`repro.analysis.static.passes`), which consume a
  :class:`~repro.analysis.static.graph.ProjectGraph` built over the
  linted files *plus* the configured ``graph-roots`` (default ``src``
  and ``benchmarks``), so linting a subtree still sees the registries
  and readers that live elsewhere. Pass findings are only reported for
  files actually being linted.

Findings carry a severity: errors fail the run, warnings are reported
but leave the exit code at 0. ``--diff-base REF`` further restricts the
report to findings on lines changed since ``REF``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.static.contracts import all_passes
from repro.analysis.static.core import FileContext, Finding, all_rules
from repro.analysis.static.graph import build_graph

__all__ = [
    "LintConfig",
    "LintReport",
    "lint_paths",
    "load_config",
    "format_text",
    "format_json",
    "load_baseline",
    "write_baseline",
]

SCHEMA = "repro.lint/v1"
BASELINE_SCHEMA = "repro.lint.baseline/v1"

_DEFAULT_CONFIG = {
    "hot_path": ["repro/tt", "repro/ops", "repro/cache", "repro/baselines",
                 "repro/compress"],
    "rng_allowed": ["repro/utils/seeding.py"],
    "clock_exempt": ["repro/bench"],
    "mutation_scope": ["repro/tt/kernels.py", "repro/cache"],
    "process_scope": ["repro/runtime", "repro/sharding", "repro/distributed"],
    "exclude": ["__pycache__", ".git", "build", "dist", ".eggs"],
    "fault_registry": ["repro/reliability/fault_injection.py"],
    "state_scope": ["repro/runtime", "repro/sharding", "repro/distributed"],
    "state_attrs": ["state", "verdict"],
    "graph_roots": ["src", "benchmarks"],
}


def _default(key: str):
    return field(default_factory=lambda: list(_DEFAULT_CONFIG[key]))


@dataclass
class LintConfig:
    """Resolved lint configuration (defaults overlaid with pyproject)."""

    hot_path: list[str] = _default("hot_path")
    rng_allowed: list[str] = _default("rng_allowed")
    clock_exempt: list[str] = _default("clock_exempt")
    mutation_scope: list[str] = _default("mutation_scope")
    process_scope: list[str] = _default("process_scope")
    exclude: list[str] = _default("exclude")
    fault_registry: list[str] = _default("fault_registry")
    state_scope: list[str] = _default("state_scope")
    state_attrs: list[str] = _default("state_attrs")
    graph_roots: list[str] = _default("graph_roots")
    select: list[str] = field(default_factory=list)
    ignore: list[str] = field(default_factory=list)
    config_dir: str | None = None  # where pyproject.toml was found

    def as_rule_config(self) -> dict:
        return {
            "hot_path": self.hot_path,
            "rng_allowed": self.rng_allowed,
            "clock_exempt": self.clock_exempt,
            "mutation_scope": self.mutation_scope,
            "process_scope": self.process_scope,
            "fault_registry": self.fault_registry,
            "state_scope": self.state_scope,
            "state_attrs": self.state_attrs,
        }


def load_config(pyproject: str | Path | None = None) -> LintConfig:
    """Read ``[tool.repro.lint]``; missing file/section/parser -> defaults.

    TOML keys use dashes (``hot-path``); they map onto the underscored
    dataclass fields.
    """
    cfg = LintConfig()
    if pyproject is None:
        pyproject = _find_pyproject()
    if pyproject is None:
        return cfg
    try:
        import tomllib
    except ImportError:  # Python < 3.11
        return cfg
    path = Path(pyproject)
    if not path.is_file():
        return cfg
    cfg.config_dir = path.parent.as_posix()
    try:
        data = tomllib.loads(path.read_text(encoding="utf-8"))
    except tomllib.TOMLDecodeError:
        return cfg
    section = data.get("tool", {}).get("repro", {}).get("lint", {})
    for key, value in section.items():
        attr = key.replace("-", "_")
        if hasattr(cfg, attr) and isinstance(value, list):
            setattr(cfg, attr, [str(v) for v in value])
    return cfg


def _find_pyproject() -> Path | None:
    for parent in [Path.cwd(), *Path.cwd().parents]:
        candidate = parent / "pyproject.toml"
        if candidate.is_file():
            return candidate
    return None


@dataclass
class LintReport:
    """Findings plus the bookkeeping the CLI needs for exit codes."""

    findings: list[Finding]
    files_checked: int
    suppressed: int
    baselined: int
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


def _iter_python_files(paths: list[str | Path],
                       exclude: list[str]) -> list[Path]:
    files: list[Path] = []
    for entry in paths:
        p = Path(entry)
        if p.is_file():
            if p.suffix == ".py":
                files.append(p)
            continue
        if not p.is_dir():
            raise FileNotFoundError(f"lint path does not exist: {p}")
        for sub in sorted(p.rglob("*.py")):
            parts = set(sub.parts)
            if any(e in parts for e in exclude):
                continue
            if any(part.startswith(".") and part not in (".", "..")
                   for part in sub.parts):
                continue
            files.append(sub)
    # Deterministic order and no duplicates even with overlapping roots.
    unique: dict[str, Path] = {}
    for f in files:
        unique.setdefault(f.as_posix(), f)
    return list(unique.values())


def load_baseline(path: str | Path) -> set[str]:
    """Read a baseline file, validating its schema tag.

    A baseline whose tag is missing or from a different generation is a
    hard error — silently treating it as empty would un-grandfather
    every finding (or worse, keep stale keys alive).
    """
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    schema = data.get("schema")
    if schema != BASELINE_SCHEMA:
        raise ValueError(
            f"{Path(path).as_posix()}: expected schema {BASELINE_SCHEMA}, "
            f"got {schema!r}")
    keys = data.get("keys")
    if not isinstance(keys, list):
        raise ValueError(f"{Path(path).as_posix()}: 'keys' must be a list")
    return {str(k) for k in keys}


def _known_ids() -> set[str]:
    return set(all_rules()) | set(all_passes())


def _noqa_findings(ctx: FileContext, known: set[str]) -> list[Finding]:
    """NOQA001: targeted suppressions naming ids that do not exist."""
    out = []
    for line in sorted(ctx.noqa_ids):
        for rid in ctx.noqa_ids[line]:
            if rid in known:
                continue
            out.append(Finding(
                rule="NOQA001", path=ctx.path, line=line, col=0,
                message=(
                    f"noqa comment names unknown rule id '{rid}': the "
                    "suppression is dead — fix the id or drop it"
                ),
            ))
    return out


def lint_paths(paths: list[str | Path], *, config: LintConfig | None = None,
               baseline: str | Path | None = None,
               changed: dict[str, set[int]] | None = None) -> LintReport:
    """Run every selected rule and contract pass over ``paths``.

    ``changed`` (path -> changed line numbers, from
    :func:`repro.analysis.static.diff.changed_lines`) restricts reported
    findings to changed lines; suppression and baselining are applied
    first so the counts stay meaningful.
    """
    config = config or load_config()
    rule_classes = all_rules()
    pass_classes = all_passes()
    known = set(rule_classes) | set(pass_classes)
    selected = set(config.select or known) - set(config.ignore)
    unknown_selected = selected - known
    if unknown_selected:
        raise ValueError(
            "unknown rule id(s) in select/ignore: "
            + ", ".join(sorted(unknown_selected)))
    rules = [cls(config=config.as_rule_config())
             for rid, cls in sorted(rule_classes.items()) if rid in selected]

    baseline_keys: set[str] = set()
    if baseline is not None and Path(baseline).is_file():
        baseline_keys = load_baseline(baseline)

    findings: list[Finding] = []
    suppressed = 0
    baselined = 0
    parse_errors: list[tuple[str, str]] = []
    files = _iter_python_files(paths, config.exclude)
    lint_set = {f.as_posix() for f in files}

    def admit(finding: Finding, ctx: FileContext | None) -> None:
        nonlocal suppressed, baselined
        if ctx is not None and ctx.suppressed(finding.rule, finding.line):
            suppressed += 1
        elif finding.key() in baseline_keys:
            baselined += 1
        else:
            findings.append(finding)

    contexts: dict[str, FileContext] = {}
    for path in files:
        try:
            ctx = FileContext(path.as_posix(),
                              path.read_text(encoding="utf-8"))
        except (SyntaxError, UnicodeDecodeError) as exc:
            parse_errors.append((path.as_posix(), str(exc)))
            continue
        contexts[ctx.path] = ctx
        for rule in rules:
            for finding in rule.check(ctx):
                admit(finding, ctx)
        if "NOQA001" in selected:
            for finding in _noqa_findings(ctx, known):
                admit(finding, ctx)

    selected_passes = [cls(config=config.as_rule_config())
                       for pid, cls in sorted(pass_classes.items())
                       if pid in selected]
    if selected_passes:
        graph = build_graph(_graph_files(files, config))
        for contract_pass in selected_passes:
            for finding in contract_pass.check_project(graph):
                if finding.path not in lint_set:
                    continue  # drift anchored outside the linted tree
                admit(finding, contexts.get(finding.path))

    if changed is not None:
        findings = [f for f in findings
                    if f.line in changed.get(f.path, set())]
        parse_errors = [(p, e) for p, e in parse_errors if p in changed]

    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return LintReport(findings=findings, files_checked=len(files),
                      suppressed=suppressed, baselined=baselined,
                      parse_errors=parse_errors)


def _graph_files(files: list[Path], config: LintConfig) -> list[Path]:
    """Linted files plus every ``graph-roots`` tree, for whole-program
    context even when only a subtree is being linted."""
    out = list(files)
    base = Path(config.config_dir) if config.config_dir else Path(".")
    for root in config.graph_roots:
        candidate = base / root
        try:
            # Keep paths relative when possible so graph-root files and
            # linted files dedupe to one module per file.
            candidate = candidate.relative_to(Path.cwd())
        except ValueError:
            pass
        if candidate.is_dir():
            out.extend(_iter_python_files([candidate], config.exclude))
    return out


def write_baseline(report: LintReport, path: str | Path) -> None:
    """Persist the current findings as grandfathered baseline keys."""
    payload = {
        "schema": BASELINE_SCHEMA,
        "keys": sorted(f.key() for f in report.findings),
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n",
                          encoding="utf-8")


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
        f" ({report.suppressed} suppressed, {report.baselined} baselined)"
    )
    return "\n".join(lines)


def format_json(report: LintReport) -> str:
    rule_classes = all_rules()
    pass_classes = all_passes()
    payload = {
        "schema": SCHEMA,
        "files_checked": report.files_checked,
        "suppressed": report.suppressed,
        "baselined": report.baselined,
        "errors": len(report.errors),
        "warnings": len(report.warnings),
        "rules": {rid: cls.summary for rid, cls in
                  sorted({**rule_classes, **pass_classes}.items())},
        "findings": [f.to_dict() for f in report.findings],
        "parse_errors": [{"path": p, "error": e} for p, e in report.parse_errors],
    }
    return json.dumps(payload, indent=2)


def validate_report(payload: dict) -> None:
    """Raise ``ValueError`` unless ``payload`` is a valid lint report."""
    if payload.get("schema") != SCHEMA:
        raise ValueError(f"expected schema {SCHEMA}, got {payload.get('schema')!r}")
    for key in ("files_checked", "suppressed", "baselined", "findings"):
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
