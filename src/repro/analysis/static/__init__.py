"""Project-specific static analysis (``repro lint``) and runtime sanitizer.

The TT kernels and the LFU cache only reproduce the paper faithfully if
the codebase stays dtype-consistent and free of silent numeric
corruption. This package enforces those invariants twice:

- at commit time, with a linter (driven by
  :mod:`~repro.analysis.static.runner`) whose per-file rules
  (:mod:`~repro.analysis.static.rules`) encode the project's dtype and
  mutation-safety contracts and whose whole-program passes
  (:mod:`~repro.analysis.static.passes`) reconcile metric names, schema
  tags and state-machine literals across modules (docs/STATIC_ANALYSIS.md);
- at run time, with :class:`~repro.analysis.static.sanitizer.NumericSanitizer`,
  a context manager that asserts finite outputs and stable dtypes at every
  ``Module`` layer boundary.
"""

from repro.analysis.static.core import FileContext, Finding, Rule, all_rules
from repro.analysis.static.runner import LintConfig, LintReport, lint_paths
from repro.analysis.static.sanitizer import NumericFaultError, NumericSanitizer

__all__ = [
    "Finding",
    "FileContext",
    "Rule",
    "all_rules",
    "LintConfig",
    "LintReport",
    "lint_paths",
    "NumericSanitizer",
    "NumericFaultError",
]
