"""The tree checks (``tests/tree_checks.py``) on the tree and on fixtures.

``src/`` and ``benchmarks/`` are parsed once per session (the ``tree``
fixture in ``conftest.py``) and must be clean, with no suppressions. Fixture
files under ``tests/fixtures/lint/`` each plant the violations one check
should catch; the directory mirrors the scopes (``repro/tt``,
``repro/cache``, ``repro/serving``), so the real scopes apply to them.

Replay over another checkout (docs/STATIC_ANALYSIS.md, "The audit")::

    python tests/test_tree_checks.py <root>

prints the file count of ``<root>/src`` and ``<root>/benchmarks`` and
each check's count of unsuppressed findings.
"""

import ast
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))  # replay
from tests.tree_checks import (  # noqa: E402
    CHECKS,
    REPO,
    Module,
    dt001,
    dt002,
    dt003,
    imp001,
    in_scope,
    mut001,
    parse,
    run,
    xmod002,
    xmod003,
    xmod004,
)

FIXTURES = REPO / "tests" / "fixtures" / "lint"


def fixture(*paths):
    return parse(FIXTURES, *paths)


def lines(findings):
    return sorted(f.line for f in findings)


def located(findings):
    return sorted((Path(f.path).name, f.line) for f in findings)


@pytest.fixture(scope="module")
def findings(tree):
    return run(tree)


class TestTree:
    def test_src_is_clean(self, findings):
        """``src`` is clean, and nothing in it is suppressed."""
        kept, suppressed = findings
        assert [f for f in kept if f.path.startswith("src/")] == []
        assert suppressed == []

    def test_benchmarks_clean(self, findings, tree):
        kept, _ = findings
        assert any(m.path.startswith("benchmarks/") for m in tree)
        assert [f for f in kept if f.path.startswith("benchmarks/")] == []


class TestRuleFixtures:
    """Each check catches its planted violation at the expected line."""

    def test_dt001(self):
        assert lines(dt001(fixture("repro/tt/viol_dt001.py"))) == [6]

    def test_dt002(self):
        assert lines(dt002(fixture("repro/tt/viol_dt002.py"))) == [6, 7]

    def test_dt003(self):
        assert lines(dt003(fixture("repro/tt/viol_dt003.py"))) == [8]

    def test_dtype_rules_scoped_to_hot_path(self):
        # The same float64 literal outside a hot-path directory is legal.
        assert dt001(parse(FIXTURES / "repro", "tt/viol_dt001.py")) == []

    def test_mut001_alias_direct_and_underscore_exemption(self):
        # Alias write (line 6) and direct write (line 7) both fire; the
        # trailing-underscore function does not.
        assert lines(mut001(fixture("repro/cache/viol_mut001.py"))) == [6, 7]

    def test_imp001_unread_imports(self):
        # ``os`` (bound by ``import os.path``), ``json`` and the aliased
        # ``Ordered`` are never read; ``re`` and ``np`` are, ``Any`` in an
        # annotation, and ``deque`` is listed in ``__all__``.
        found = imp001(fixture("viol_imp001.py"))
        assert [(f.line, f.message.split("'")[1]) for f in found] == [
            (5, "os"), (6, "json"), (7, "Ordered")]

    def test_clean_file_passes_every_rule(self):
        assert run(fixture("repro/tt/clean.py")) == ([], [])

    def test_noqa_suppression(self):
        kept, suppressed = run(fixture("repro/tt/noqa_case.py"))
        # Two suppressed (targeted + blanket). The mismatched rule id on
        # line 8 does not cover DT002, and a noqa inside a string literal
        # (line 9) is not a comment.
        assert lines(suppressed) == [6, 7]
        assert [(f.rule, f.line) for f in kept] == [("DT002", 8),
                                                   ("DT002", 9)]

    def test_noqa_multi_rule_comma_list(self):
        m = Module("x.py", "import numpy as np\n"
                           "x = np.zeros(3)  # repro: noqa[DT002, DT001]\n")
        assert m.suppressed("DT002", 2)
        assert m.suppressed("DT001", 2)
        assert not m.suppressed("MUT001", 2)


class TestContractPasses:
    """Each XMOD check reproduces its planted cross-module drift at the
    expected file and line, and nothing else fires."""

    def test_xmod002_metric_drift(self):
        found = xmod002(fixture("xmod/metrics"))
        assert located(found) == [
            ("reader.py", 6),   # read of a never-written name
            ("writer.py", 7),   # write-only orphan
        ]

    def test_xmod003_schema_tag_drift(self):
        assert located(xmod003(fixture("xmod/schemas"))) == [
            ("drift.py", 3),    # minority version against prevailing v1
            ("writer.py", 11),  # written tag with no reader
        ]

    def test_xmod004_state_machine_drift(self):
        found = xmod004(fixture("repro/serving"))
        assert located(found) == [
            ("dispatch.py", 5),    # comparison against a typo'd state
            ("dispatch.py", 15),   # non-exhaustive chain, no else
            ("machine.py", 12),    # state assigned but never dispatched on
        ]
        chain = next(f for f in found if f.line == 15)
        assert "limbo, parked" in chain.message

    def test_xmod004_local_flow_production(self):
        # "limbo" reaches the attribute only through a local
        # (`self.state = to` after `if to == "limbo"`): the comparison in
        # dispatch.py must not be reported as dead.
        assert not any("'limbo'" in f.message and "never assigned" in f.message
                       for f in xmod004(fixture("repro/serving")))

    def test_xmod004_single_guard_if_is_not_a_chain(self):
        # dispatch.py has two single-branch guards (lines 5 and 11); only
        # the real if/elif chain at line 15 may report missing states.
        found = xmod004(fixture("repro/serving"))
        assert [f.line for f in found if "if/elif" in f.message] == [15]


class TestRunner:
    def test_path_matches_segment_aligned(self):
        assert in_scope("src/repro/tt/kernels.py", ["repro/tt"])
        assert in_scope("site-packages/repro/tt/a.py", ["repro/tt"])
        assert not in_scope("src/repro/ttx/a.py", ["repro/tt"])
        assert in_scope("src/repro/utils/seeding.py",
                        ["repro/utils/seeding.py"])


class TestImportResolution:
    """The checks see through import aliases, not just literal names."""

    @staticmethod
    def resolved_call(src):
        m = Module("x.py", src)
        call = next(n for n in m.nodes if isinstance(n, ast.Call))
        return m.resolve(call.func)

    def test_aliased_numpy_random(self):
        src = "import numpy.random as nr\nnr.rand(3)\n"
        assert self.resolved_call(src) == "numpy.random.rand"

    def test_from_import_datetime(self):
        src = "from datetime import datetime as dt\ndt.now()\n"
        assert self.resolved_call(src) == "datetime.datetime.now"

    def test_unrelated_now_method_passes(self):
        assert self.resolved_call("clock.now()\n") == "clock.now"

    def test_dt002_sees_through_aliases(self):
        for src, want in (("import numpy as xp\nxp.zeros(3)\n", [2]),
                          ("from numpy import zeros as z\nz(3)\n", [2]),
                          ("buf.zeros(3)\n", [])):
            assert lines(dt002([Module("repro/tt/x.py", src)])) == want, src


if __name__ == "__main__":  # replay over one checkout (see the docstring)
    modules = parse(Path(sys.argv[1]))
    kept, suppressed = run(modules)
    counts = {check.__name__.upper(): 0 for check in CHECKS}
    for f in kept:
        counts[f.rule] += 1
    print(len(modules), "files", *(f"{k}={v}" for k, v in counts.items()),
          f"({len(suppressed)} suppressed)")
