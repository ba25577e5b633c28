"""Tests for ``repro lint`` (rules, runner, CLI) and the runtime numeric
sanitizer.

Fixture files under ``tests/fixtures/lint/`` each plant exactly the
violations their rule should catch; the directory mirrors the hot-path
scoping (``repro/tt``, ``repro/cache``) so path-scoped rules fire without
special-cased test configuration. Fixtures are linted self-contained
(``graph_roots=[]``); the dogfood tests then lint ``src`` and
``benchmarks`` (the two trees CI lints in one run) and require a clean
exit.
"""

import ast
import json
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.static import (
    NumericFaultError,
    NumericSanitizer,
    all_rules,
    lint_paths,
)
from repro.analysis.static import runner
from repro.analysis.static.core import FileContext, path_matches
from repro.analysis.static.runner import (
    LintConfig,
    format_json,
    validate_report,
)
from repro.cli import main
from repro.data import KAGGLE, SyntheticCTRDataset
from repro.models import DLRMConfig, TTConfig, build_ttrec
from repro.ops.loss import bce_with_logits
from repro.reliability import FaultInjector
from repro.utils.dtypes import default_dtype, dtype_policy, result_dtype

REPO = Path(__file__).resolve().parent.parent
FIXTURES = REPO / "tests" / "fixtures" / "lint"
HOT = FIXTURES / "repro" / "tt"
XMOD = FIXTURES / "xmod"


def lint_fixture(path: Path, **config):
    """Lint fixture files self-contained (no graph roots)."""
    return lint_paths([path], config=LintConfig(graph_roots=[], **config))


def fired(report, rule):
    return [(f.line, f.rule) for f in report.findings if f.rule == rule]


def lint_xmod(sub: str, select: list[str], **config):
    """Lint one XMOD fixture mini-package with only ``select`` enabled."""
    return lint_fixture(XMOD / sub, select=select, **config)


def located(report, rule):
    return [(Path(f.path).name, f.line) for f in report.findings
            if f.rule == rule]


class TestRuleFixtures:
    """Each rule catches its planted violation at the expected line."""

    def test_dt001(self):
        report = lint_fixture(HOT / "viol_dt001.py")
        assert fired(report, "DT001") == [(6, "DT001")]

    def test_dt002(self):
        report = lint_fixture(HOT / "viol_dt002.py")
        assert fired(report, "DT002") == [(6, "DT002"), (7, "DT002")]

    def test_dt003(self):
        report = lint_fixture(HOT / "viol_dt003.py")
        assert fired(report, "DT003") == [(8, "DT003")]

    def test_dtype_rules_scoped_to_hot_path(self):
        # The same float64 literal outside a hot-path directory is legal.
        report = lint_fixture(HOT / "viol_dt001.py", hot_path=["nowhere"])
        assert fired(report, "DT001") == []

    def test_mut001_alias_direct_and_underscore_exemption(self):
        report = lint_fixture(FIXTURES / "repro/cache/viol_mut001.py")
        # Alias write (line 6) and direct write (line 7) both fire; the
        # trailing-underscore function does not.
        assert fired(report, "MUT001") == [(6, "MUT001"), (7, "MUT001")]

    def test_clean_file_passes_every_rule(self):
        report = lint_fixture(HOT / "clean.py")
        assert report.findings == []
        assert report.ok

    def test_noqa_suppression(self):
        report = lint_fixture(HOT / "noqa_case.py")
        # Two suppressed (targeted + blanket); the mismatched rule id on
        # line 8 does not cover DT002, so that one still fires.
        assert report.suppressed == 2
        assert fired(report, "DT002") == [(8, "DT002")]

    def test_all_documented_rules_registered(self):
        assert set(all_rules()) == {
            "DT001", "DT002", "DT003", "MUT001",
            "XMOD002", "XMOD003", "XMOD004",
        }

    def test_noqa_multi_rule_comma_list(self):
        src = ("import numpy as np\n"
               "x = np.zeros(3)  # repro: noqa[DT002, DT001]\n")
        ctx = FileContext("x.py", src)
        assert ctx.suppressed("DT002", 2)
        assert ctx.suppressed("DT001", 2)
        assert not ctx.suppressed("MUT001", 2)


class TestContractPasses:
    """Each XMOD pass reproduces its planted cross-module drift at the
    expected file and line, and nothing else fires."""

    def test_xmod002_metric_drift(self):
        report = lint_xmod("metrics", ["XMOD002"])
        assert located(report, "XMOD002") == [
            ("reader.py", 6),   # read of a never-written name
            ("writer.py", 7),   # write-only orphan
        ]
        severity = {Path(f.path).name: f.severity for f in report.findings}
        assert severity == {"reader.py": "error", "writer.py": "warning"}
        # Unmatched reads fail the run; write-only orphans alone do not.
        assert not report.ok
        assert len(report.warnings) == 1

    def test_xmod003_schema_tag_drift(self):
        report = lint_xmod("schemas", ["XMOD003"])
        assert located(report, "XMOD003") == [
            ("drift.py", 3),    # minority version against prevailing v1
            ("writer.py", 11),  # written tag with no reader
        ]

    def test_xmod004_state_machine_drift(self):
        report = lint_xmod("states", ["XMOD004"],
                           state_scope=["xmod/states"])
        assert located(report, "XMOD004") == [
            ("dispatch.py", 5),    # comparison against a typo'd state
            ("dispatch.py", 15),   # non-exhaustive chain, no else
            ("machine.py", 12),    # state assigned but never dispatched on
        ]
        warnings = report.warnings
        assert [f.line for f in warnings] == [15]
        assert "limbo, parked" in warnings[0].message

    def test_xmod004_local_flow_production(self):
        # "limbo" reaches the attribute only through a local
        # (`self.state = to` after `if to == "limbo"`): the comparison in
        # dispatch.py must not be reported as dead.
        report = lint_xmod("states", ["XMOD004"], state_scope=["xmod/states"])
        assert not any("'limbo'" in f.message and "never assigned" in f.message
                       for f in report.findings)

    def test_xmod004_single_guard_if_is_not_a_chain(self):
        # dispatch.py has two single-branch guards (lines 5 and 11); only
        # the real if/elif chain at line 15 may warn about missing states.
        report = lint_xmod("states", ["XMOD004"], state_scope=["xmod/states"])
        assert [f.line for f in report.warnings] == [15]

    def test_xmod_passes_obey_select(self):
        report = lint_xmod("states", ["XMOD002"], state_scope=["xmod/states"])
        assert report.findings == []

    def test_select_unknown_rule_id_raises(self):
        with pytest.raises(ValueError):
            lint_fixture(HOT / "clean.py", select=["NOPE001"])


class TestExplain:
    def test_explain_prints_rule_doc(self, capsys):
        rc = main(["lint", "--explain", "XMOD004"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "XMOD004" in out
        assert "Rationale" in out

    def test_explain_every_registered_rule(self, capsys):
        for rule_id in sorted(all_rules()):
            assert main(["lint", "--explain", rule_id]) == 0
            out = capsys.readouterr().out
            assert rule_id in out

    def test_explain_unknown_rule_exits_2(self, capsys):
        rc = main(["lint", "--explain", "NOPE999"])
        assert rc == 2
        assert "unknown rule id" in capsys.readouterr().err


class TestRunner:
    def test_path_matches_segment_aligned(self):
        assert path_matches("src/repro/tt/kernels.py", ["repro/tt"])
        assert path_matches("site-packages/repro/tt/a.py", ["repro/tt"])
        assert not path_matches("src/repro/ttx/a.py", ["repro/tt"])
        assert path_matches("src/repro/utils/seeding.py",
                            ["repro/utils/seeding.py"])

    def test_select_and_ignore(self):
        report = lint_fixture(HOT, select=["DT002"])
        assert {f.rule for f in report.findings} == {"DT002"}
        report = lint_fixture(HOT, ignore=["DT002"])
        assert {f.rule for f in report.findings} == {"DT001", "DT003"}

    def test_json_report_validates(self):
        report = lint_fixture(HOT / "viol_dt003.py")
        payload = json.loads(format_json(report))
        validate_report(payload)
        assert payload["schema"] == "repro.lint/v2"
        assert "baselined" not in payload
        assert payload["findings"][0]["rule"] == "DT003"
        assert payload["findings"][0]["line"] == 8

    def test_validate_report_rejects_malformed(self):
        with pytest.raises(ValueError):
            validate_report({"schema": "other/v1"})
        with pytest.raises(ValueError):
            validate_report({"schema": "repro.lint/v2", "findings": []})

    def test_missing_path_raises(self):
        with pytest.raises(FileNotFoundError):
            lint_paths([FIXTURES / "does_not_exist_dir"],
                       config=LintConfig())

    def test_relative_and_absolute_paths_parse_each_file_once(
            self, monkeypatch):
        """A file named by a linted path and by a graph root is one module."""
        monkeypatch.chdir(REPO)
        real, graphs = runner.build_graph, []

        def build_graph(files):
            graphs.append(real(files))
            return graphs[-1]

        monkeypatch.setattr(runner, "build_graph", build_graph)
        relative = lint_paths(["src"], config=LintConfig(graph_roots=["src"]))
        absolute = lint_paths([REPO / "src"],
                              config=LintConfig(graph_roots=["src"]))
        n_files = len(list((REPO / "src").rglob("*.py")))
        assert [len(g.modules) for g in graphs] == [n_files, n_files]
        assert absolute.findings == relative.findings
        assert absolute.suppressed == relative.suppressed == 2


class TestCLI:
    def test_lint_src_is_clean(self, capsys, monkeypatch):
        """``src`` passes its own linter, with its two known suppressions."""
        monkeypatch.chdir(REPO)
        rc = main(["lint", "src"])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert out.rstrip().endswith("file(s) (2 suppressed)")

    def test_lint_benchmarks_clean(self, capsys, monkeypatch):
        """``benchmarks`` passes the linter with nothing suppressed."""
        monkeypatch.chdir(REPO)
        rc = main(["lint", "benchmarks"])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert out.rstrip().endswith("file(s) (0 suppressed)")

    def test_lint_fixture_fails_with_json(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        rc = main(["lint", str(HOT / "viol_dt002.py"),
                   "--format", "json", "--output", str(out_path)])
        assert rc == 1
        payload = json.loads(out_path.read_text())
        validate_report(payload)
        assert {f["rule"] for f in payload["findings"]} == {"DT002"}

    def test_lint_select_flag(self, capsys):
        rc = main(["lint", str(FIXTURES), "--select", "DT002",
                   "--format", "json"])
        assert rc == 1
        payload = json.loads(capsys.readouterr().out)
        assert {f["rule"] for f in payload["findings"]} == {"DT002"}

    def test_lint_nonexistent_path_exit_2(self, capsys):
        rc = main(["lint", str(REPO / "no_such_dir")])
        assert rc == 2


class TestImportResolution:
    """The rules see through import aliases, not just literal names."""

    @staticmethod
    def resolved_call(src):
        ctx = FileContext("x.py", src)
        call = next(n for n in ast.walk(ctx.tree) if isinstance(n, ast.Call))
        return ctx.resolve(call.func)

    def test_aliased_numpy_random(self):
        src = "import numpy.random as nr\nnr.rand(3)\n"
        assert self.resolved_call(src) == "numpy.random.rand"

    def test_from_import_datetime(self):
        src = "from datetime import datetime as dt\ndt.now()\n"
        assert self.resolved_call(src) == "datetime.datetime.now"

    def test_unrelated_now_method_passes(self):
        assert self.resolved_call("clock.now()\n") == "clock.now"

    def test_dt002_sees_through_aliases(self):
        rule = all_rules()["DT002"]()
        for src, lines in (("import numpy as xp\nxp.zeros(3)\n", [2]),
                           ("from numpy import zeros as z\nz(3)\n", [2]),
                           ("buf.zeros(3)\n", [])):
            ctx = FileContext("repro/tt/x.py", src)
            assert [f.line for f in rule.check(ctx)] == lines, src


SPEC = KAGGLE.scaled(0.0002)
CFG = DLRMConfig(table_sizes=SPEC.table_sizes, emb_dim=8,
                 bottom_mlp=(16,), top_mlp=(16,))


def make_model(seed=0):
    return build_ttrec(CFG, num_tt_tables=3, tt=TTConfig(rank=4), rng=seed)


def make_batch(seed=1, size=16):
    return SyntheticCTRDataset(SPEC, seed=seed).batch(size)


class TestDtypePolicy:
    def test_default_is_float64(self):
        assert default_dtype() == np.float64

    def test_result_dtype_rejects_mixed(self):
        with pytest.raises(TypeError):
            result_dtype(np.zeros(2, dtype=np.float32),
                         np.zeros(2, dtype=np.float64))

    def test_float32_policy_propagates_to_model(self):
        with dtype_policy(np.float32):
            model = make_model()
            batch = make_batch()
            out = model.forward(batch.dense, batch.sparse)
            assert out.dtype == np.float32
            for p in model.parameters():
                assert p.data.dtype == np.float32
        # Policy restored on exit.
        assert default_dtype() == np.float64

    def test_float32_training_step_stays_float32(self):
        with dtype_policy(np.float32):
            model = make_model()
            batch = make_batch()
            out = model.forward(batch.dense, batch.sparse)
            _, grad = bce_with_logits(out, batch.labels)
            model.backward(grad.astype(np.float32))
            for p in model.parameters():
                assert p.grad.dtype == np.float32, p.name


class TestNumericSanitizer:
    def test_clean_pass_and_restore(self):
        model = make_model()
        batch = make_batch()
        with NumericSanitizer(model) as sani:
            out = model.forward(batch.dense, batch.sparse)
            _, grad = bce_with_logits(out, batch.labels)
            model.backward(grad)
            assert "forward" in vars(model.bottom_mlp.layers[0])
        assert np.isfinite(out).all()
        # Wrappers removed: instance dicts hold no shadowing attributes.
        assert "forward" not in vars(model.bottom_mlp.layers[0])
        assert "backward" not in vars(model.top_mlp)

    def test_fault_injected_nan_caught_at_first_layer(self):
        """A NaN planted by the PR-1 injector trips at the first boundary
        it crosses — the bottom tower's first linear — not downstream."""
        model = make_model()
        batch = make_batch()
        injector = FaultInjector(seed=3)
        injector.register("sanitizer.weight", 1.0, kind="nan")
        spec = injector.draw("sanitizer.weight")
        assert spec is not None
        injector.apply(spec, model.bottom_mlp.layers[0].weight.data)
        with pytest.raises(NumericFaultError) as exc_info:
            with NumericSanitizer(model, name="dlrm"):
                model.forward(batch.dense, batch.sparse)
        err = exc_info.value
        assert err.layer == "dlrm.bottom_mlp.layers[0]"
        assert err.stage == "forward"
        assert err.kind == "nan"

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_backward_grad_corruption_caught(self):
        model = make_model()
        batch = make_batch()
        out = model.forward(batch.dense, batch.sparse)
        _, grad = bce_with_logits(out, batch.labels)
        grad = grad.copy()
        grad[0] = np.inf
        with pytest.raises(NumericFaultError) as exc_info:
            with NumericSanitizer(model, name="dlrm"):
                model.forward(batch.dense, batch.sparse)
                model.backward(grad)
        err = exc_info.value
        assert err.stage == "backward"
        assert err.kind == "inf"

    def test_dtype_drift_caught(self):
        model = make_model()
        batch = make_batch()

        class Downcaster:
            """Stub layer that silently changes dtype on the second call."""

            def __init__(self):
                self.calls = 0

            def forward(self, x):
                self.calls += 1
                return x.astype(np.float32) if self.calls > 1 else x

            def backward(self, g):
                return g

        from repro.ops.module import Module

        class Wrapper(Module):
            def __init__(self, inner):
                self.inner = inner
                self.stub = Downcaster()

            def forward(self, dense, sparse):
                return self.stub.forward(self.inner.forward(dense, sparse))

        wrapped = Wrapper(model)
        with pytest.raises(NumericFaultError) as exc_info:
            with NumericSanitizer(wrapped, name="w"):
                wrapped.forward(batch.dense, batch.sparse)
                wrapped.forward(batch.dense, batch.sparse)
        assert exc_info.value.kind == "dtype_drift"

    def test_sanitizer_counts_checks(self):
        from repro.telemetry import get_registry

        model = make_model()
        batch = make_batch()
        checks = get_registry().counter("sanitizer.checks")
        before = checks.value
        with NumericSanitizer(model):
            model.forward(batch.dense, batch.sparse)
        assert checks.value > before

    def test_rejects_non_module(self):
        with pytest.raises(TypeError):
            NumericSanitizer(np.zeros(3))

    def test_sanitized_output_identical(self):
        model = make_model()
        batch = make_batch()
        plain = model.forward(batch.dense, batch.sparse)
        with NumericSanitizer(model):
            guarded = model.forward(batch.dense, batch.sparse)
        np.testing.assert_array_equal(plain, guarded)
