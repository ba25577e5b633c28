"""Tests for ``repro lint`` (AST rules, runner, CLI) and the runtime
numeric sanitizer.

Fixture files under ``tests/fixtures/lint/`` each plant exactly the
violations their rule should catch; the directory mirrors the hot-path
scoping (``repro/tt``, ``repro/cache``) so path-scoped rules fire without
special-cased test configuration. The dogfood test then runs the linter
over the repo's own ``src/`` tree and requires a clean exit.
"""

import json
import subprocess
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.static import (
    NumericFaultError,
    NumericSanitizer,
    all_rules,
    lint_paths,
)
from repro.analysis.static.contracts import all_passes
from repro.analysis.static.core import FileContext
from repro.analysis.static.diff import parse_unified_diff
from repro.analysis.static.rules import path_matches
from repro.analysis.static.runner import (
    LintConfig,
    format_json,
    load_config,
    validate_report,
    write_baseline,
)
from repro.analysis.static.sarif import format_sarif, validate_sarif
from repro.cli import main
from repro.data import KAGGLE, SyntheticCTRDataset
from repro.models import DLRMConfig, TTConfig, build_ttrec
from repro.ops.loss import bce_with_logits
from repro.reliability import FaultInjector
from repro.utils.dtypes import default_dtype, dtype_policy, result_dtype

REPO = Path(__file__).resolve().parent.parent
FIXTURES = REPO / "tests" / "fixtures" / "lint"
PYPROJECT = REPO / "pyproject.toml"


def lint_fixture(name: str, **config_overrides):
    cfg = load_config(PYPROJECT)
    for key, value in config_overrides.items():
        setattr(cfg, key, value)
    return lint_paths([FIXTURES / name], config=cfg)


def fired(report, rule):
    return [(f.line, f.rule) for f in report.findings if f.rule == rule]


XMOD = FIXTURES / "xmod"


def lint_xmod(sub: str, select: list[str], **config_overrides):
    """Lint one XMOD fixture mini-package self-contained (no graph roots)."""
    cfg = load_config(PYPROJECT)
    cfg.select = select
    cfg.graph_roots = []
    for key, value in config_overrides.items():
        setattr(cfg, key, value)
    return lint_paths([XMOD / sub], config=cfg)


def located(report, rule):
    return [(Path(f.path).name, f.line) for f in report.findings
            if f.rule == rule]


class TestRuleFixtures:
    """Each rule catches its planted violation at the expected line."""

    def test_rng001(self):
        report = lint_fixture("viol_rng001.py")
        assert fired(report, "RNG001") == [(6, "RNG001"), (7, "RNG001")]
        assert len(report.findings) == 2  # nothing else fires

    def test_dt001(self):
        report = lint_fixture("repro/tt/viol_dt001.py")
        assert fired(report, "DT001") == [(6, "DT001")]

    def test_dt002(self):
        report = lint_fixture("repro/tt/viol_dt002.py")
        assert fired(report, "DT002") == [(6, "DT002"), (7, "DT002")]

    def test_dt003(self):
        report = lint_fixture("repro/tt/viol_dt003.py")
        assert fired(report, "DT003") == [(8, "DT003")]

    def test_dtype_rules_scoped_to_hot_path(self):
        # The same float64 literal outside a hot-path directory is legal.
        report = lint_fixture("repro/tt/viol_dt001.py", hot_path=["nowhere"])
        assert fired(report, "DT001") == []

    def test_det001(self):
        report = lint_fixture("viol_det001.py")
        assert fired(report, "DET001") == [(7, "DET001"), (8, "DET001")]

    def test_det001_clock_exempt(self):
        report = lint_fixture("viol_det001.py",
                              clock_exempt=["fixtures/lint"])
        assert fired(report, "DET001") == []

    def test_det002(self):
        report = lint_fixture("viol_det002.py")
        assert fired(report, "DET002") == [(6, "DET002")]

    def test_exc001(self):
        report = lint_fixture("viol_exc001.py")
        assert fired(report, "EXC001") == [(7, "EXC001")]

    def test_exc002(self):
        report = lint_fixture("viol_exc002.py")
        assert fired(report, "EXC002") == [(7, "EXC002")]

    def test_mut001_alias_direct_and_underscore_exemption(self):
        report = lint_fixture("repro/cache/viol_mut001.py")
        # Alias write (line 6) and direct write (line 7) both fire; the
        # trailing-underscore function does not.
        assert fired(report, "MUT001") == [(6, "MUT001"), (7, "MUT001")]

    def test_clean_file_passes_every_rule(self):
        report = lint_fixture("clean.py")
        assert report.findings == []
        assert report.ok

    def test_noqa_suppression(self):
        report = lint_fixture("noqa_case.py")
        # Two suppressed (targeted + blanket); the mismatched rule id on
        # line 8 does not cover RNG001, so that one still fires.
        assert report.suppressed == 2
        assert fired(report, "RNG001") == [(8, "RNG001")]

    def test_det003(self):
        report = lint_fixture("viol_det003.py",
                              process_scope=["fixtures/lint"])
        assert fired(report, "DET003") == [
            (10, "DET003"), (11, "DET003"), (12, "DET003"), (13, "DET003"),
        ]

    def test_det003_scoped_to_process_modules(self):
        # Outside process-scope paths the same entropy calls are allowed
        # (single-process code may legitimately want a fresh UUID).
        report = lint_fixture("viol_det003.py")
        assert fired(report, "DET003") == []

    def test_all_documented_rules_registered(self):
        assert set(all_rules()) == {
            "RNG001", "DT001", "DT002", "DT003",
            "DET001", "DET002", "DET003", "EXC001", "EXC002", "MUT001",
            "NOQA001",
        }
        assert set(all_passes()) == {
            "XMOD001", "XMOD002", "XMOD003", "XMOD004", "XMOD005",
        }

    def test_noqa001_unknown_suppression_id(self):
        report = lint_fixture("viol_noqa001.py")
        # The bogus id neither suppresses RNG001 nor goes unnoticed.
        assert fired(report, "NOQA001") == [(6, "NOQA001")]
        assert fired(report, "RNG001") == [(6, "RNG001")]

    def test_noqa_multi_rule_comma_list(self):
        src = ("import numpy as np\n"
               "x = np.random.rand(3)  # repro: noqa[RNG001, DT001]\n")
        ctx = FileContext("x.py", src)
        assert ctx.suppressed("RNG001", 2)
        assert ctx.suppressed("DT001", 2)
        assert not ctx.suppressed("EXC001", 2)


class TestContractPasses:
    """Each XMOD pass reproduces its planted cross-module drift at the
    expected file and line, and nothing else fires."""

    def test_xmod001_fault_site_drift_both_directions(self):
        report = lint_xmod("sites", ["XMOD001"],
                           fault_registry=["xmod/sites/registry.py"])
        assert located(report, "XMOD001") == [
            ("fire.py", 7),       # typo'd site never registered
            ("registry.py", 6),   # registered site never fired
        ]
        assert all(f.severity == "error" for f in report.findings)
        assert not report.ok

    def test_xmod001_resolves_per_tier_site_prefix(self):
        # One shared machine fires f"{self.site_prefix}.crash"; each
        # payload class's literal prefix is reconciled exactly: alpha and
        # beta balance, delta's site is unregistered, gamma's is dead.
        report = lint_xmod("site_prefix", ["XMOD001"],
                           fault_registry=["xmod/site_prefix/registry.py"])
        assert located(report, "XMOD001") == [
            ("machine.py", 8),    # 'delta.crash' fired, never registered
            ("registry.py", 6),   # 'gamma.crash' registered, never fired
        ]
        assert "'delta.crash'" in report.findings[0].message

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

    def test_xmod005_dtype_taint(self):
        report = lint_xmod("dtype", ["XMOD005"],
                           hot_path=["xmod/dtype/hot"])
        # Only the raw leak fires: the dtype'd helper and the
        # `.astype(...)`-at-the-boundary call are exempt.
        assert located(report, "XMOD005") == [("kernel.py", 9)]

    def test_xmod_passes_obey_select(self):
        report = lint_xmod("states", ["XMOD005"], state_scope=["xmod/states"])
        assert report.findings == []

    def test_select_unknown_rule_id_raises(self):
        cfg = load_config(PYPROJECT)
        cfg.select = ["NOPE001"]
        with pytest.raises(ValueError):
            lint_paths([FIXTURES / "clean.py"], config=cfg)


class TestSarif:
    def test_sarif_document_validates(self):
        report = lint_fixture("viol_rng001.py")
        doc = json.loads(format_sarif(report))
        validate_sarif(doc)
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        assert {r["ruleId"] for r in run["results"]} == {"RNG001"}
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert {"RNG001", "XMOD004", "NOQA001"} <= rule_ids

    def test_sarif_levels_follow_severity(self):
        report = lint_xmod("metrics", ["XMOD002"])
        doc = json.loads(format_sarif(report))
        validate_sarif(doc)
        levels = sorted(r["level"] for r in doc["runs"][0]["results"])
        assert levels == ["error", "warning"]

    def test_sarif_region_lines(self):
        report = lint_fixture("viol_rng001.py")
        doc = json.loads(format_sarif(report))
        lines = [r["locations"][0]["physicalLocation"]["region"]["startLine"]
                 for r in doc["runs"][0]["results"]]
        assert lines == [6, 7]

    def test_validate_sarif_rejects_malformed(self):
        report = lint_fixture("viol_rng001.py")
        doc = json.loads(format_sarif(report))
        doc["runs"][0]["results"][0]["ruleId"] = "NOT_A_RULE"
        with pytest.raises(ValueError):
            validate_sarif(doc)
        with pytest.raises(ValueError):
            validate_sarif({"version": "2.1.0", "runs": []})

    def test_cli_sarif_output(self, tmp_path, capsys):
        out = tmp_path / "lint.sarif"
        rc = main(["lint", str(FIXTURES / "viol_rng001.py"),
                   "--config", str(PYPROJECT),
                   "--format", "sarif", "--output", str(out)])
        assert rc == 1
        doc = json.loads(out.read_text())
        validate_sarif(doc)
        assert doc["runs"][0]["results"]


class TestDiffAware:
    def test_parse_unified_diff(self):
        text = ("diff --git a/m.py b/m.py\n"
                "--- a/m.py\n"
                "+++ b/m.py\n"
                "@@ -0,0 +3,2 @@\n"
                "+x = 1\n"
                "+y = 2\n")
        assert parse_unified_diff(text) == {"m.py": {3, 4}}

    def test_diff_base_filters_unchanged_findings(self, tmp_path,
                                                  monkeypatch, capsys):
        subprocess.run(["git", "init", "-q"], cwd=tmp_path, check=True)
        mod = tmp_path / "mod.py"
        mod.write_text("import numpy as np\n\n\ndef old(n):\n"
                       "    return np.random.rand(n)\n")
        subprocess.run(["git", "add", "mod.py"], cwd=tmp_path, check=True)
        subprocess.run(
            ["git", "-c", "user.name=t", "-c", "user.email=t@example.com",
             "commit", "-q", "-m", "seed"], cwd=tmp_path, check=True)
        mod.write_text(mod.read_text()
                       + "\n\ndef new(n):\n    return np.random.rand(n)\n")
        monkeypatch.chdir(tmp_path)
        rc = main(["lint", "mod.py", "--config", str(PYPROJECT),
                   "--select", "RNG001", "--diff-base", "HEAD",
                   "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        # Both defs violate RNG001, but only the line added since HEAD
        # is reported in diff mode.
        assert rc == 1
        assert [(f["rule"], f["line"]) for f in payload["findings"]] == [
            ("RNG001", 9)]

    def test_diff_base_bad_ref_exits_2(self, capsys):
        rc = main(["lint", str(FIXTURES / "clean.py"),
                   "--config", str(PYPROJECT),
                   "--diff-base", "no-such-ref-xyz"])
        assert rc == 2


class TestExplain:
    def test_explain_prints_rule_doc(self, capsys):
        rc = main(["lint", "--explain", "XMOD004"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "XMOD004" in out
        assert "Rationale" in out

    def test_explain_every_registered_rule(self, capsys):
        for rule_id in sorted({**all_rules(), **all_passes()}):
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

    def test_config_loaded_from_pyproject(self):
        cfg = load_config(PYPROJECT)
        try:
            import tomllib  # noqa: F401
        except ImportError:
            pytest.skip("tomllib unavailable (py<3.11): defaults used")
        assert "repro/tt" in cfg.hot_path
        assert "repro/utils/seeding.py" in cfg.rng_allowed
        assert "repro/bench" in cfg.clock_exempt

    def test_builtin_defaults_agree_with_pyproject(self, tmp_path):
        # Linting without the pyproject must not silently narrow a scope
        # (DET003 on distributed/, the benchmarks graph root, ...).
        try:
            import tomllib  # noqa: F401
        except ImportError:
            pytest.skip("tomllib unavailable (py<3.11): defaults used")
        cfg, builtin = load_config(PYPROJECT), LintConfig()
        for key in ("process_scope", "state_scope",
                    "state_attrs", "graph_roots", "hot_path"):
            assert getattr(cfg, key) == getattr(builtin, key), key
        for key in ("process_scope", "state_scope"):
            assert "repro/runtime" in getattr(cfg, key)
        # A pass run with no config must see the same hot path (with
        # repro/compress), not a private, older copy of the list.
        from repro.analysis.static.graph import build_graph
        from repro.analysis.static.passes.dtype_flow import DtypeTaintPass

        fixture = XMOD / "dtype"
        hot = tmp_path / "repro" / "compress"
        hot.mkdir(parents=True)
        (tmp_path / "helpers.py").write_text(
            (fixture / "helpers.py").read_text())
        (hot / "kernel.py").write_text(
            (fixture / "hot" / "kernel.py").read_text())
        graph = build_graph([tmp_path / "helpers.py", hot / "kernel.py"])
        findings = DtypeTaintPass(config={}).check_project(graph)
        assert [(Path(f.path).name, f.line) for f in findings] == [
            ("kernel.py", 9)]

    def test_select_and_ignore(self):
        cfg = load_config(PYPROJECT)
        cfg.select = ["DET001"]
        report = lint_paths([FIXTURES / "viol_det001.py"], config=cfg)
        assert {f.rule for f in report.findings} == {"DET001"}
        cfg = load_config(PYPROJECT)
        cfg.ignore = ["DET001"]
        report = lint_paths([FIXTURES / "viol_det001.py"], config=cfg)
        assert report.findings == []

    def test_json_report_validates(self):
        report = lint_fixture("viol_exc001.py")
        payload = json.loads(format_json(report))
        validate_report(payload)
        assert payload["schema"] == "repro.lint/v1"
        assert payload["findings"][0]["rule"] == "EXC001"
        assert payload["findings"][0]["line"] == 7

    def test_validate_report_rejects_malformed(self):
        with pytest.raises(ValueError):
            validate_report({"schema": "other/v1"})
        with pytest.raises(ValueError):
            validate_report({"schema": "repro.lint/v1", "findings": []})

    def test_baseline_grandfathers_findings(self, tmp_path):
        report = lint_fixture("viol_exc001.py")
        assert report.findings
        baseline = tmp_path / "baseline.json"
        write_baseline(report, baseline)
        cfg = load_config(PYPROJECT)
        again = lint_paths([FIXTURES / "viol_exc001.py"], config=cfg,
                           baseline=baseline)
        assert again.findings == []
        assert again.baselined == len(report.findings)

    def test_missing_path_raises(self):
        with pytest.raises(FileNotFoundError):
            lint_paths([FIXTURES / "does_not_exist_dir"],
                       config=LintConfig())


class TestCLI:
    def test_lint_src_is_clean(self, capsys):
        """The merged tree passes its own linter with zero baseline entries."""
        rc = main(["lint", str(REPO / "src"),
                   "--config", str(PYPROJECT)])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "0 baselined" in out

    def test_lint_benchmarks_clean(self, capsys):
        rc = main(["lint", str(REPO / "benchmarks"),
                   "--config", str(PYPROJECT)])
        assert rc == 0, capsys.readouterr().out

    def test_lint_fixture_fails_with_json(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        rc = main(["lint", str(FIXTURES / "viol_rng001.py"),
                   "--config", str(PYPROJECT),
                   "--format", "json", "--output", str(out_path)])
        assert rc == 1
        payload = json.loads(out_path.read_text())
        validate_report(payload)
        assert {f["rule"] for f in payload["findings"]} == {"RNG001"}

    def test_lint_select_flag(self, capsys):
        rc = main(["lint", str(FIXTURES), "--config", str(PYPROJECT),
                   "--select", "EXC001", "--format", "json"])
        assert rc == 1
        payload = json.loads(capsys.readouterr().out)
        assert {f["rule"] for f in payload["findings"]} == {"EXC001"}

    def test_lint_nonexistent_path_exit_2(self, capsys):
        rc = main(["lint", str(REPO / "no_such_dir"),
                   "--config", str(PYPROJECT)])
        assert rc == 2


class TestImportResolution:
    """The rules see through import aliases, not just literal names."""

    def test_aliased_numpy_random(self):
        ctx = FileContext("x.py", "import numpy.random as nr\nnr.rand(3)\n")
        rule = all_rules()["RNG001"](config={"rng_allowed": []})
        assert [f.line for f in rule.check(ctx)] == [2]

    def test_from_import_datetime(self):
        src = "from datetime import datetime as dt\ndt.now()\n"
        ctx = FileContext("x.py", src)
        rule = all_rules()["DET001"](config={"clock_exempt": []})
        assert [f.line for f in rule.check(ctx)] == [2]

    def test_unrelated_now_method_passes(self):
        src = "clock.now()\n"
        ctx = FileContext("x.py", src)
        rule = all_rules()["DET001"](config={"clock_exempt": []})
        assert rule.check(ctx) == []


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
