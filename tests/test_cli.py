"""Tests for the command-line interface."""

import argparse
import re
from pathlib import Path

import pytest

from repro.cli import build_parser, main

ROOT = Path(__file__).parent.parent


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_readme_lists_every_subcommand(self):
        """README's ``python -m repro {…}`` is ``repro --help``'s list."""
        subparsers = next(a for a in build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction))
        listed = re.search(r"python -m repro \{([^}]*)\}",
                           (ROOT / "README.md").read_text()).group(1)
        assert listed.split(",") == list(subparsers.choices)


class TestCommands:
    def test_plan_kernel(self, capsys):
        assert main(["plan", "--rows", "5000", "--batch", "512",
                     "--zipf", "1.2", "--iters", "3", "--d", "4",
                     "--rank", "4"]) == 0
        out = capsys.readouterr().out
        assert "split" in out and "FLOPs/row" in out
        assert "chosen" in out
        assert "predicted" in out and "measured" in out
        assert "dedup removed" in out

    def test_plan_kernel_no_dedup(self, capsys):
        assert main(["plan", "--rows", "2000", "--batch", "64",
                     "--iters", "2", "--no-dedup"]) == 0
        out = capsys.readouterr().out
        assert "dedup: off" in out
        assert "dedup removed:    0 of 64" in out
        with pytest.raises(SystemExit):  # the order is not an option
            main(["plan", "--policy", "l2r"])

    @pytest.mark.parametrize("option", ["--iters", "--batch", "--pooling",
                                        "--rows"])
    def test_plan_rejects_counts_below_one(self, option, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["plan", "--rows", "2000", "--batch", "64", "--iters", "1",
                  option, "0"])
        assert exc.value.code == 2
        assert f"argument {option}: must be >= 1, got 0" in capsys.readouterr().err

    @pytest.mark.parametrize("option", ["--requests", "--max-batch",
                                        "--max-depth"])
    def test_serve_bench_rejects_counts_below_one(self, option, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["serve-bench", option, "0"])
        assert exc.value.code == 2
        assert f"argument {option}: must be >= 1, got 0" in capsys.readouterr().err

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_trace_rejects_counts_below_one(self, count, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["trace", str(tmp_path / "stream.jsonl"), "--slowest",
                  count])
        assert exc.value.code == 2
        assert (f"argument --slowest: must be >= 1, got {count}"
                in capsys.readouterr().err)

    def test_plan_budget_empty_tables_file_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "tables.json"
        path.write_text('{"tables": []}')
        assert main(["plan-budget", "--budget-mb", "1",
                     "--tables-file", str(path)]) == 1
        assert capsys.readouterr().out == ("error: planner needs at least "
                                           "one table\n")

    def test_plan_budget_table_without_rows_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "tables.json"
        path.write_text('{"tables": [{"dim": 8}]}')
        assert main(["plan-budget", "--budget-mb", "1",
                     "--tables-file", str(path)]) == 1
        assert capsys.readouterr().out == (f"error: a table in {path} has no "
                                           "'num_rows' field\n")

    def test_plan_budget_rejects_top_below_one(self, capsys):
        assert main(["plan-budget", "--budget-mb", "1", "--top", "-2"]) == 1
        assert capsys.readouterr().out == "error: --top must be >= 1, got -2\n"

    def test_report_writes_markdown(self, tmp_path, capsys):
        out = tmp_path / "REPORT.md"
        assert main(["report", "--out", str(out)]) == 0
        body = out.read_text()
        assert body.startswith("# TT-Rec analysis report")
        assert "Paper Table 2" in body
        assert "135040" in body  # the exact Table 2 value
        assert body.count("## ") == 3
        # The committed report is a view of the code: regenerate, don't edit.
        assert body == (ROOT / "REPORT.md").read_text()

    def test_train_smoke(self, capsys):
        assert main(["train", "--iters", "15", "--scale", "0.0002"]) == 0
        out = capsys.readouterr().out
        assert "baseline" in out and "tt-rec" in out
        assert "ms/iter" in out

    def test_train_checkpoint_resume(self, tmp_path, capsys):
        args = ["train", "--iters", "20", "--scale", "0.0002",
                "--checkpoint-dir", str(tmp_path), "--checkpoint-every", "10"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert (tmp_path / "baseline").is_dir()
        assert main(args + ["--resume"]) == 0
        resumed = capsys.readouterr().out
        assert "(resumed at 20)" in resumed
        # Bit-exact resume: identical eval metrics, modulo timing fields.
        strip = lambda s: [part for line in s.splitlines()
                           for part in line.split() if "=" in part]
        assert strip(first) == strip(resumed)

    def test_chaos_smoke(self, capsys):
        assert main(["chaos", "--iters", "40", "--scale", "0.0002",
                     "--tolerance", "1.0"]) == 0
        out = capsys.readouterr().out
        assert "fault-free" in out and "injector" in out and "PASS" in out

    def test_profile_smoke(self, capsys):
        assert main(["profile", "--iters", "12", "--scale", "0.0002"]) == 0
        out = capsys.readouterr().out
        # Span tree with per-core GEMM timings plus the two tables.
        assert "tt.forward.segment_gemm[core=1]" in out
        assert "trainer.forward" in out
        assert "collective.allreduce" in out
        assert "cache.hits" in out
        assert "hit rate" in out

    def test_profile_emit_json(self, tmp_path, capsys):
        import json

        from repro.telemetry import read_events, validate_snapshot

        snap = tmp_path / "profile.json"
        events = tmp_path / "stream.jsonl"
        assert main(["profile", "--iters", "12", "--scale", "0.0002",
                     "--emit-json", str(snap),
                     "--trace-jsonl", str(events)]) == 0
        doc = json.loads(snap.read_text())
        validate_snapshot(doc)
        assert doc["command"] == "profile"
        counters = doc["metrics"]["counters"]
        assert any(k.startswith("cache.lookups") for k in counters)
        assert any(k.startswith("collective.bytes") for k in counters)
        assert "profile.train" in doc["spans"]
        assert read_events(events, event_type="cache.populate")

    def test_train_emit_json(self, tmp_path, capsys):
        import json

        from repro.telemetry import validate_snapshot

        snap = tmp_path / "train.json"
        assert main(["train", "--iters", "15", "--scale", "0.0002",
                     "--emit-json", str(snap)]) == 0
        doc = json.loads(snap.read_text())
        validate_snapshot(doc)
        assert doc["command"] == "train"
        models = doc["result"]["models"]
        assert set(models) == {"baseline", "tt-rec r16"}
        for m in models.values():
            assert m["iterations"] == 15
            assert m["ms_per_iter"] > 0
            assert m["ms_per_iter_steady"] > 0
            assert set(m["stage_ms_per_iter"]) >= {"data", "forward",
                                                   "backward", "optimizer"}

    def test_chaos_emit_json(self, tmp_path, capsys):
        import json

        from repro.telemetry import validate_snapshot

        snap = tmp_path / "chaos.json"
        assert main(["chaos", "--iters", "40", "--scale", "0.0002",
                     "--tolerance", "1.0", "--emit-json", str(snap)]) == 0
        doc = json.loads(snap.read_text())
        validate_snapshot(doc)
        assert doc["command"] == "chaos"
        assert doc["result"]["passed"] is True
        assert "injector" in doc["result"]

    def test_serve_bench_smoke(self, capsys):
        assert main(["serve-bench", "--requests", "120",
                     "--scale", "0.0003"]) == 0
        out = capsys.readouterr().out
        assert "latency" in out and "p99" in out
        assert "PASS" in out

    def test_serve_bench_chaos_emit_json(self, tmp_path, capsys):
        import json

        from repro.telemetry import read_events, validate_snapshot

        snap = tmp_path / "serve.json"
        events = tmp_path / "stream.jsonl"
        assert main(["serve-bench", "--requests", "250",
                     "--scale", "0.0003", "--fault-rate", "0.05",
                     "--emit-json", str(snap),
                     "--trace-jsonl", str(events)]) == 0
        doc = json.loads(snap.read_text())
        validate_snapshot(doc)
        assert doc["command"] == "serve-bench"
        assert doc["result"]["passed"] is True
        report = doc["result"]["report"]
        assert report["non_finite_outputs"] == 0
        assert report["reconciliation"]["passed"] is True
        assert report["injector"]  # all three serving.* sites registered
        assert read_events(events, event_type="fault.fired")

    def test_serve_bench_rejects_malformed_without_crashing(self, capsys):
        assert main(["serve-bench", "--requests", "120",
                     "--scale", "0.0003", "--malformed", "0.3"]) == 0
        out = capsys.readouterr().out
        assert "rejected" in out
