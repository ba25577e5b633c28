"""Tests for the command-line interface."""

import argparse
import re
from pathlib import Path

import pytest

from repro.cli import build_parser, main

ROOT = Path(__file__).parent.parent


def _subcommands() -> dict[str, argparse.ArgumentParser]:
    """``repro --help``'s subcommands, in order, with their parsers."""
    return next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_readme_lists_every_subcommand(self):
        """README's ``python -m repro {…}`` is ``repro --help``'s list."""
        listed = re.search(r"python -m repro \{([^}]*)\}",
                           (ROOT / "README.md").read_text()).group(1)
        assert listed.split(",") == list(_subcommands())

    def test_documented_invocations_parse(self):
        """Every ``python -m repro <sub> …`` line in the docs and CI names a
        subcommand, and each ``--option`` on it belongs to that subcommand."""
        options = {name: {s for a in p._actions for s in a.option_strings}
                   for name, p in _subcommands().items()}
        paths = [ROOT / "README.md", ROOT / "DESIGN.md", ROOT / "EXPERIMENTS.md",
                 *sorted((ROOT / "docs").glob("*.md")),
                 ROOT / ".github" / "workflows" / "ci.yml"]
        checked = 0
        for path in paths:
            text = re.sub(r"\\\n\s*", " ", path.read_text())
            for m in re.finditer(r"python -m repro[ \t]+([a-z][\w-]*)([^\n`#]*)",
                                 text):
                sub, rest = m.groups()
                where = f"{path.relative_to(ROOT)}: {m.group(0).strip()}"
                assert sub in options, where
                for opt in re.findall(r"(?<![\w-])--[\w-]+", rest):
                    assert opt in options[sub], f"{opt} in {where}"
                checked += 1
        assert checked >= 20


class TestCommands:
    @pytest.mark.parametrize("option", ["--requests", "--max-batch",
                                        "--max-depth"])
    def test_serve_bench_rejects_counts_below_one(self, option, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["serve-bench", option, "0"])
        assert exc.value.code == 2
        assert f"argument {option}: must be >= 1, got 0" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["chaos", "--rank", "0"], "must be >= 1, got 0"),
        (["train", "--rank", "0"], "must be >= 1, got 0"),
        (["profile", "--rank", "-2"], "must be >= 1, got -2"),
        (["serve-bench", "--rank", "0"], "must be >= 1, got 0"),
        (["train", "--scale", "0"], "must be finite and > 0, got 0"),
        (["chaos", "--scale", "nan"], "must be finite and > 0, got nan"),
        (["profile", "--scale", "-1"], "must be finite and > 0, got -1"),
        (["serve-bench", "--deadline-ms", "inf"],
         "must be finite and > 0, got inf"),
        (["chaos", "--prob", "1.5"], "must be in [0, 1], got 1.5"),
        (["chaos", "--prob", "nan"], "must be in [0, 1], got nan"),
        (["serve-bench", "--fault-rate", "-0.1"], "must be in [0, 1], got -0.1"),
        (["serve-bench", "--malformed", "2"], "must be in [0, 1], got 2"),
        (["train", "--checkpoint-every", "0"], "must be >= 1, got 0"),
        (["serve-bench", "--interarrival-ms", "inf"],
         "must be finite and >= 0, got inf"),
        (["profile", "--batch-size", "0"], "must be >= 1, got 0"),
        (["chaos", "--tolerance", "-1"], "must be finite and >= 0, got -1"),
        (["serve-bench", "--interarrival-ms", "-1"],
         "must be finite and >= 0, got -1"),
        (["chaos", "--tolerance", "nan"], "must be finite and >= 0, got nan")])
    def test_model_inputs_are_checked_by_the_parser(self, argv, message,
                                                    capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"argument {argv[1]}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["train", "--iters", "0"], ["profile", "--iters", "0"],
        ["profile", "--batch-size", "0"], ["chaos", "--iters", "0"]])
    def test_training_drills_reject_counts_below_one(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert (f"argument {argv[1]}: must be >= 1, got 0"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_trace_rejects_counts_below_one(self, count, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["trace", str(tmp_path / "stream.jsonl"), "--slowest",
                  count])
        assert exc.value.code == 2
        assert (f"argument --slowest: must be >= 1, got {count}"
                in capsys.readouterr().err)

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
