"""The CLI drills' stdout as goldens, and their verdict where it was blind.

ROADMAP item 7's tier-1 layer, first slice. Three things are pinned here:

- **Goldens.** ``chaos`` runs on seeded streams alone, so its stdout is
  a function of the code. ``tests/golden/drill_chaos.txt`` was captured
  from the commit *before* the drills moved onto one scaffold; a
  refactor that moves a byte fails a named test. What :func:`normalise`
  masks: the temporary directory, runs of spaces (the ledger's column
  width is not part of the contract), and the loss fields, which depend
  on the BLAS build in their last digits. Regenerate with ``python tests/test_cli_drills.py``
  (writes the files from the tree on ``PYTHONPATH``) — only for a
  *declared* stdout change.
- ``serve-bench`` cannot have a golden: it runs on the wall clock, so
  its latency, outcome and shed figures vary from run to run. Its
  verdict does not, and the class below pins it.
- **The gate reads the ledger in every mode.** With one accepted request
  forced out of ``no_lost_requests`` every ``serve-bench`` mode — no
  injector, an injector over clean traffic, an injector under malformed
  traffic — must exit 1 and print the ``MISMATCH`` row, and a passing
  run prints exactly the rows that gate it.
"""

import re
from pathlib import Path

import pytest

from repro.cli import main
from repro.telemetry import get_registry

GOLDEN = Path(__file__).parent / "golden"

DRILLS = {
    "chaos": ["chaos", "--iters", "40", "--scale", "0.0002",
              "--tolerance", "1.0"],
}


def fresh_metrics():
    """The ledgers' counters live in the process-wide registry and a drill
    expects a process of its own."""
    get_registry().reset(prefix="serving.")


@pytest.fixture(autouse=True)
def _fresh_metrics():
    fresh_metrics()


_LOSS = re.compile(r"(smoothed loss : |rel diff )[0-9.]+")


def run_drill(argv, tmp_path, capsys):
    """Run one drill in ``tmp_path``; returns ``(exit code, stdout)``."""
    code = main([a.replace("TMP", str(tmp_path)) for a in argv])
    return code, capsys.readouterr().out


def normalise(out: str, tmp_path) -> str:
    out = _LOSS.sub(r"\1#", out.replace(str(tmp_path), "TMP"))
    return re.sub(r" +", " ", out)


class TestGoldens:
    @pytest.mark.parametrize("name", sorted(DRILLS))
    def test_stdout_is_the_parents(self, name, tmp_path, capsys):
        code, out = run_drill(DRILLS[name], tmp_path, capsys)
        assert code == 0, out
        golden = (GOLDEN / f"drill_{name}.txt").read_text()
        assert normalise(out, tmp_path) == golden


def _lose_one_request(monkeypatch):
    """Force one accepted request out of ``no_lost_requests`` — a wrapper
    around the fold, as a server that dropped a request would report."""
    from repro.serving import loadgen

    fold = loadgen.reconcile_ledger

    def lossy(injector, fault_rows, invariants, **kwargs):
        expected, counted = invariants["no_lost_requests"]
        invariants = {**invariants,
                      "no_lost_requests": (expected, counted - 1)}
        return fold(injector, fault_rows, invariants, **kwargs)

    monkeypatch.setattr(loadgen, "reconcile_ledger", lossy)


SINGLE_NODE = ["serve-bench", "--requests", "120", "--scale", "0.0003"]
INJECTOR = ["--fault-rate", "0.05", "--fault-seed", "123"]
SERVE_MODES = {
    "single_node": SINGLE_NODE,
    "single_node_injector": SINGLE_NODE + INJECTOR,
    "single_node_malformed": SINGLE_NODE + INJECTOR + ["--malformed", "0.3"],
}
FAULT_ROWS = ["request_faults_rejected", "queue_faults_shed",
              "backend_faults_failed_over"]


class TestTheGateReadsTheLedger:
    @pytest.mark.parametrize("mode", sorted(SERVE_MODES))
    def test_a_lost_request_fails_every_mode(self, mode, tmp_path, capsys,
                                             monkeypatch):
        _lose_one_request(monkeypatch)
        code, out = run_drill(SERVE_MODES[mode], tmp_path, capsys)
        assert code == 1, out
        row = next(ln for ln in out.splitlines() if "no_lost_requests" in ln)
        assert row.endswith("MISMATCH")
        assert "FAIL: see mismatches above" in out

    @pytest.mark.parametrize("mode", sorted(SERVE_MODES))
    def test_every_gating_row_is_printed(self, mode, tmp_path, capsys):
        """A check that gates is a row that prints: a passing run shows
        the invariants whether or not an injector ran, and says so when
        the fault rows were left out."""
        code, out = run_drill(SERVE_MODES[mode], tmp_path, capsys)
        assert code == 0, out
        rows = [ln.split()[0] for ln in out.splitlines()
                if " fired=" in ln]
        faults = FAULT_ROWS if mode == "single_node_injector" else []
        assert rows == faults + ["no_lost_requests"]
        assert ("fault rows skipped" in out) == (
            mode == "single_node_malformed")
        assert "PASS: zero non-finite outputs, ledgers reconcile" in out


if __name__ == "__main__":  # regenerate the goldens (see the module docstring)
    import contextlib
    import io
    import tempfile

    for name, argv in DRILLS.items():
        fresh_metrics()
        with tempfile.TemporaryDirectory() as tmp:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = main([a.replace("TMP", tmp) for a in argv])
            assert code == 0, buf.getvalue()
            (GOLDEN / f"drill_{name}.txt").write_text(
                normalise(buf.getvalue(), tmp))
            print(f"wrote drill_{name}.txt")
