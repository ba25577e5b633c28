"""The root ``BENCH_e2e.json``: the result sets behind every end-to-end
performance claim, and the headline table docs/PERFORMANCE.md prints from
the newest one.

Each entry holds both trees' runs of ``benchmarks/e2e/run.py`` (the last
stdout line of each, in pair order) and a ``summary`` of them: per
workload and end-to-end metric, each tree's median and quartiles and the
pairs the change won. The summary is recomputed here from the runs, so a
hand-edited number fails, and the newest entry's summary must be the
table docs/PERFORMANCE.md shows under its PR's heading, cell for cell.
"""

import json
import re
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORD = json.loads((ROOT / "BENCH_e2e.json").read_text())
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {w["name"] for w in SPEC["workloads"]}
METRICS = {m["name"]: m for m in SPEC["end_to_end"]}
ENTRY_KEYS = ("pr", "parent", "command", "seed", "seconds", "claim", "host",
              "summary")
CELL_KEYS = ("parent_median", "parent_q1", "parent_q3",
             "change_median", "change_q1", "change_q3")
ENTRIES = RECORD["entries"]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def test_the_record_is_tagged():
    assert RECORD["schema"] == "repro.bench/v1" and RECORD["bench"] == "e2e"
    assert ENTRIES


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: f"pr{e.get('pr')}")
class TestEntry:
    def test_carries_what_a_rerun_needs(self, entry):
        missing = [key for key in ENTRY_KEYS if key not in entry]
        assert not missing
        assert isinstance(entry["seed"], int) and entry["seconds"] > 0
        assert entry["command"].startswith("python3 benchmarks/e2e/run.py")
        assert re.fullmatch(r"[0-9a-f]{40}", entry["parent"])

    def test_claim_names_a_benchmark_workload_and_metric(self, entry):
        claim = entry["claim"]
        assert claim["workload"] in WORKLOADS
        assert claim["metric"] in METRICS
        assert claim["workload"] in entry["summary"]

    def test_every_summary_cell_is_its_runs_medians_and_quartiles(self, entry):
        assert set(entry["summary"]) <= WORKLOADS
        for workload, cells in entry["summary"].items():
            runs = entry["results"][workload]
            assert len(runs["parent"]) == len(runs["change"]) == runs["pairs"]
            assert set(cells) == set(METRICS) | {"failed_ops"}
            for side in ("parent", "change"):
                assert cells["failed_ops"][side] == sum(
                    run["failed"] for run in runs[side])
            for name, metric in METRICS.items():
                cell = cells[name]
                assert all(key in cell for key in CELL_KEYS), (workload, name)
                assert cell["better"] == metric["better"]
                values = {side: [run["metrics"][name]["value"]
                                 for run in runs[side]]
                          for side in ("parent", "change")}
                for side, vals in values.items():
                    want = quartiles(vals)
                    got = tuple(cell[f"{side}_{k}"]
                                for k in ("q1", "median", "q3"))
                    assert got == pytest.approx(want, rel=1e-12), (workload, name)
                higher = metric["better"] == "higher"
                wins = sum((c > p) if higher else (c < p)
                           for p, c in zip(values["parent"], values["change"]))
                assert cell["change_wins"] == wins, (workload, name)


# ---------------------------------------------------------------------- #
# The newest entry's headline table in docs/PERFORMANCE.md
# ---------------------------------------------------------------------- #

def number(value: float) -> str:
    """How the headline table prints a value."""
    return f"{value:,.0f}" if abs(value) >= 1000 else f"{value:.4g}"


def headline_rows(entry: dict) -> list[list[str]]:
    """The table rows ``entry['summary']`` prints as, in workload order
    then BENCHMARK.json's metric order."""
    rows = []
    for workload, cells in entry["summary"].items():
        pairs = entry["results"][workload]["pairs"]
        for name in METRICS:
            cell = cells[name]
            rows.append([
                f"`{workload}`", f"`{name}`",
                *(f"{number(cell[f'{side}_median'])} "
                  f"[{number(cell[f'{side}_q1'])}, {number(cell[f'{side}_q3'])}]"
                  for side in ("parent", "change")),
                f"{cell['change_over_parent']:.3f}",
                f"{cell['change_wins']} of {pairs}",
            ])
        failed = cells["failed_ops"]
        rows.append([f"`{workload}`", "failed ops", str(failed["parent"]),
                     str(failed["change"]), "", ""])
    return rows


def documented_rows(pr: int) -> list[list[str]]:
    """Rows of the first table under the ``(PR <pr>)`` heading."""
    lines = (ROOT / "docs" / "PERFORMANCE.md").read_text().splitlines()
    start = next(i for i, line in enumerate(lines)
                 if line.startswith("## ") and f"(PR {pr})" in line)
    rows = []
    for line in lines[start + 1:]:
        if line.startswith("## "):
            break
        if line.startswith("|"):
            rows.append([c.strip() for c in line.strip().strip("|").split("|")])
        elif rows:
            break
    assert len(rows) > 2, f"no table under the PR {pr} heading"
    return rows[2:]  # past the header and its rule


def test_the_newest_headline_table_is_its_summary():
    entry = ENTRIES[-1]
    assert documented_rows(entry["pr"]) == headline_rows(entry)
