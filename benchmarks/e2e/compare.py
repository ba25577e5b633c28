"""Compare two result sets written by ``run.py`` (no ``--workload``).

    python benchmarks/e2e/compare.py A.json B.json

For every workload x end-to-end metric: both medians, the ratio B/A with
its base, the bound from ``BENCHMARK.json`` and a verdict.

- ``worse`` / ``better``: B's median differs from A's by more than the
  bound, in that direction.
- ``same``: within the bound.
- ``unresolved``: the round-to-round spread of either side (distance
  between the quartiles of its rounds, over their median) exceeds the
  bound, so a difference of that size cannot be told from noise —
  unless every round of one side beats every round of the other, which
  settles it.

Exits 1 on any ``worse`` or a higher share of failed operations.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent


def spread(rounds: list[float]) -> float:
    if len(rounds) < 2:
        return 0.0
    # The 3-5 rounds of one run are all there is, not a sample to
    # extrapolate from: quartiles interpolate inside their range.
    q1, _, q3 = statistics.quantiles(rounds, n=4, method="inclusive")
    mid = statistics.median(rounds)
    return (q3 - q1) / abs(mid) if mid else 0.0


def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b["value"] - a["value"]) / abs(a["value"]) if a["value"] else 0.0
    cost_a = [sign * r for r in a["rounds"]]   # lower is better on both sides
    cost_b = [sign * r for r in b["rounds"]]
    if max(spread(a["rounds"]), spread(b["rounds"])) > bound:
        if max(cost_b) < min(cost_a):
            return "better"
        if min(cost_b) > max(cost_a):
            return "worse"
        return "unresolved"
    if worse_by > bound:
        return "worse"
    return "better" if worse_by < -bound else "same"


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        sys.exit(__doc__)
    with open(argv[1]) as fh:
        set_a = json.load(fh)
    with open(argv[2]) as fh:
        set_b = json.load(fh)
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    print(f"A = {argv[1]} (seed {set_a['seed']}, {set_a['seconds']:g} s)   "
          f"B = {argv[2]} (seed {set_b['seed']}, {set_b['seconds']:g} s)")
    print(f"{'workload':18s} {'metric':13s} {'A':>12s} {'B':>12s} {'B/A':>7s} "
          f"{'bound':>6s} {'spread A':>8s} {'spread B':>8s}  verdict")
    failed = False
    for workload, pair in set_a["workloads"].items():
        a_doc, b_doc = pair["untraced"], set_b["workloads"][workload]["untraced"]
        for name, m in spec.items():
            a, b = a_doc["metrics"][name], b_doc["metrics"][name]
            word = verdict(a, b, m["better"], m["bound"])
            failed |= word == "worse"
            print(f"{workload:18s} {name:13s} {a['value']:12.5g} {b['value']:12.5g} "
                  f"{b['value'] / a['value']:7.3f} {m['bound']:6.2f} "
                  f"{spread(a['rounds']):8.3f} {spread(b['rounds']):8.3f}  "
                  f"{word} ({m['better']} is better, {m['unit']})")
        share_a = a_doc["failed"] / a_doc["attempted"]
        share_b = b_doc["failed"] / b_doc["attempted"]
        more = share_b > share_a
        failed |= more
        print(f"{workload:18s} ops_failed    {a_doc['failed']:>6d}/{a_doc['attempted']:<6d}"
              f"{b_doc['failed']:>6d}/{b_doc['attempted']:<6d} "
              f"{'MORE FAILED' if more else 'ok'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
