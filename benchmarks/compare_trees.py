"""Do two commits compute the same thing? Compare their e2e smoke outputs.

    python benchmarks/compare_trees.py REF        # e.g. HEAD~1, main

Checks ``REF`` out with ``git worktree add`` into a temporary directory,
runs ``benchmarks/e2e/run.py --smoke`` there and in this working tree
(each with its own ``src`` on ``PYTHONPATH``), and prints, per workload
and per traced/untraced run, every ``checks`` or ``checksums`` entry that
differs. Exits 1 when any entry differs or a smoke run produces no result
set, 0 otherwise, and removes the worktree either way.

Timings and per-layer metrics are not compared: they move from run to
run. A refactor that claims to change no arithmetic should print
``identical`` for every workload.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIELDS = ("checks", "checksums")


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def smoke(tree: Path, out: Path) -> dict:
    """``run.py --smoke`` in ``tree``; its result set's workloads."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run(
        [sys.executable, str(tree / "benchmarks" / "e2e" / "run.py"),
         "--smoke", "--out", str(out)],
        cwd=tree, env=env, capture_output=True, text=True)
    for line in proc.stdout.splitlines():
        if line.startswith("FAIL"):
            print(f"  {tree.name}: {line}")
    if not out.exists():
        sys.exit(f"{tree}: run.py --smoke exited {proc.returncode} with no "
                 f"result set\n{proc.stdout}{proc.stderr}")
    with open(out) as fh:
        return json.load(fh)["workloads"]


def differences(ref: dict, head: dict) -> dict[str, list[str]]:
    """Per workload, one line per ``checks``/``checksums`` entry that differs."""
    diff = {}
    for workload in sorted(ref.keys() | head.keys()):
        runs_a, runs_b = ref.get(workload, {}), head.get(workload, {})
        lines = []
        for mode in sorted(runs_a.keys() | runs_b.keys()):
            doc_a, doc_b = runs_a.get(mode, {}), runs_b.get(mode, {})
            for field in FIELDS:
                a, b = doc_a.get(field, {}), doc_b.get(field, {})
                lines += [f"{mode} {field}.{key}: {a.get(key)} -> {b.get(key)}"
                          for key in sorted(a.keys() | b.keys())
                          if a.get(key) != b.get(key)]
        diff[workload] = lines
    return diff


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("ref", help="commit to compare this working tree with")
    args = parser.parse_args()
    sha = git("rev-parse", "--verify", f"{args.ref}^{{commit}}")
    with tempfile.TemporaryDirectory(prefix="compare_trees_") as tmp:
        worktree = Path(tmp) / "ref"
        git("worktree", "add", "--detach", str(worktree), sha)
        try:
            print(f"{args.ref} ({sha[:12]}) in {worktree}")
            ref = smoke(worktree, Path(tmp) / "ref.json")
            print(f"this tree: {ROOT}")
            head = smoke(ROOT, Path(tmp) / "head.json")
        finally:
            git("worktree", "remove", "--force", str(worktree))
    diff = differences(ref, head)
    for workload, lines in diff.items():
        print(f"{workload}: " + ("identical" if not lines else
                                 f"{len(lines)} differ ({args.ref} -> this tree)"))
        for line in lines:
            print(f"  {line}")
    return 1 if any(diff.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
