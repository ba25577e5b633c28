"""End-to-end wall-clock benchmark: train step, Predictor batch, served request.

    python benchmarks/e2e/run.py                      # four workloads, untraced
    python benchmarks/e2e/run.py --traced             # ... plus a traced run of each
    python benchmarks/e2e/run.py --smoke              # ~2 s each, plus the name self-check
    python benchmarks/e2e/run.py --workload predict_zipf --seed 3 --seconds 10 --trace 0

Without ``--workload`` this is the harness: it runs every workload in a
fresh interpreter of its own (so ``peak_rss_mb`` is per workload),
prints every metric by name with its unit, and writes one result set
that ``compare.py`` reads. With ``--workload`` it runs that workload in
this process and prints, as the last line of standard output, the JSON
object the ``BENCHMARK.json`` contract asks for. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
OUT = HERE / "out"
BLAS_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
NO_HUGEPAGES = "NUMPY_MADVISE_HUGEPAGE"
SMOKE_SECONDS = 2.0

# The issue's per-path names for each (workload, generic metric) cell.
ALIASES = {
    "train": {"ops_per_s": "train_samples_per_s", "op_ms_p50": "train_step_ms_p50",
              "op_ms_tail": "train_step_ms_p90"},
    "predict": {"ops_per_s": "predict_lookups_per_s",
                "op_ms_p50": "predict_batch_ms_p50",
                "op_ms_tail": "predict_batch_ms_p90"},
    "serve": {"ops_per_s": "serve_capacity_rps", "op_ms_p50": "serve_ms_p50",
              "op_ms_tail": "serve_ms_p90", "goodput_frac": "serve_goodput_frac"},
}


def pin_environment() -> None:
    """One BLAS thread, exported before NumPy loads its thread pool: with
    the default pool on two shared cores serve p99 ranged 23-68 ms across
    identical runs, against 17-20 ms pinned. And one CPU, the last one
    allowed, away from the interrupts CPU 0 takes: over ten serve_open
    runs p95 ranged 6.5-7.9 ms pinned against 6.0-9.3 ms floating, with
    80 involuntary context switches a minute against 1500. And no
    transparent huge pages behind NumPy's large arrays: the guest has to
    compact memory to find one, which made six cold predict_zipf set-ups
    range 2.1-3.2 s (0.5-1.5 s of it system time) against 2.0-2.3 s
    (0.3-0.5 s) on plain pages, and peak RSS 428-437 MB against 426-427."""
    if "numpy" in sys.modules:
        sys.exit("benchmarks/e2e: NumPy was imported before the BLAS thread "
                 "pin; run this file as a script")
    for name in BLAS_PINS:
        os.environ[name] = "1"
    os.environ[NO_HUGEPAGES] = "0"
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def blas_threads_in_effect() -> int | None:
    """Ask the OpenBLAS that NumPy loaded how many threads it uses."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
        for lib in libs:
            handle = ctypes.CDLL(lib)
            # NumPy wheels prefix and suffix the symbol; plain builds do not.
            for symbol in ("scipy_openblas_get_num_threads64_",
                           "openblas_get_num_threads64_", "openblas_get_num_threads"):
                if hasattr(handle, symbol):
                    return int(getattr(handle, symbol)())
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy as np

    try:
        sha = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = None   # the driver's checkout is not a git repository
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "blas_env": {name: os.environ.get(name) for name in BLAS_PINS},
        "numpy_madvise_hugepage": os.environ.get(NO_HUGEPAGES),
        "blas_threads_in_effect": blas_threads_in_effect(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_sha": sha,
        "seed": seed,
    }


def benchmark_json() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def print_result(doc: dict) -> None:
    kind = doc["workload"].split("_")[0]
    print(f"== {doc['workload']} (seed {doc['seed']}, {doc['seconds']:g} s, "
          f"{'traced' if doc['traced'] else 'untraced'}, wall {doc['wall_s']:.1f} s)")
    for name, m in doc["metrics"].items():
        alias = ALIASES[kind].get(name)
        label = f"{name} [{alias}]" if alias else name
        extra = f"  (median of {len(m['rounds'])} rounds, {m['samples']} samples)" \
            if "rounds" in m else ""
        print(f"  {label:44s} {m['value']:>16.6g} {m['unit']}{extra}")
    print(f"  ops_attempted {doc['attempted']}  ops_failed {doc['failed']}")
    for name, share in doc.get("shares", {}).items():
        print(f"  share of traced self time: {name:10s} {share:6.1%}")
    print(f"  checks {doc['checks']}  checksums {doc['checksums']}")
    print(f"  info {doc['info']}")


def workload_command(workload: str, seed: int, seconds: float) -> list[str]:
    return [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds)]


def run_one(args) -> int:
    """--workload: run here, print the contract's last line."""
    from workloads import WORKLOADS, run_workload, timed_setup

    if args.workload not in WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    if args.setup_only:
        print(timed_setup(args.workload, args.seed, args.seconds).setup_s)
        return 0

    def cold_setup_s() -> float:
        cmd = workload_command(args.workload, args.seed, args.seconds)
        proc = subprocess.run(cmd + ["--setup-only"], capture_output=True,
                              text=True, check=True)
        return float(proc.stdout.split()[-1])

    doc = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                       OUT, cold_setup_s)
    doc["env"] = environment(args.seed)
    OUT.mkdir(parents=True, exist_ok=True)
    suffix = ".traced" if args.trace else ""
    with open(OUT / f"result_{args.workload}{suffix}.json", "w") as fh:
        json.dump(doc, fh, indent=1)
    print_result(doc)
    print(json.dumps({
        "correct": doc["correct"], "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in doc["metrics"].items()},
    }))
    return 0 if doc["correct"] else 1


def child(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One workload in a fresh interpreter; returns its result document."""
    cmd = workload_command(workload, seed, seconds) + ["--trace", str(trace)]
    result = OUT / f"result_{workload}{'.traced' if trace else ''}.json"
    result.unlink(missing_ok=True)   # never read a previous run's document
    proc = subprocess.run(cmd, capture_output=True, text=True)
    sys.stdout.write(proc.stdout.rsplit("\n", 2)[0] + "\n")   # all but the JSON line
    if not result.exists():
        sys.exit(f"{workload}: exit {proc.returncode}\n{proc.stderr}")
    with open(result) as fh:
        return json.load(fh)


def self_check(results: dict) -> list[str]:
    """BENCHMARK.json and run.py must name the same workloads and metrics."""
    spec = benchmark_json()
    problems = []
    name_re = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    for key, limit in (("workloads", (2, 8)), ("end_to_end", (1, 16)),
                       ("per_layer", (1, 128))):
        names = [entry["name"] for entry in spec[key]]
        if not limit[0] <= len(names) <= limit[1]:
            problems.append(f"{key}: {len(names)} entries, allowed {limit}")
        problems += [f"{key}: bad name {n!r}" for n in names if not name_re.match(n)]
    declared = {w["name"] for w in spec["workloads"]}
    if declared != set(results):
        problems.append(f"workloads differ: {sorted(declared ^ set(results))}")
    for workload, pair in results.items():
        for key, doc in (("end_to_end", pair["untraced"]), ("per_layer", pair["traced"])):
            declared = {m["name"]: m["unit"] for m in spec[key]}
            emitted = {k: m["unit"] for k, m in doc["metrics"].items()}
            if declared != emitted:
                diff = sorted(set(declared.items()) ^ set(emitted.items()))
                problems.append(f"{workload} {key}: BENCHMARK.json vs run.py {diff}")
    return problems


def run_all(args) -> int:
    from workloads import WORKLOADS   # after the pin; names only

    seconds = SMOKE_SECONDS if args.smoke else args.seconds
    traced = args.traced or args.smoke
    results, problems = {}, []
    for workload in WORKLOADS:
        pair = {"untraced": child(workload, args.seed, seconds, 0)}
        if traced:
            pair["traced"] = child(workload, args.seed, seconds, 1)
            # Tracing may change no arithmetic.
            if pair["traced"]["checksums"] != pair["untraced"]["checksums"]:
                problems.append(f"{workload}: traced checksums differ from untraced")
        problems += [f"{workload} ({mode}): check failed: {doc['checks']}"
                     for mode, doc in pair.items() if not doc["correct"]]
        results[workload] = pair
    if args.smoke:
        problems += self_check(results)
    doc = {"schema": "bench.e2e.results/v1", "seed": args.seed, "seconds": seconds,
           "env": results[next(iter(results))]["untraced"]["env"],
           "workloads": results}
    out = Path(args.out) if args.out else OUT / "results.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as fh:
        json.dump(doc, fh, indent=1)
    print(f"environment: {doc['env']}")
    print(f"wrote {out}")
    for problem in problems:
        print(f"FAIL {problem}")
    if not problems:
        print("all correctness checks passed"
              + ("; BENCHMARK.json and run.py agree" if args.smoke else ""))
    return 1 if problems else 0


def main() -> int:
    pin_environment()
    sys.path[:0] = [str(ROOT / "src")]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="run one workload in this process")
    parser.add_argument("--seed", type=int, default=0,
                        help="seeds the generated inputs and arrival schedule only")
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the timed section (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 prints the per-layer metrics")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--traced", action="store_true",
                        help="harness: also run each workload traced")
    parser.add_argument("--smoke", action="store_true",
                        help=f"harness: {SMOKE_SECONDS:g} s per workload, traced too, "
                             "plus the BENCHMARK.json name self-check")
    parser.add_argument("--out", help="harness: where to write the result set")
    args = parser.parse_args()
    if args.seconds is None:
        args.seconds = float(benchmark_json()["run_seconds"])
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
