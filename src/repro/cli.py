"""Command-line interface: ``python -m repro <cmd>``.

``repro --help`` lists the subcommands and ``repro <cmd> --help`` each
one's options; docs/ walks through them.

``report`` writes the paper claims that need no training (Table 2,
Fig. 5 and Fig. 9) from their row functions in :mod:`repro.analysis`.
The drills — ``train``, ``chaos``, ``profile``, ``serve-bench`` — run
the scaled synthetic dataset for a few seconds and stand on one scaffold
("The drill scaffold" below): one model recipe, one seeded-injector
table, one context manager for the ``--trace-jsonl`` / ``--slo`` /
``--trace-sample`` / ``--flight-dir`` listeners, one ledger table whose
verdict is :func:`repro.serving.loadgen.reconcile_ledger`'s, one
PASS/FAIL line and one ``--emit-json`` snapshot (schema
``repro.telemetry/v1``; see docs/OBSERVABILITY.md).
"""

from __future__ import annotations

import argparse
import contextlib
import sys

import numpy as np

__all__ = ["main", "build_parser"]


def _cmd_report(args) -> int:
    """Write the paper claims that need no training to one markdown report."""
    from repro.analysis.locality import stability_series, top_set_stability
    from repro.analysis.memory import model_size_table, table2_table
    from repro.bench.reporting import format_table
    from repro.data import KAGGLE, TERABYTE
    from repro.data.zipf import ZipfSampler

    rows, zipf_s, k = 50_000, 1.05, 500
    trace = top_set_stability(ZipfSampler(rows, zipf_s, rng=0).sample(150_000),
                              k=k, checkpoint_fraction=0.03)
    sections = {
        "Paper Table 2 (exact)": format_table(
            *table2_table(KAGGLE), title="Paper Table 2 (exact)"),
        "Model sizes (Fig. 5 / §6)": format_table(
            *model_size_table((KAGGLE, TERABYTE)),
            title="Model size at rank 32 (Fig. 5 / §6)"),
        "Hot-set stability (Fig. 9 style)": stability_series(
            trace, f"top-{k} set churn (Zipf s={zipf_s}, {rows:,} rows)"),
    }
    body = "# TT-Rec analysis report\n\n" + "\n".join(
        f"## {title}\n\n```\n{text.strip()}\n```\n"
        for title, text in sections.items())
    with open(args.out, "w") as fh:
        fh.write(body)
    print(f"wrote {args.out} ({len(body)} bytes, {len(sections)} sections)")
    return 0


# ---------------------------------------------------------------------- #
# The drill scaffold: what `train`, `chaos`, `profile` and `serve-bench`
# each do around their own run, written once.
# ---------------------------------------------------------------------- #

_WIDE_MLP = ((32, 16), (32,))
# TTConfig fields of the training drills' LFU cache (chaos, profile).
_TRAINING_CACHE = dict(use_cache=True, warmup_steps=5, refresh_interval=40,
                       cache_fraction=0.05)


def _scaled_kaggle(args, *, mlp=((16,), (16,)), min_rows: int = 60, **tt):
    """The drills' model recipe on the ``--scale``d Kaggle layout.

    Returns a namespace of ``cfg``, ``build`` and ``stream``: every
    ``build()`` is one identically seeded TT-Rec with 7 TT tables at
    ``--rank`` (``mlp`` is the (bottom, top) tower widths, ``tt`` further
    ``TTConfig`` fields) and every ``stream()`` the same seeded synthetic
    click stream from its start.
    """
    from repro.data import KAGGLE, SyntheticCTRDataset
    from repro.models import DLRMConfig, TTConfig, build_ttrec

    spec = KAGGLE.scaled(args.scale)
    cfg = DLRMConfig(table_sizes=spec.table_sizes, emb_dim=8,
                     bottom_mlp=mlp[0], top_mlp=mlp[1])

    def stream(noise: float = 0.7):
        return SyntheticCTRDataset(spec, seed=args.seed, noise=noise)

    def build():
        return build_ttrec(cfg, num_tt_tables=7,
                           tt=TTConfig(rank=args.rank, **tt),
                           min_rows=min_rows, rng=args.seed)

    return argparse.Namespace(cfg=cfg, build=build, stream=stream)


def _checkpoints(args, slug: str):
    """The run's manager under ``--checkpoint-dir``/``slug``, if asked for."""
    if not args.checkpoint_dir:
        return None
    import os

    from repro.reliability import CheckpointManager

    return CheckpointManager(os.path.join(args.checkpoint_dir, slug))


def _injector(seed: int, sites: dict):
    """A seeded injector from ``{site: (rate, register() keywords)}``.

    Sites at rate 0 are not registered; with none left there is no
    injector at all, which is how every drill spells "no chaos".
    """
    from repro.reliability import FaultInjector

    armed = {site: spec for site, spec in sites.items() if spec[0] > 0}
    if not armed:
        return None
    injector = FaultInjector(seed=seed)
    for site, (rate, keywords) in armed.items():
        injector.register(site, rate, **keywords)
    return injector


@contextlib.contextmanager
def _observed(args):
    """Arm the listeners the command has and was given, for one run.

    The telemetry stream always runs on ``monotonic_ms``: it writes to
    ``--trace-jsonl`` (when given) and traces every ``--trace-sample``-th
    request id (when > 0). ``--slo`` arms the burn-rate engine and
    ``--flight-dir`` the flight recorder (a ring of the stream). All are
    detached on the way out, run or raise. Yields a namespace holding
    ``slo`` and ``recorder`` (``None`` when not armed).
    """
    from repro import telemetry
    from repro.serving.queue import monotonic_ms

    armed = argparse.Namespace(slo=None, recorder=None)
    try:
        if getattr(args, "slo", None):
            armed.slo = telemetry.SLOEngine(telemetry.load_policy(args.slo))
        telemetry.get_request_tracer().configure(
            sample_every=getattr(args, "trace_sample", 0),
            path=args.trace_jsonl, clock=monotonic_ms, seed=args.seed,
        )
        if getattr(args, "flight_dir", None):
            armed.recorder = telemetry.install_flight_recorder(
                telemetry.FlightRecorder(args.flight_dir, clock=monotonic_ms))
        yield armed
    finally:
        telemetry.get_request_tracer().shutdown()
        telemetry.uninstall_flight_recorder()


def _print_ledger(recon: dict) -> bool:
    """The ``reconcile_ledger`` table, one row per check that gates;
    returns its verdict. Which rows count is the ledger's rule
    (:func:`repro.serving.loadgen.reconcile_ledger`), not the CLI's."""
    print("reconcile :")
    for name, check in recon["checks"].items():
        print(f"  {name:28s} fired={check['fired']:<6d} "
              f"counted={check['counted']:<6d} "
              f"{'ok' if check['passed'] else 'MISMATCH'}")
    if "skipped" in recon:
        print(f"  fault rows skipped ({recon['skipped']})")
    return recon["passed"]


def _print_flightrec(recorder, flight_dir) -> None:
    if recorder is None:
        return
    summ = recorder.summary()
    if summ["dumps"]:
        print(f"flightrec : {len(summ['dumps'])} dump(s) in "
              f"{flight_dir}: " + ", ".join(sorted(summ["dumps"])))
    else:
        print(f"flightrec : armed ({summ['events_seen']} events), "
              f"no trigger fired")


def _verdict(ok: bool, passed: str,
             failed: str = "see mismatches above") -> int:
    """Print the drill's PASS/FAIL line; returns the exit code it means."""
    print(f"{'PASS' if ok else 'FAIL'}: {passed if ok else failed}")
    return 0 if ok else 1


def _emit_json(args, command: str, result: dict, lead: str = "") -> None:
    """``--emit-json``: the run's ``repro.telemetry/v1`` snapshot."""
    if args.emit_json:
        from repro.telemetry import write_snapshot

        write_snapshot(args.emit_json, command=command, result=result)
        print(f"{lead}wrote telemetry snapshot to {args.emit_json}")


def _cmd_train(args) -> int:
    from repro.models import build_dlrm
    from repro.training import Trainer

    kaggle = _scaled_kaggle(args, mlp=_WIDE_MLP)
    summaries = {}
    for name, model in (
        ("baseline", build_dlrm(kaggle.cfg, rng=args.seed)),
        (f"tt-rec r{args.rank}", kaggle.build()),
    ):
        ds = kaggle.stream()
        trainer = Trainer(model, lr=0.1)
        ckpt_kwargs = {}
        manager = _checkpoints(args, name.split()[0].replace("-", "_"))
        if manager is not None:
            resume = manager if (args.resume
                                 and manager.latest_step() is not None) else None
            ckpt_kwargs = dict(checkpoint_dir=manager.directory,
                               checkpoint_every=args.checkpoint_every,
                               resume_from=resume)
        res = trainer.train(ds.batches(96, args.iters), **ckpt_kwargs)
        ev = trainer.evaluate(ds.batches(512, 6))
        resumed = (f" (resumed at {res.start_iteration})"
                   if res.start_iteration else "")
        print(f"{name:14s} emb_params={model.embedding_parameters():>9,} "
              f"{res.ms_per_iter:6.2f} ms/iter  {ev}{resumed}")
        summaries[name] = {
            "emb_params": int(model.embedding_parameters()),
            "iterations": res.iterations,
            "ms_per_iter": res.ms_per_iter,
            "ms_per_iter_steady": res.ms_per_iter_steady,
            "stage_ms_per_iter": res.timing_breakdown(),
            "final_loss": res.final_loss,
            "accuracy": ev.accuracy, "bce": ev.bce, "auc": ev.auc,
            "ne": ev.ne,
        }
    _emit_json(args, "train", {"models": summaries})
    return 0


def _cmd_profile(args) -> int:
    """Telemetry drill-down over one short instrumented workload."""
    from repro import telemetry
    from repro.bench.reporting import format_table
    from repro.training import Trainer

    kaggle = _scaled_kaggle(args, mlp=_WIDE_MLP, **_TRAINING_CACHE)
    tracer = telemetry.get_tracer()
    tracer.reset()
    with _observed(args):
        telemetry.enable_tracing()
        try:
            model = kaggle.build()
            trainer = Trainer(model, lr=0.1)
            with telemetry.trace("profile.train"):
                res = trainer.train(
                    kaggle.stream().batches(args.batch_size, args.iters))
        finally:
            telemetry.disable_tracing()

    print(f"profile workload: {args.iters} iters, batch {args.batch_size}, "
          f"TT rank {args.rank}")
    print("\n== span tree " + "=" * 50)
    print(tracer.format_tree())

    print("\n== per-iteration breakdown " + "=" * 36)
    breakdown = res.timing_breakdown()
    print(format_table(
        ["stage", "ms/iter", "share"],
        [[stage, f"{ms:.3f}",
          f"{ms / res.ms_per_iter:.1%}" if res.ms_per_iter else "-"]
         for stage, ms in breakdown.items()],
    ))
    print(f"overall: {res.ms_per_iter:.2f} ms/iter "
          f"(steady-state {res.ms_per_iter_steady:.2f})")

    print("\n== shared metrics registry " + "=" * 36)
    counters = telemetry.get_registry().snapshot()["counters"]
    rows = [[key, value] for key, value in counters.items() if value]
    print(format_table(["counter", "value"], rows))

    cached = [emb for emb in model.embeddings if hasattr(emb, "stats")]
    if cached:
        print("\n== cache stats " + "=" * 48)
        print(format_table(
            ["module", "lookups", "hits", "misses", "hit rate", "repairs"],
            [[emb.metrics_label, s["lookups"], s["hits"], s["misses"],
              f"{s['hit_rate']:.1%}", s["repairs"]]
             for emb in cached for s in [emb.stats()]],
        ))

    _emit_json(args, "profile", {
        "iterations": res.iterations,
        "ms_per_iter": res.ms_per_iter,
        "ms_per_iter_steady": res.ms_per_iter_steady,
        "stage_ms_per_iter": breakdown,
        "cache": {emb.metrics_label: emb.stats() for emb in cached},
    }, lead="\n")
    return 0


def _cmd_chaos(args) -> int:
    """Fault-injection drill: guarded faulty run vs the fault-free run."""
    from repro.ops.optim import Adagrad
    from repro.reliability import DivergenceGuard, FaultInjector, GuardPolicy
    from repro.training import Trainer

    kaggle = _scaled_kaggle(args, min_rows=50, **_TRAINING_CACHE)

    def run(injector):
        model = kaggle.build()
        if injector is not None:
            for emb in model.embeddings:
                if hasattr(emb, "cache_rows"):
                    emb.injector = injector
        guard = DivergenceGuard(GuardPolicy())
        trainer = Trainer(model, optimizer=Adagrad(model.parameters(), lr=0.05),
                          guard=guard, injector=injector)
        res = trainer.train(kaggle.stream(noise=0.6).batches(64, args.iters))
        return res.smoothed_loss(50), guard

    with _observed(args):
        clean, _ = run(None)
        # Registered by --sites, at any --prob (0 included): the counters
        # below list every site asked for.
        inj = FaultInjector(seed=args.fault_seed)
        if "grad" in args.sites:
            inj.register("trainer.grad", args.prob, kind="nan", max_elements=4)
        if "cache" in args.sites:
            inj.register("cache.row", args.prob, kind="nan", max_elements=2)
        faulted, guard = run(inj)
    rel = abs(faulted - clean) / clean

    print(f"fault-free smoothed loss : {clean:.5f}")
    print(f"faulted    smoothed loss : {faulted:.5f}  (rel diff {rel:.2%})")
    print(f"injector: {inj.counters()}")
    print(f"guard   : {guard.events}")
    ok = rel <= args.tolerance
    bound = f"{args.tolerance * 100:g}% of fault-free"
    code = _verdict(ok, f"faulted run within {bound}",
                    f"faulted run exceeds {bound}")
    _emit_json(args, "chaos", {
        "clean_smoothed_loss": clean,
        "faulted_smoothed_loss": faulted,
        "rel_diff": rel,
        "tolerance": args.tolerance,
        "passed": ok,
        "injector": inj.counters(),
        "guard_events": guard.events,
    })
    return code


def _cmd_serve_bench(args) -> int:
    """Wall-clock load test of the hardened serving runtime.

    Exit is non-zero on any non-finite output, a ledger out of balance
    (``reconcile_ledger``: invariants on every run, fault rows when an
    injector ran over clean traffic) or a gated SLO burning its budget —
    the contract the ``serving-chaos`` CI job relies on.
    """
    from repro import telemetry
    from repro.serving import InferenceServer, ServerConfig, run_load

    model = _scaled_kaggle(args, use_cache=True, warmup_steps=0,
                           refresh_interval=None,
                           cache_fraction=0.05).build()
    injector = _injector(args.fault_seed, {
        "serving.request": (args.fault_rate, {"kind": "nan"}),
        "serving.queue": (args.fault_rate, {}),
        "serving.backend": (args.fault_rate,
                            {"kind": "nan", "max_elements": 4}),
    })
    config = ServerConfig(
        oov_policy=args.policy, max_depth=args.max_depth,
        max_batch=args.max_batch,
        default_deadline_ms=args.deadline_ms, cooldown=10,
    )
    with _observed(args) as obs:
        report = run_load(
            InferenceServer(model, config=config, injector=injector),
            num_requests=args.requests,
            mean_interarrival_ms=args.interarrival_ms,
            deadline_ms=args.deadline_ms, malformed=args.malformed,
            seed=args.seed, slo=obs.slo,
        )

    lat = report["latency_ms"]
    out = report["outcomes"]
    print(f"serve-bench: {args.requests} requests, batch<= "
          f"{args.max_batch}, deadline {args.deadline_ms:g} ms, "
          f"fault rate {args.fault_rate:g}, malformed {args.malformed:g}")
    print(f"latency   : p50 {lat['p50']:.2f} ms  p99 {lat['p99']:.2f} ms  "
          f"max {lat['max']:.2f} ms")
    print(f"outcomes  : served {report['served']}  queued {out['queued']}  "
          f"rejected {out['rejected']}  shed {out['shed']} "
          f"(+{report['shed']['deadline']} at deadline)  "
          f"shed rate {report['shed_rate']:.1%}")
    print(f"degraded  : {report['degraded_responses']} responses via "
          f"fallback rungs; backend failures "
          f"{report['stats']['backend_failures']}; scrubbed rows "
          f"{report['stats']['scrubbed_rows']}")
    transitions = report["breaker_transitions"]
    shown = ", ".join(f"{t['breaker']}:{t['from']}->{t['to']}"
                      for t in transitions[:6])
    print(f"breakers  : {len(transitions)} transitions"
          + (f" ({shown}{', ...' if len(transitions) > 6 else ''})"
             if transitions else ""))
    print(f"health    : {report['health']['status']}  "
          f"non-finite outputs {report['non_finite_outputs']}")

    ok = report["non_finite_outputs"] == 0
    ok = _print_ledger(report["reconciliation"]) and ok
    if args.trace_sample > 0:
        print(f"traces    : {telemetry.get_request_tracer().finished} sampled "
              f"(every {args.trace_sample}th request id)"
              + (f" -> {args.trace_jsonl}" if args.trace_jsonl else ""))
    _print_flightrec(obs.recorder, args.flight_dir)
    if "slo" in report:
        print(telemetry.format_report(report["slo"]))
        ok = bool(report["slo"]["gate_passed"]) and ok
    code = _verdict(ok, "zero non-finite outputs, ledgers reconcile")
    _emit_json(args, "serve-bench", {"report": report, "passed": ok})
    return code


def _cmd_trace(args) -> int:
    """Inspect a ``repro.trace/v1`` JSONL: span trees + critical paths."""
    import json

    from repro.telemetry import (
        critical_path,
        format_trace_tree,
        read_trace,
        slowest_traces,
    )

    try:
        traces = read_trace(args.jsonl)
    except FileNotFoundError:
        print(f"repro trace: no such file: {args.jsonl}", file=sys.stderr)
        return 2
    except (ValueError, json.JSONDecodeError) as exc:
        print(f"repro trace: invalid trace file: {exc}", file=sys.stderr)
        return 2
    if not traces:
        print("repro trace: file holds no traces", file=sys.stderr)
        return 1
    if args.trace_id:
        if args.trace_id not in traces:
            print(f"repro trace: trace {args.trace_id} not found "
                  f"({len(traces)} trace(s) in file)", file=sys.stderr)
            return 2
        selected = [(args.trace_id, traces[args.trace_id])]
    else:
        selected = slowest_traces(traces, args.slowest)
        print(f"{len(traces)} trace(s); showing the {len(selected)} slowest")
    for tid, spans in selected:
        print(format_trace_tree(tid, spans))
        if args.critical_path:
            chain = " -> ".join(
                f"{rec['name']} ({rec['end_ms'] - rec['start_ms']:.2f} ms)"
                for rec in critical_path(spans)
            )
            print(f"  critical path: {chain}")
    return 0


def _cmd_slo_report(args) -> int:
    """Re-render a stored SLO report; exit code follows the gate."""
    import json

    from repro.telemetry import REPORT_SCHEMA, format_report

    try:
        with open(args.json) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        print(f"repro slo-report: no such file: {args.json}",
              file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"repro slo-report: invalid JSON: {exc}", file=sys.stderr)
        return 2
    if doc.get("schema") == REPORT_SCHEMA:
        rep = doc
    else:
        # Accept a serve-bench --emit-json snapshot with a nested report.
        rep = (doc.get("result", {}).get("report", {}) or {}).get("slo")
        if not isinstance(rep, dict) or rep.get("schema") != REPORT_SCHEMA:
            print(f"repro slo-report: {args.json} holds no "
                  f"{REPORT_SCHEMA} document", file=sys.stderr)
            return 2
    print(format_report(rep))
    return 0 if rep["gate_passed"] else 1


def _positive_int(text: str) -> int:
    """argparse type for a count that must be at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _nonnegative_float(text: str) -> float:
    """argparse type for a finite quantity that may be 0."""
    value = float(text)
    if not (np.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text}")
    return value


def _positive_float(text: str) -> float:
    """argparse type for a finite quantity that must be above 0."""
    value = float(text)
    if not (np.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text}")
    return value


def _probability(text: str) -> float:
    """argparse type for a probability: finite, in [0, 1]."""
    value = float(text)
    if not 0.0 <= value <= 1.0:  # NaN fails both comparisons
        raise argparse.ArgumentTypeError(f"must be in [0, 1], got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="TT-Rec reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("report",
                       help="write the no-training paper claims (Table 2, "
                            "Fig. 5, Fig. 9) to markdown")
    p.add_argument("--out", default="REPORT.md")
    p.set_defaults(fn=_cmd_report)

    p = sub.add_parser("train", help="demo training: baseline vs TT-Rec")
    p.add_argument("--iters", type=_positive_int, default=200)
    p.add_argument("--rank", type=_positive_int, default=16)
    p.add_argument("--scale", type=_positive_float, default=0.0005)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--checkpoint-dir", default=None,
                   help="directory for periodic checkpoints (per model)")
    p.add_argument("--checkpoint-every", type=_positive_int, default=50,
                   help="iterations between checkpoints")
    p.add_argument("--resume", action="store_true",
                   help="resume each model from its latest checkpoint")
    p.add_argument("--emit-json", default=None, metavar="PATH",
                   help="write a repro.telemetry/v1 snapshot JSON")
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("profile",
                       help="span tree + metrics registry for a short "
                            "instrumented workload")
    p.add_argument("--iters", type=_positive_int, default=60)
    p.add_argument("--rank", type=_positive_int, default=16)
    p.add_argument("--scale", type=_positive_float, default=0.0005)
    p.add_argument("--batch-size", type=_positive_int, default=96)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--emit-json", default=None, metavar="PATH",
                   help="write a repro.telemetry/v1 snapshot JSON")
    p.add_argument("--trace-jsonl", default=None, metavar="PATH",
                   help="write the run's events as a telemetry stream "
                        "(repro.trace/v1 JSONL)")
    p.set_defaults(fn=_cmd_profile)

    p = sub.add_parser("chaos",
                       help="fault-injection drill: guarded run vs fault-free")
    p.add_argument("--iters", type=_positive_int, default=300)
    p.add_argument("--rank", type=_positive_int, default=8)
    p.add_argument("--scale", type=_positive_float, default=0.0003)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fault-seed", type=int, default=123)
    p.add_argument("--sites", nargs="+", choices=["grad", "cache"],
                   default=["grad", "cache"])
    p.add_argument("--prob", type=_probability, default=0.02,
                   help="per-site fault probability")
    p.add_argument("--tolerance", type=_nonnegative_float, default=0.01,
                   help="allowed relative smoothed-loss gap vs fault-free")
    p.add_argument("--emit-json", default=None, metavar="PATH",
                   help="write a repro.telemetry/v1 snapshot JSON")
    p.add_argument("--trace-jsonl", default=None, metavar="PATH",
                   help="write the run's events as a telemetry stream "
                        "(repro.trace/v1 JSONL)")
    p.set_defaults(fn=_cmd_chaos)

    p = sub.add_parser("serve-bench",
                       help="wall-clock load test of the hardened serving "
                            "runtime (docs/SERVING.md)")
    p.add_argument("--requests", type=_positive_int, default=1000)
    p.add_argument("--rank", type=_positive_int, default=4)
    p.add_argument("--scale", type=_positive_float, default=0.0005)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--policy", choices=["clamp", "hash", "reject"],
                   default="clamp", help="out-of-vocabulary id policy")
    p.add_argument("--max-depth", type=_positive_int, default=64,
                   help="queue depth bound (arrivals beyond it are shed)")
    p.add_argument("--max-batch", type=_positive_int, default=32)
    p.add_argument("--deadline-ms", type=_positive_float, default=100.0)
    p.add_argument("--interarrival-ms", type=_nonnegative_float, default=1.0,
                   help="mean gap between arrivals (ms)")
    p.add_argument("--malformed", type=_probability, default=0.0,
                   help="fraction of deliberately malformed requests")
    p.add_argument("--fault-rate", type=_probability, default=0.0,
                   help="per-probe probability at every serving.* site")
    p.add_argument("--fault-seed", type=int, default=123)
    p.add_argument("--slo", default=None, metavar="POLICY",
                   help="SLO policy JSON (repro.slo/v1): evaluate "
                        "burn-rate objectives and gate the exit code")
    p.add_argument("--trace-sample", type=int, default=0, metavar="N",
                   help="trace every Nth request id as repro.trace/v1 "
                        "JSONL (0 = tracing off)")
    p.add_argument("--trace-jsonl", default=None, metavar="PATH",
                   help="write the telemetry stream (repro.trace/v1 "
                        "JSONL: events, and the spans of sampled requests)")
    p.add_argument("--flight-dir", default=None, metavar="DIR",
                   help="arm the flight recorder; trigger dumps land "
                        "here as flightrec-<event>.json")
    p.add_argument("--emit-json", default=None, metavar="PATH",
                   help="write a repro.telemetry/v1 snapshot JSON")
    p.set_defaults(fn=_cmd_serve_bench)

    p = sub.add_parser("trace",
                       help="inspect the sampled request traces in a "
                            "telemetry stream (repro.trace/v1 JSONL "
                            "written by --trace-jsonl)")
    p.add_argument("jsonl", help="telemetry stream JSONL file")
    p.add_argument("--trace-id", default=None,
                   help="show one trace by id (default: the slowest N)")
    p.add_argument("--slowest", type=_positive_int, default=3, metavar="N",
                   help="how many slowest traces to show")
    p.add_argument("--critical-path", action="store_true",
                   help="append the longest root-to-leaf chain per trace")
    p.set_defaults(fn=_cmd_trace)

    p = sub.add_parser("slo-report",
                       help="render a stored SLO burn-rate report; exit 1 "
                            "when a gated objective was violated")
    p.add_argument("json", help="repro.slo-report/v1 JSON, or a "
                                "serve-bench --emit-json snapshot")
    p.set_defaults(fn=_cmd_slo_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
