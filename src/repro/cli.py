"""Command-line interface: ``python -m repro <cmd>``.

``repro --help`` lists the subcommands and ``repro <cmd> --help`` each
one's options; docs/ walks through them.

Analyses that need no training (``table2``, ``sizes``, ``plan``, ...) are
exact and instantaneous. The drills — ``train`` (and ``train --elastic``),
``chaos``, ``profile``, ``serve-bench`` — run the scaled synthetic dataset
for a few seconds and stand on one scaffold ("The drill scaffold" below):
one model recipe, one seeded-injector table, one context manager for the
``--events-jsonl`` / ``--slo`` / ``--trace-sample`` / ``--flight-dir``
listeners, one ledger table whose verdict is
:func:`repro.runtime.supervisor.reconcile_ledger`'s, one PASS/FAIL line
and one ``--emit-json`` snapshot (schema ``repro.telemetry/v1``; see
docs/OBSERVABILITY.md).
"""

from __future__ import annotations

import argparse
import contextlib
import sys

import numpy as np

__all__ = ["main", "build_parser"]


def _cmd_table2(args) -> int:
    from repro.analysis.memory import table2_rows
    from repro.bench.reporting import format_table
    from repro.data import KAGGLE

    rows = [
        [r.num_rows, " x ".join(map(str, r.core_shapes)), r.rank, r.tt_params,
         f"{r.memory_reduction:.0f}x"]
        for r in table2_rows(KAGGLE, ranks=tuple(args.ranks))
    ]
    print(format_table(["# rows", "TT cores", "rank", "params", "reduction"],
                       rows, title="Paper Table 2 (exact)"))
    return 0


def _cmd_sizes(args) -> int:
    from repro.analysis.memory import model_size_summary
    from repro.bench.reporting import format_table
    from repro.data import KAGGLE, TERABYTE

    rows = []
    for spec in (KAGGLE, TERABYTE):
        for n in args.tables:
            s = model_size_summary(spec, num_tt_tables=n, rank=args.rank)
            rows.append([spec.name, n, f"{s.baseline_gb:.2f} GB",
                         f"{s.compressed_mb:.1f} MB", f"{s.reduction:.1f}x"])
    print(format_table(["dataset", "TT tables", "baseline", "compressed",
                        "reduction"], rows,
                       title=f"Model size at rank {args.rank} (Fig. 5 / §6)"))
    return 0


def _cmd_plan_kernel(args) -> int:
    """Kernel-planner report: the chain's splits, predicted vs measured FLOPs."""
    from time import perf_counter_ns

    from repro.bench.reporting import format_table
    from repro.bench.workloads import pooling_workload, uniform_workload
    from repro.telemetry import get_registry
    from repro.tt.embedding_bag import TTEmbeddingBag

    dedup = not args.no_dedup
    emb = TTEmbeddingBag(args.rows, args.dim, rank=args.rank, d=args.d,
                         dedup=dedup, rng=0)
    flops = emb.planner.flops
    n_lookups = args.batch * args.pooling
    print(f"shape: {emb.shape.describe()}")
    print(f"dedup: {'on' if dedup else 'off'}  "
          f"batch: {args.batch} x pooling {args.pooling}")
    rows = [
        [split, f"{per_row:,}", f"{n_lookups * per_row:,}",
         "chosen" if split == emb.planner.read_split else ""]
        for split, per_row in flops.items()
    ]
    print(format_table(
        ["split", "FLOPs/row", f"FLOPs @ n={n_lookups}", ""],
        rows, title="Contraction splits (lookup path; training keeps "
                    f"left partials and runs split {emb.shape.d - 1})",
    ))

    if args.zipf is not None:
        indices, _ = pooling_workload(args.rows, args.batch, args.pooling,
                                      zipf_s=args.zipf, rng=args.seed)
    else:
        indices, _ = uniform_workload(args.rows, args.batch,
                                      pooling_factor=args.pooling,
                                      rng=args.seed)
    indices = np.minimum(indices, args.rows - 1)

    reg = get_registry()
    planned_c = reg.counter("tt.plan.flops_planned")
    executed_c = reg.counter("tt.plan.flops_executed")
    saved_c = reg.counter("tt.plan.flops_saved")
    removed_c = reg.counter("tt.plan.dedup_removed")
    for _ in range(3):  # warm BLAS and the allocator
        emb.lookup(indices)
    base = (planned_c.value, executed_c.value, saved_c.value, removed_c.value)
    t0 = perf_counter_ns()
    for _ in range(args.iters):
        emb.lookup(indices)
    elapsed_ms = (perf_counter_ns() - t0) / 1e6
    planned = (planned_c.value - base[0]) / args.iters
    executed = (executed_c.value - base[1]) / args.iters
    saved = (saved_c.value - base[2]) / args.iters
    removed = (removed_c.value - base[3]) / args.iters
    ms = elapsed_ms / args.iters
    baseline = n_lookups * flops[emb.shape.d - 1]
    print(f"\nmeasured over {args.iters} iters:")
    print(f"  ms/iter:          {ms:.3f}")
    print(f"  predicted FLOPs:  {planned:,.0f} / iter")
    print(f"  measured FLOPs:   {executed:,.0f} / iter "
          f"({executed / (ms * 1e6):.2f} GFLOP/s)")
    print(f"  baseline FLOPs:   {baseline:,.0f} / iter, every lookup at split "
          f"{emb.shape.d - 1} (saved {saved:,.0f}, {100.0 * saved / baseline:.1f}%)")
    print(f"  dedup removed:    {removed:,.0f} of {n_lookups} lookups / iter")
    return 0


def _cmd_plan(args) -> int:
    if args.kernel:
        return _cmd_plan_kernel(args)
    from repro.analysis.autotune import plan_compression
    from repro.bench.reporting import format_table
    from repro.data import KAGGLE, TERABYTE

    spec = {"kaggle": KAGGLE, "terabyte": TERABYTE}[args.dataset]
    budget_params = int(args.budget_mb * 1e6 / 4)
    plan = plan_compression(spec.table_sizes, spec.emb_dim,
                            budget_params=budget_params)
    rows = [
        [t.table_index, f"{t.num_rows:,}",
         "TT" if t.compress else "dense",
         t.rank if t.compress else "-", f"{t.params:,}"]
        for t in sorted(plan.tables, key=lambda t: -t.num_rows)[:args.top]
    ]
    print(format_table(
        ["table", "rows", "format", "rank", "params"], rows,
        title=(f"Plan for {args.dataset} under {args.budget_mb} MB "
               f"({budget_params:,} params)"),
    ))
    print(f"\ntotal: {plan.total_params():,} params "
          f"({plan.total_params() * 4 / 1e6:.1f} MB), "
          f"compression {plan.compression_ratio():.1f}x")
    return 0


def _cmd_plan_budget(args) -> int:
    """Pick a compressor per table under a global byte budget."""
    import json

    from repro.bench.reporting import format_table
    from repro.compress import BudgetPlanner, TableStats

    if args.tables_file:
        with open(args.tables_file, encoding="utf-8") as fh:
            doc = json.load(fh)
        docs = doc["tables"] if isinstance(doc, dict) else doc
        tables = [TableStats.from_doc(d) for d in docs]
        source = args.tables_file
    else:
        from repro.data import KAGGLE, TERABYTE

        spec = {"kaggle": KAGGLE, "terabyte": TERABYTE}[args.dataset]
        if args.scale is not None:
            spec = spec.scaled(args.scale)
        tables = [TableStats(num_rows=size, dim=spec.emb_dim, zipf_s=args.zipf,
                             name=f"emb{i}")
                  for i, size in enumerate(spec.table_sizes)]
        source = args.dataset

    planner = BudgetPlanner(
        tables, mode=args.mode, seed=args.seed,
        include_inference_only=args.include_inference_only,
        min_compress_rows=args.min_compress_rows,
    )
    budget_bytes = int(args.budget_mb * 1e6)
    try:
        plan = planner.plan(budget_bytes)
    except ValueError as exc:
        print(f"error: {exc}")
        return 1

    shown = sorted(plan.tables, key=lambda t: -t.predicted_bytes)[:args.top]
    rows = [
        [t.index, t.spec.name or "-", f"{t.spec.num_rows:,}", t.spec.label(),
         f"{t.predicted_bytes:,}", f"{t.quality:.3f}", f"{t.weight:.3f}"]
        for t in shown
    ]
    print(format_table(
        ["table", "name", "rows", "compressor", "bytes", "quality", "weight"],
        rows,
        title=(f"Budget plan for {source} under {args.budget_mb:g} MB "
               f"({len(plan.tables)} tables)"),
    ))
    print(f"\ntotal: {plan.total_bytes():,} B of {plan.budget_bytes:,} B "
          f"budget ({plan.total_bytes() / plan.budget_bytes:.0%} used), "
          f"compression {plan.compression_ratio():.1f}x vs dense")
    if args.emit_json:
        plan.to_json(args.emit_json)
        print(f"wrote repro.budget_plan/v1 plan to {args.emit_json}")
    return 0


def _cmd_locality(args) -> int:
    from repro.analysis.locality import top_set_stability
    from repro.bench.reporting import format_series
    from repro.data.zipf import ZipfSampler

    sampler = ZipfSampler(args.rows, args.zipf, rng=args.seed)
    stream = sampler.sample(args.accesses)
    trace = top_set_stability(stream, k=args.k, checkpoint_fraction=0.03)
    print(format_series(
        f"top-{args.k} set churn (Zipf s={args.zipf}, {args.rows:,} rows)",
        [f"{c:.0%}" for c in trace.checkpoints[1:]],
        [f"{f:.4f}" for f in trace.change_fraction],
        x_label="progress", y_label="change",
    ))
    print(f"\nstabilises (<=2% change) at "
          f"{trace.stabilization_point(0.02):.0%} of the stream")
    return 0


def _cmd_report(args) -> int:
    """Write every no-training analysis to one markdown report."""
    import io

    sections = []
    for title, argv in (
        ("Paper Table 2 (exact)", ["table2"]),
        ("Model sizes (Fig. 5 / §6)", ["sizes"]),
        ("Auto-tuned plan, 19 MB Kaggle budget",
         ["plan", "--budget-mb", "19"]),
        ("Hot-set stability (Fig. 9 style)",
         ["locality", "--rows", "50000", "--accesses", "150000",
          "--k", "500"]),
    ):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            main(argv)
        sections.append(f"## {title}\n\n```\n{buf.getvalue().strip()}\n```\n")
    body = "# TT-Rec analysis report\n\n" + "\n".join(sections)
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
def _observed(args, clock=None):
    """Arm the listeners the command has and was given, for one run.

    ``--events-jsonl`` (event sink), ``--slo`` (burn-rate engine),
    ``--trace-sample`` (request tracer) and ``--flight-dir`` (flight
    recorder; the last two read ``clock``) are armed in that order and
    detached — tracer, recorder, sink — on the way out, run or raise.
    Yields a namespace holding ``slo`` and ``recorder`` (``None`` when
    not armed).
    """
    from repro import telemetry

    armed = argparse.Namespace(slo=None, recorder=None)
    try:
        if getattr(args, "events_jsonl", None):
            telemetry.install_sink(args.events_jsonl)
        if getattr(args, "slo", None):
            armed.slo = telemetry.SLOEngine(telemetry.load_policy(args.slo))
        if getattr(args, "trace_sample", 0) > 0:
            telemetry.get_request_tracer().configure(
                sample_every=args.trace_sample, path=args.trace_jsonl,
                clock=clock.now, seed=args.seed,
            )
        if getattr(args, "flight_dir", None):
            armed.recorder = telemetry.install_flight_recorder(
                telemetry.FlightRecorder(args.flight_dir, clock=clock.now))
        yield armed
    finally:
        telemetry.get_request_tracer().shutdown()
        telemetry.uninstall_flight_recorder()
        telemetry.uninstall_sink()


def _print_fleet(label: str, units: list[dict]) -> None:
    """One row per supervised worker: the ``SupervisedWorker.stats()``
    keys training and serving fleets share, and the serving tier's
    ``p99_ms`` / ``rewarmed_rows`` where a row has them."""
    for s in units:
        p99 = f"p99 {s['p99_ms']:6.2f} ms  " if "p99_ms" in s else ""
        rewarmed = (f" rewarmed {s['rewarmed_rows']}"
                    if "rewarmed_rows" in s else "")
        print(f"  {label} {s[label]}: {s['state']:9s} "
              f"dispatches {s['dispatches']:<5d} {p99}"
              f"hb {s['heartbeats']:<4d} "
              f"crash {s['crashes']} hang {s['hangs']} slow {s['slows']} "
              f"drop {s['net_drops']}{rewarmed}")


def _print_ledger(recon: dict) -> bool:
    """The ``reconcile_ledger`` table, one row per check that gates;
    returns its verdict. Which rows count is the ledger's rule
    (:func:`repro.runtime.supervisor.reconcile_ledger`), not the CLI's."""
    print("reconcile :")
    for name, check in recon["checks"].items():
        print(f"  {name:28s} fired={check['fired']:<6d} "
              f"counted={check['counted']:<6d} "
              f"{'ok' if check['passed'] else 'MISMATCH'}")
    if "skipped" in recon:
        print(f"  fault rows skipped ({recon['skipped']})")
    return recon["passed"]


def _print_threshold(what: str, value: float, fmt: str, bound: float) -> bool:
    within = value <= bound
    print(f"threshold : {what} {value:{fmt}} ms "
          f"{'<=' if within else '>'} {bound:g} ms "
          f"{'ok' if within else 'FAIL'}")
    return within


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


def _cmd_train_elastic(args) -> int:
    """``train --elastic``: the fault-tolerant distributed-training drill.

    Runs K simulated data-parallel workers under scheduled kills
    (``--kill-worker``) and/or ``dist.*`` fault rates, then gates on the
    elastic contract: ledgers reconcile (no lost batches), the fleet ends
    readmitted, live replicas are bit-identical, and (optionally) the
    worst recovery stays under ``--recovery-ms-max`` simulated ms — the
    contract the ``training-chaos`` CI job relies on.
    """
    from repro.distributed import ElasticTrainer, parse_worker_kill_spec
    from repro.serving import ManualClock

    kaggle = _scaled_kaggle(args)
    replicas = [kaggle.build() for _ in range(args.workers)]
    injector = _injector(args.fault_seed, {
        "dist.crash": (args.dist_crash, {}),
        "dist.hang": (args.dist_hang, {}),
        "dist.slow": (args.dist_slow, {}),
        "dist.net_drop": (args.dist_net_drop, {}),
    })
    kill_specs = [parse_worker_kill_spec(s) for s in (args.kill_worker or [])]
    clock = ManualClock()
    with _observed(args, clock) as obs:
        trainer = ElasticTrainer(
            replicas, lr=0.1, optimizer="adagrad", injector=injector,
            clock=clock, checkpoint=_checkpoints(args, "elastic"),
            checkpoint_every=args.checkpoint_every, kill_specs=kill_specs,
        )
        report = trainer.train(
            kaggle.stream().batches(args.batch_size, args.iters))

    kills = ", ".join(f"w{k.unit}@{k.at}" for k in kill_specs) or "none"
    print(f"train --elastic: {args.iters} batches of {args.batch_size} over "
          f"{args.workers} workers, kills: {kills}")
    print(f"ledger    : fed {report['batches_fed']}  applied "
          f"{report['steps_applied']}  attempts {report['step_attempts']} "
          f"(retried {report['retried_steps']}, degraded "
          f"{report['degraded_steps']}, dispatch retries "
          f"{report['dispatch_retries']})")
    _print_fleet("worker", report["workers"])
    rec = report["recovery"]
    print(f"recovery  : {rec['readmissions']} readmissions  shard restores "
          f"{rec['restores']}  replayed rows {rec['replayed_rows']}  audits "
          f"{rec['audits']} ({rec['audit_failures']} failed)  max "
          f"{rec['max_ms']:g} ms")
    print(f"health    : {report['health']['up']}/{report['world_size']} "
          f"workers up  membership epochs {report['membership_epochs']}  "
          f"resyncs {report['resyncs']}")
    ok = _print_ledger(report["reconciliation"])
    if args.recovery_ms_max is not None and rec["readmissions"]:
        ok = _print_threshold("recovery max", rec["max_ms"], "g",
                              args.recovery_ms_max) and ok
    _print_flightrec(obs.recorder, args.flight_dir)
    print(f"final loss: {report['final_loss']:.4f}  "
          f"(sim {report['sim_ms']:g} ms)")
    code = _verdict(ok, "ledgers reconcile, fleet readmitted, "
                        "replicas in sync")
    _emit_json(args, "train-elastic", {"report": report, "passed": ok})
    return code


def _cmd_train(args) -> int:
    from repro.models import build_dlrm
    from repro.training import Trainer

    if args.elastic:
        return _cmd_train_elastic(args)

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
    from repro.distributed.collectives import Communicator
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
            # Collective leg: allreduce every dense gradient across a
            # simulated ring so the same registry carries byte counters, too.
            comm = Communicator(args.world_size)
            with telemetry.trace("profile.collectives"):
                for p in model.parameters():
                    if p.grad is not None and p.grad.size:
                        comm.allreduce_mean([p.grad] * args.world_size)
        finally:
            telemetry.disable_tracing()

    print(f"profile workload: {args.iters} iters, batch {args.batch_size}, "
          f"TT rank {args.rank}, world size {args.world_size}")
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
        "collective_bytes": comm.total_bytes,
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
                if hasattr(emb, "validate_reads"):
                    emb.injector = injector
                    emb.validate_reads = True
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
    """Closed-loop load test of the hardened serving runtime; with
    ``--shards N``, the sharded tier's chaos drill.

    Exit is non-zero on any non-finite output, a ledger out of balance
    (``reconcile_ledger``: invariants on every run, fault rows when an
    injector ran over clean traffic), a gated SLO burning its budget and,
    sharded, failover p99 above ``--failover-p99-ms`` or a fleet that is
    not readmitted — the contract the ``serving-chaos`` CI job relies on.
    """
    import json

    from repro import telemetry
    from repro.inference import Predictor
    from repro.serving import InferenceServer, ManualClock, ServerConfig, run_load
    from repro.sharding import (
        ShardConfig,
        ShardRouter,
        parse_kill_spec,
        run_sharded_load,
    )

    if args.budget_plan:
        from repro.compress import load_budget_plan
        from repro.models.ttrec import build_from_plan

        plan = load_budget_plan(args.budget_plan)
        model = build_from_plan(plan, rng=args.seed)
        print(f"serving a budget plan: {args.budget_plan} "
              f"({plan.total_bytes():,} B, kinds {sorted(set(plan.kinds()))})")
    else:
        model = _scaled_kaggle(args, use_cache=True, warmup_steps=0,
                               refresh_interval=None,
                               cache_fraction=0.05).build()
    injector = _injector(args.fault_seed, {
        "serving.request": (args.fault_rate, {"kind": "nan"}),
        "serving.queue": (args.fault_rate, {}),
        "serving.backend": (args.fault_rate,
                            {"kind": "nan", "max_elements": 4}),
        "shard.crash": (args.shard_fault_rate / 4, {}),
        "shard.hang": (args.shard_fault_rate / 4, {}),
        "shard.slow": (args.shard_fault_rate, {}),
        "shard.net_drop": (args.shard_fault_rate, {}),
    })
    kill_specs = [parse_kill_spec(s) for s in (args.kill_shard or [])]
    sharded = args.shards > 0
    clock = ManualClock()
    tier = dict(
        config=ServerConfig(
            oov_policy=args.policy, max_depth=args.max_depth,
            max_batch=args.max_batch,
            default_deadline_ms=args.deadline_ms, cooldown=10,
        ),
        injector=injector, clock=clock,
    )
    with _observed(args, clock) as obs:
        load = dict(
            num_requests=args.requests,
            mean_interarrival_ms=args.interarrival_ms,
            deadline_ms=args.deadline_ms, malformed=args.malformed,
            seed=args.seed, clock=clock, slo=obs.slo,
        )
        if sharded:
            router = ShardRouter(
                Predictor(model),
                shard_config=ShardConfig(num_shards=args.shards), **tier)
            report = run_sharded_load(router, kill_specs=kill_specs, **load)
        else:
            report = run_load(InferenceServer(Predictor(model), **tier),
                              **load)

    lat = report["latency_ms"]
    out = report["outcomes"]
    if sharded:
        kills = ", ".join(f"s{k.unit}@{k.at:g}ms" for k in kill_specs) \
            or "none"
        print(f"serve-bench: {args.requests} requests across {args.shards} "
              f"shards, deadline {args.deadline_ms:g} ms, kills: {kills}")
        print(f"topology  : spread {report['stats']['topology']['spread']}, "
              f"{len(report['stats']['topology']['slices'])} slices")
    else:
        print(f"serve-bench: {args.requests} requests, batch<= "
              f"{args.max_batch}, deadline {args.deadline_ms:g} ms, "
              f"fault rate {args.fault_rate:g}, malformed {args.malformed:g}")
    print(f"latency   : p50 {lat['p50']:.2f} ms  p99 {lat['p99']:.2f} ms  "
          f"max {lat['max']:.2f} ms")
    print(f"outcomes  : served {report['served']}  queued {out['queued']}  "
          f"rejected {out['rejected']}  shed {out['shed']} "
          f"(+{report['shed']['deadline']} at deadline)  "
          f"shed rate {report['shed_rate']:.1%}")
    if sharded:
        fo = report["failover_ms"]
        print(f"failover  : {report['failovers']} failovers  "
              f"replica hits {report['replica_hits']}  prior fills "
              f"{report['prior_fills']}  latency mean {fo['mean']:.2f} ms  "
              f"p99 {fo['p99']:.2f} ms")
        _print_fleet("shard", report["per_shard"])
        print(f"health    : {report['health']['status']}  shards up "
              f"{report['health']['shards']['up']}/"
              f"{report['health']['shards']['total']}  non-finite outputs "
              f"{report['non_finite_outputs']}")
    else:
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
    if args.failover_p99_ms is not None:
        ok = _print_threshold("failover p99", report["failover_ms"]["p99"],
                              ".2f", args.failover_p99_ms) and ok
    if kill_specs or args.shard_fault_rate > 0:
        readmitted = report["ready"]["full_capacity"]
        ok = ok and readmitted
        print(f"recovery  : {report['ready']['shards_up']}/{args.shards} "
              f"shards up after quiesce "
              f"{'ok' if readmitted else 'FAIL (not readmitted)'}")
    if args.trace_sample > 0:
        print(f"traces    : {telemetry.get_request_tracer().finished} sampled "
              f"(every {args.trace_sample}th request id) -> "
              f"{args.trace_jsonl}")
    _print_flightrec(obs.recorder, args.flight_dir)
    if "slo" in report:
        print(telemetry.format_report(report["slo"]))
        ok = bool(report["slo"]["gate_passed"]) and ok
    code = _verdict(ok, "zero non-finite outputs, ledgers reconcile")
    if args.per_shard_json:
        with open(args.per_shard_json, "w") as fh:
            json.dump({
                "per_shard": report["per_shard"],
                "failover_ms": report["failover_ms"],
                "failovers": report["failovers"],
                "replica_hits": report["replica_hits"],
                "prior_fills": report["prior_fills"],
                "reconciliation": report["reconciliation"],
                "topology": report["stats"]["topology"],
                "passed": ok,
            }, fh, indent=2)
        print(f"wrote per-shard report to {args.per_shard_json}")
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="TT-Rec reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table2", help="regenerate paper Table 2 (exact)")
    p.add_argument("--ranks", type=int, nargs="+", default=[16, 32, 64])
    p.set_defaults(fn=_cmd_table2)

    p = sub.add_parser("sizes", help="whole-model compression (Fig. 5 / §6)")
    p.add_argument("--rank", type=int, default=32)
    p.add_argument("--tables", type=int, nargs="+", default=[3, 5, 7])
    p.set_defaults(fn=_cmd_sizes)

    p = sub.add_parser(
        "plan",
        help="auto-tune ranks for a memory budget, or (--kernel) report "
             "the TT chain's contraction splits",
    )
    p.add_argument("--dataset", choices=["kaggle", "terabyte"], default="kaggle")
    p.add_argument("--budget-mb", type=float, default=20.0)
    p.add_argument("--top", type=int, default=10, help="tables to display")
    p.add_argument("--kernel", action="store_true",
                   help="kernel-planner mode: the chain's contraction splits "
                        "and predicted vs measured FLOPs (docs/KERNELS.md)")
    p.add_argument("--rows", type=int, default=100_000,
                   help="[--kernel] logical table rows")
    p.add_argument("--dim", type=int, default=16, help="[--kernel] embedding dim")
    p.add_argument("--rank", type=int, default=16, help="[--kernel] TT rank")
    p.add_argument("--d", type=int, default=3, help="[--kernel] TT cores")
    p.add_argument("--batch", type=int, default=4096, help="[--kernel] batch size")
    p.add_argument("--pooling", type=int, default=1,
                   help="[--kernel] lookups per bag")
    p.add_argument("--zipf", type=float, default=None,
                   help="[--kernel] Zipf exponent (default: uniform traffic)")
    p.add_argument("--no-dedup", action="store_true",
                   help="[--kernel] disable batch deduplication")
    p.add_argument("--iters", type=int, default=20,
                   help="[--kernel] timed iterations")
    p.add_argument("--seed", type=int, default=0, help="[--kernel] workload seed")
    p.set_defaults(fn=_cmd_plan)

    p = sub.add_parser(
        "plan-budget",
        help="pick a compressor per table (full zoo) under one global "
             "byte budget (docs/COMPRESSION.md)",
    )
    p.add_argument("--budget-mb", type=float, required=True,
                   help="global embedding byte budget, in MB")
    p.add_argument("--tables-file", default=None, metavar="PATH",
                   help="JSON table stats: {\"tables\": [{num_rows, dim, "
                        "zipf_s, traffic, name}, ...]} (overrides --dataset)")
    p.add_argument("--dataset", choices=["kaggle", "terabyte"],
                   default="kaggle")
    p.add_argument("--scale", type=float, default=None,
                   help="scale the dataset spec's table sizes first")
    p.add_argument("--zipf", type=float, default=1.05,
                   help="access skew assumed for --dataset tables")
    p.add_argument("--mode", choices=["sum", "mean"], default="sum")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--min-compress-rows", type=int, default=0,
                   help="tables below this stay dense")
    p.add_argument("--include-inference-only", action="store_true",
                   help="let the planner pick inference-only compressors "
                        "(post-training quantization)")
    p.add_argument("--top", type=int, default=10, help="tables to display")
    p.add_argument("--emit-json", default=None, metavar="PATH",
                   help="write the repro.budget_plan/v1 JSON here")
    p.set_defaults(fn=_cmd_plan_budget)

    p = sub.add_parser("locality", help="hot-set stability trace (Fig. 9 style)")
    p.add_argument("--rows", type=int, default=100_000)
    p.add_argument("--zipf", type=float, default=1.05)
    p.add_argument("--accesses", type=int, default=200_000)
    p.add_argument("--k", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_locality)

    p = sub.add_parser("report", help="write all no-training analyses to markdown")
    p.add_argument("--out", default="REPORT.md")
    p.set_defaults(fn=_cmd_report)

    p = sub.add_parser("train", help="demo training: baseline vs TT-Rec")
    p.add_argument("--iters", type=int, default=200)
    p.add_argument("--rank", type=int, default=16)
    p.add_argument("--scale", type=float, default=0.0005)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--checkpoint-dir", default=None,
                   help="directory for periodic checkpoints (per model)")
    p.add_argument("--checkpoint-every", type=int, default=50,
                   help="iterations between checkpoints")
    p.add_argument("--resume", action="store_true",
                   help="resume each model from its latest checkpoint")
    p.add_argument("--emit-json", default=None, metavar="PATH",
                   help="write a repro.telemetry/v1 snapshot JSON")
    p.add_argument("--elastic", action="store_true",
                   help="run the elastic fault-tolerant distributed drill "
                        "instead of the single-worker comparison")
    p.add_argument("--workers", type=int, default=4,
                   help="data-parallel workers for --elastic")
    p.add_argument("--batch-size", type=int, default=96,
                   help="global batch size for --elastic")
    p.add_argument("--kill-worker", action="append", default=None,
                   metavar="W@STEP",
                   help="kill worker W when batch STEP is fed (repeatable; "
                        "requires --elastic)")
    p.add_argument("--dist-crash", type=float, default=0.0,
                   help="per-probe dist.crash rate (--elastic)")
    p.add_argument("--dist-hang", type=float, default=0.0,
                   help="per-probe dist.hang rate (--elastic)")
    p.add_argument("--dist-slow", type=float, default=0.0,
                   help="per-dispatch dist.slow rate (--elastic)")
    p.add_argument("--dist-net-drop", type=float, default=0.0,
                   help="per-message dist.net_drop rate (--elastic)")
    p.add_argument("--fault-seed", type=int, default=123)
    p.add_argument("--recovery-ms-max", type=float, default=None,
                   help="fail if the worst recovery exceeds this many "
                        "simulated ms (--elastic)")
    p.add_argument("--flight-dir", default=None, metavar="DIR",
                   help="arm the flight recorder; trigger dumps land "
                        "here as flightrec-<event>.json (--elastic)")
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("profile",
                       help="span tree + metrics registry for a short "
                            "instrumented workload")
    p.add_argument("--iters", type=int, default=60)
    p.add_argument("--rank", type=int, default=16)
    p.add_argument("--scale", type=float, default=0.0005)
    p.add_argument("--batch-size", type=int, default=96)
    p.add_argument("--world-size", type=int, default=4,
                   help="simulated workers for the collective leg")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--emit-json", default=None, metavar="PATH",
                   help="write a repro.telemetry/v1 snapshot JSON")
    p.add_argument("--events-jsonl", default=None, metavar="PATH",
                   help="stream telemetry events to a JSONL file")
    p.set_defaults(fn=_cmd_profile)

    p = sub.add_parser("chaos",
                       help="fault-injection drill: guarded run vs fault-free")
    p.add_argument("--iters", type=int, default=300)
    p.add_argument("--rank", type=int, default=8)
    p.add_argument("--scale", type=float, default=0.0003)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fault-seed", type=int, default=123)
    p.add_argument("--sites", nargs="+", choices=["grad", "cache"],
                   default=["grad", "cache"])
    p.add_argument("--prob", type=float, default=0.02,
                   help="per-site fault probability")
    p.add_argument("--tolerance", type=float, default=0.01,
                   help="allowed relative smoothed-loss gap vs fault-free")
    p.add_argument("--emit-json", default=None, metavar="PATH",
                   help="write a repro.telemetry/v1 snapshot JSON")
    p.add_argument("--events-jsonl", default=None, metavar="PATH",
                   help="stream telemetry events to a JSONL file")
    p.set_defaults(fn=_cmd_chaos)

    p = sub.add_parser("serve-bench",
                       help="closed-loop load test of the hardened serving "
                            "runtime (docs/SERVING.md)")
    p.add_argument("--requests", type=int, default=1000)
    p.add_argument("--rank", type=int, default=4)
    p.add_argument("--scale", type=float, default=0.0005)
    p.add_argument("--budget-plan", default=None, metavar="PATH",
                   help="serve the embedding stack from a "
                        "repro.budget_plan/v1 JSON (plan-budget --emit-json) "
                        "instead of the default TT model")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--policy", choices=["clamp", "hash", "reject"],
                   default="clamp", help="out-of-vocabulary id policy")
    p.add_argument("--max-depth", type=int, default=64,
                   help="queue depth bound (arrivals beyond it are shed)")
    p.add_argument("--max-batch", type=int, default=32)
    p.add_argument("--deadline-ms", type=float, default=100.0)
    p.add_argument("--interarrival-ms", type=float, default=1.0,
                   help="mean simulated gap between arrivals")
    p.add_argument("--malformed", type=float, default=0.0,
                   help="fraction of deliberately malformed requests")
    p.add_argument("--fault-rate", type=float, default=0.0,
                   help="per-probe probability at every serving.* site")
    p.add_argument("--fault-seed", type=int, default=123)
    p.add_argument("--shards", type=int, default=0,
                   help="run the sharded tier with N shard workers "
                        "(0 = single-process server)")
    p.add_argument("--kill-shard", action="append", default=None,
                   metavar="SPEC",
                   help="scheduled shard kill <shard>@<time>[ms|s], e.g. "
                        "1@2s; repeatable (sharded mode)")
    p.add_argument("--shard-fault-rate", type=float, default=0.0,
                   help="per-probe probability at the shard.* chaos sites "
                        "(sharded mode)")
    p.add_argument("--failover-p99-ms", type=float, default=None,
                   help="fail when failover p99 exceeds this many "
                        "simulated ms (sharded mode)")
    p.add_argument("--per-shard-json", default=None, metavar="PATH",
                   help="write the per-shard JSON report (sharded mode)")
    p.add_argument("--slo", default=None, metavar="POLICY",
                   help="SLO policy JSON (repro.slo/v1): evaluate "
                        "burn-rate objectives and gate the exit code")
    p.add_argument("--trace-sample", type=int, default=0, metavar="N",
                   help="trace every Nth request id as repro.trace/v1 "
                        "JSONL (0 = tracing off)")
    p.add_argument("--trace-jsonl", default="serve_trace.jsonl",
                   metavar="PATH",
                   help="where --trace-sample writes span records")
    p.add_argument("--flight-dir", default=None, metavar="DIR",
                   help="arm the flight recorder; trigger dumps land "
                        "here as flightrec-<event>.json")
    p.add_argument("--emit-json", default=None, metavar="PATH",
                   help="write a repro.telemetry/v1 snapshot JSON")
    p.add_argument("--events-jsonl", default=None, metavar="PATH",
                   help="stream telemetry events to a JSONL file")
    p.set_defaults(fn=_cmd_serve_bench)

    p = sub.add_parser("trace",
                       help="inspect a repro.trace/v1 JSONL written by "
                            "serve-bench --trace-sample")
    p.add_argument("jsonl", help="trace JSONL file")
    p.add_argument("--trace-id", default=None,
                   help="show one trace by id (default: the slowest N)")
    p.add_argument("--slowest", type=int, default=3, metavar="N",
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


# command -> (its mode, the mode's flag, the options nothing reads without
# it), each option by its argparse dest.
_MODE_OPTIONS = {
    "serve-bench": ("shards", "--shards N", (
        "kill_shard", "shard_fault_rate", "failover_p99_ms",
        "per_shard_json")),
    "train": ("elastic", "--elastic", (
        "kill_worker", "dist_crash", "dist_hang", "dist_slow",
        "dist_net_drop", "recovery_ms_max", "flight_dir")),
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    mode, flag, dests = _MODE_OPTIONS.get(args.command, (None, None, ()))
    if dests and not (getattr(args, mode) > 0):
        # An option given (it differs from its default) without the mode
        # that reads it would be accepted and ignored: refuse, run nothing.
        defaults = parser.parse_args([args.command])
        for dest in dests:
            if getattr(args, dest) != getattr(defaults, dest):
                print(f"error: --{dest.replace('_', '-')} requires {flag}")
                return 2
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
