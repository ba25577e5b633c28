"""The four end-to-end workloads and the per-layer accounting.

Everything here drives public functions of ``repro`` from outside:
``build_ttrec``, ``SyntheticCTRDataset.batch``, ``Trainer.train_step``,
``Predictor.predict_batch`` and ``InferenceServer.submit/step`` on the
default wall clock. ``--seed`` reaches only the generated inputs and
the arrival schedule; the model seed is fixed.

Each workload has the same life cycle, driven by ``run_workload``:
``setup`` (build, generate every input, warm up), optionally ``wrap``
(traced runs), ``run`` (the timed section), ``report``.
"""

from __future__ import annotations

import gc
import hashlib
import math
import resource
from pathlib import Path
from time import perf_counter, perf_counter_ns

import numpy as np

from repro.cache.cached_embedding import CachedTTEmbeddingBag
from repro.data import KAGGLE, SyntheticCTRDataset
from repro.inference.predictor import Predictor
from repro.models import DLRMConfig, TTConfig, build_ttrec
from repro.serving import InferenceServer, Request, ServerConfig
from repro.telemetry import disable_tracing, enable_tracing, get_registry
from repro.training.trainer import Trainer
from repro.tt.embedding_bag import TTEmbeddingBag

from reference import SpeedCorrected
from spans import NullRecorder, Recorder

RESULT_SCHEMA = "bench.e2e.result/v1"

# --- fixed environment (README "Fixed environment") ------------------- #
SPEC = KAGGLE.scaled(0.1)      # largest table ~1.01 M rows
EMB_DIM = 16
NUM_TT_TABLES = 7
TT_RANK = 32
MODEL_SEED = 0
ZIPF_S = 1.05
CACHE_FRACTION = 0.002

ROUNDS = 5                     # every timing is a median over this many rounds
SETUP_REPEATS = 3              # setup_s is the median of this many set-ups
MIN_OPS = 15                   # timed operations even when --seconds is tiny
CHECKSUM_OPS = 10              # leading timed operations in each checksum
CYCLED_BATCHES = 24            # distinct inputs of a stateless batch workload
LOSS_SLACK = 1.05              # see TrainWorkload.report

# A traced run spends this share of --seconds traced, the same share
# again untraced (wrappers removed) to price the wrappers, and
# predict_zipf a third slice with the program's own tracer enabled.
TRACED_SHARE = 0.5
TAIL_SHARE = 0.25

# serve_open
RATE_RPS = 50.0                # README: queueing at 100-1000/s amplifies box noise
RATE_SHARE = 0.4               # of every round: open loop
SINGLE_SHARE = 0.4             # closed loop, one client; the rest is capacity
DEADLINE_MS = 2000.0           # server-side deadline: sheds only a wedged server
GOOD_MS = 50.0                 # the benchmark's own latency limit, from due time
MAX_BATCH = 32
CAPACITY_POOL = 2048           # requests cycled by the closed-loop phases
SLICE_WARM = 3                 # leading operations of a closed-loop slice, not
                               # counted: the phase before it left the caches cold
SLICE_MIN_OPS = MIN_OPS // ROUNDS   # counted, even when --seconds is tiny
PREWARM_LOOKUPS = 50_000       # per TT table, fed to the LFU tracker
WARMUP_BATCHES = (MAX_BATCH, MAX_BATCH, 1, 1, 1, 1, 1, 1)

END_TO_END = {
    "setup_s": "s", "peak_rss_mb": "MB", "ops_per_s": "1/s",
    "op_ms_p50": "ms", "op_ms_tail": "ms", "goodput_frac": "frac",
}

PER_LAYER = {
    "data.gen_s": "s", "data.lookups_per_op": "count", "data.unique_frac": "frac",
    "tt.forward_s": "s", "tt.backward_s": "s", "tt.calls": "count",
    "tt.lookups": "count", "tt.flops_executed": "count",
    "tt.flops_saved": "count", "tt.dedup_removed": "count",
    "tt.param_bytes": "bytes", "tt.pool_bytes": "bytes",
    "cache.forward_s": "s", "cache.backward_s": "s", "cache.maintain_s": "s",
    "cache.hit_rate": "frac", "cache.insertions": "count",
    "cache.evictions": "count", "cache.resident_bytes": "bytes",
    "ops.bottom_mlp_s": "s", "ops.top_mlp_s": "s", "ops.interaction_s": "s",
    "ops.dense_emb_s": "s", "ops.optim_s": "s",
    "models.dlrm_self_s": "s", "training.step_self_s": "s",
    "inference.predict_self_s": "s", "inference.towers_s": "s",
    "serving.admission_s": "s", "serving.queue_s": "s",
    "serving.ladder_s": "s", "serving.towers_s": "s",
    "serving.step_self_s": "s", "serving.busy_frac": "frac",
    "serving.batches": "count", "serving.batch_size_mean": "count",
    "serving.queue_wait_ms_p50": "ms", "serving.queue_wait_ms_p99": "ms",
    "serving.step_ms_b1": "ms", "serving.step_ms_b32": "ms",
    "serving.shed_queue_full": "count", "serving.shed_deadline": "count",
    "serving.rejected": "count", "serving.degraded": "count",
    "loadgen.sent": "count", "loadgen.late_ms_p99": "ms",
    "loadgen.serve_ms_p50": "ms", "loadgen.serve_ms_p95": "ms",
    "loadgen.serve_ms_p99": "ms", "loadgen.self_s": "s", "loadgen.idle_s": "s",
    "loadgen.reference_s": "s",
    "bench.traced_ops": "count", "bench.traced_wall_s": "s",
    "bench.self_time_coverage": "frac", "bench.trace_overhead_frac": "frac",
    "telemetry.tracer_overhead_frac": "frac",
}


# ---------------------------------------------------------------------- #
# Helpers
# ---------------------------------------------------------------------- #

def build_model(tt: TTConfig):
    config = DLRMConfig(table_sizes=SPEC.table_sizes, emb_dim=EMB_DIM)
    return build_ttrec(config, num_tt_tables=NUM_TT_TABLES, tt=tt, rng=MODEL_SEED)


def checksum(values) -> str:
    data = np.ascontiguousarray(np.asarray(values, dtype=np.float64))
    return hashlib.sha256(data.tobytes()).hexdigest()[:16]


def pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def rounds_of(values, fn) -> list[float]:
    """``fn`` over ROUNDS equal consecutive chunks (fewer when short)."""
    k = min(ROUNDS, len(values))
    size = len(values) // k if k else 0
    return [float(fn(values[i * size:(i + 1) * size])) for i in range(k)]


def metric(rounds, samples: int) -> dict:
    """A reported value: the median over rounds, which are kept so that
    ``compare.py`` can tell a difference from round-to-round spread."""
    return {"value": median(rounds), "rounds": [float(r) for r in rounds],
            "samples": int(samples)}


def timing_metrics(times_ms, work_per_op: float, tail_q: float) -> dict:
    """Throughput, median and tail of a list of per-operation wall times."""
    p50 = rounds_of(times_ms, lambda c: pct(c, 50))
    n = len(times_ms)
    return {
        "ops_per_s": metric([1000.0 * work_per_op / t for t in p50], n),
        "op_ms_p50": metric(p50, n),
        "op_ms_tail": metric(rounds_of(times_ms, lambda c: pct(c, tail_q)), n),
    }


def delta(after: dict, before: dict) -> dict:
    return {k: v - before.get(k, 0) for k, v in after.items()}


def emb_layer(emb) -> str:
    if isinstance(emb, CachedTTEmbeddingBag):
        return "cache"
    if isinstance(emb, TTEmbeddingBag):
        return "tt"
    return "ops.dense_emb"


def wrap_towers(rec: Recorder, model) -> None:
    for attr in ("bottom_mlp", "top_mlp", "interaction"):
        rec.wrap(getattr(model, attr), "forward", f"ops.{attr}.forward")
        rec.wrap(getattr(model, attr), "backward", f"ops.{attr}.backward")


def wrap_embeddings(rec: Recorder, model) -> None:
    for emb in model.embeddings:
        layer = emb_layer(emb)
        rec.wrap(emb, "forward", f"{layer}.forward")
        rec.wrap(emb, "backward", f"{layer}.backward")
        if layer == "cache":
            rec.wrap(emb, "populate", "cache.populate")
            rec.wrap(emb, "maybe_refresh", "cache.maybe_refresh")


def data_profile(sparse_per_op, tt_tables) -> dict:
    """Lookups per operation, and unique ids / lookups on the TT tables:
    the ceiling on what any dedup or cache can save."""
    lookups = unique = tt_lookups = 0
    for sparse in sparse_per_op:
        for t, ids in enumerate(sparse):
            lookups += ids.size
            if t in tt_tables:
                tt_lookups += ids.size
                unique += np.unique(ids).size
    return {"data.lookups_per_op": lookups / max(1, len(sparse_per_op)),
            "data.unique_frac": unique / tt_lookups if tt_lookups else 0.0}


def model_state(model) -> dict:
    """Counts and bytes, read through public accessors only."""
    registry = get_registry().snapshot()["counters"]
    state = {"plan": {k: v for k, v in registry.items() if k.startswith("tt.plan.")},
             "param_bytes": 0, "pool_bytes": 0, "resident_bytes": 0,
             "cache": dict.fromkeys(
                 ("lookups", "hits", "misses", "insertions", "evictions"), 0)}
    for emb in model.embeddings:
        layer = emb_layer(emb)
        if layer == "ops.dense_emb":
            continue
        tt = emb.tt if layer == "cache" else emb
        state["param_bytes"] += tt.num_parameters() * tt.dtype.itemsize
        state["pool_bytes"] += tt.planner.pool.nbytes()
        if layer == "cache":
            stats = emb.stats()
            state["resident_bytes"] += (
                stats["resident_rows"] * emb.dim * tt.dtype.itemsize)
            for key in state["cache"]:
                state["cache"][key] += stats[key]
    return state


def layer_metrics(fold: dict, before: dict, after: dict) -> dict:
    """The span- and counter-derived values every workload shares."""
    serving = "serving.step" in fold
    def self_s(*names):
        return sum(fold.get(n, {}).get("self_s", 0.0) for n in names)

    plan = delta(after["plan"], before["plan"])
    cache = delta(after["cache"], before["cache"])
    towers = fold.get("inference.logits_from_pooled", {}).get("total_s", 0.0)
    return {
        "tt.forward_s": self_s("tt.forward"),
        "tt.backward_s": self_s("tt.backward"),
        "tt.calls": fold.get("tt.forward", {}).get("count", 0),
        "tt.flops_executed": plan["tt.plan.flops_executed"],
        "tt.flops_saved": plan["tt.plan.flops_saved"],
        "tt.dedup_removed": plan["tt.plan.dedup_removed"],
        "tt.param_bytes": after["param_bytes"],
        "tt.pool_bytes": after["pool_bytes"],
        "cache.forward_s": self_s("cache.forward"),
        "cache.backward_s": self_s("cache.backward"),
        "cache.maintain_s": self_s("cache.maybe_refresh", "cache.populate"),
        "cache.hit_rate": cache["hits"] / cache["lookups"] if cache["lookups"] else 0.0,
        "cache.insertions": cache["insertions"],
        "cache.evictions": cache["evictions"],
        "cache.resident_bytes": after["resident_bytes"],
        "ops.bottom_mlp_s": self_s("ops.bottom_mlp.forward", "ops.bottom_mlp.backward"),
        "ops.top_mlp_s": self_s("ops.top_mlp.forward", "ops.top_mlp.backward"),
        "ops.interaction_s": self_s("ops.interaction.forward",
                                    "ops.interaction.backward"),
        "ops.dense_emb_s": self_s("ops.dense_emb.forward", "ops.dense_emb.backward"),
        "ops.optim_s": self_s("ops.optim.step", "ops.optim.zero_grad"),
        "models.dlrm_self_s": self_s("models.dlrm.forward", "models.dlrm.backward"),
        "training.step_self_s": self_s("training.step"),
        "inference.predict_self_s": self_s("inference.predict_batch"),
        "inference.towers_s": 0.0 if serving else towers,
        "serving.towers_s": towers if serving else 0.0,
        "serving.admission_s": self_s("serving.submit", "serving.sanitize"),
        "serving.queue_s": self_s("serving.queue.submit", "serving.queue.next_batch"),
        "serving.ladder_s": self_s("serving.ladder"),
        "serving.step_self_s": self_s("serving.step"),
        "loadgen.self_s": self_s("bench.section", "loadgen.rate", "loadgen.single",
                                 "loadgen.capacity"),
        "loadgen.idle_s": self_s("loadgen.idle"),
        "loadgen.reference_s": self_s("loadgen.reference"),
    }


def layer_shares(fold: dict) -> dict[str, float]:
    """Share of traced self time per layer (first component of the span
    name; the benchmark's own loop and idle time count as ``loadgen``)."""
    shares: dict[str, float] = {}
    for name, row in fold.items():
        layer = name.split(".")[0].replace("bench", "loadgen")
        shares[layer] = shares.get(layer, 0.0) + row["self_s"]
    total = sum(shares.values()) or 1.0
    return {k: v / total for k, v in sorted(shares.items())}


# ---------------------------------------------------------------------- #
# Workloads
# ---------------------------------------------------------------------- #

class BatchWorkload:
    """Shared by the three workloads whose operation is one call over a
    pre-generated ``Batch``: set-up, timed loop, counts."""

    tail_q = 90.0   # about ten samples beyond it from ~100 operations
    speed_corrected = True

    def __init__(self, *, tt: TTConfig, zipf_s: float, pooling: float,
                 batch: int, warmup: int, alloc_ops_per_s: float | None):
        self.tt, self.zipf_s, self.pooling = tt, zipf_s, pooling
        self.batch, self.warmup, self.alloc_ops_per_s = batch, warmup, alloc_ops_per_s

    def setup(self, seed: int, seconds: float) -> None:
        t0 = perf_counter()
        ds = SyntheticCTRDataset(SPEC, zipf_s=self.zipf_s,
                                 pooling_factor=self.pooling, seed=seed)
        # Every input is generated here so `data` is off the clock. A
        # training loop stops early if a faster program uses them all up;
        # a stateless one (alloc_ops_per_s None) cycles a fixed pool.
        self.cycle = self.alloc_ops_per_s is None
        n = CYCLED_BATCHES if self.cycle else self.warmup + max(
            3 * MIN_OPS, math.ceil(seconds * self.alloc_ops_per_s))
        self.batches = [ds.batch(self.batch) for _ in range(n)]
        self.gen_s = perf_counter() - t0
        self.model = build_model(self.tt)
        self.tt_tables = set(self.model.config.tt_tables)
        self.outputs: list = []
        self.failed = 0
        self.next = 0
        self.at_reference_speed = SpeedCorrected()
        self.prepare()
        for _ in range(self.warmup):
            self.one()

    def one(self) -> float:
        """Run the next pre-generated batch; returns its raw wall time in ms."""
        batch = self.batches[self.next % len(self.batches)]
        t0 = perf_counter_ns()
        self.outputs.append(self.call(batch))
        elapsed = (perf_counter_ns() - t0) / 1e6
        self.next += 1
        return elapsed

    def run(self, seconds: float, rec=NullRecorder()) -> list[float]:
        """Operation times in ms, at the reference speed (reference.py)
        where the workload is ``speed_corrected``."""
        times: list[float] = []
        deadline = perf_counter() + seconds
        while (self.cycle or self.next < len(self.batches)) and (
                len(times) < MIN_OPS or perf_counter() < deadline):
            rec.op = self.next
            op_ms = self.one()
            times.append(self.at_reference_speed(op_ms, rec)
                         if self.speed_corrected else op_ms)
        return times

    untraced_tail = run

    def timed_batches(self) -> list:
        return [self.batches[i % len(self.batches)]
                for i in range(self.warmup, self.next)]

    def layer_extras(self, before: dict, after: dict) -> dict:
        done = self.timed_batches()
        plain_tt = [t for t in self.tt_tables
                    if emb_layer(self.model.embeddings[t]) == "tt"]
        misses = after["cache"]["misses"] - before["cache"]["misses"]
        return {
            "data.gen_s": self.gen_s,
            **data_profile([[ids for ids, _ in b.sparse] for b in done],
                           self.tt_tables),
            # Rows that went through the TT chain: all of a plain table's,
            # the misses of a cached one.
            "tt.lookups": misses + sum(b.sparse[t][0].size
                                       for b in done for t in plain_tt),
        }


class TrainWorkload(BatchWorkload):

    def __init__(self, *, lr: float, **kwargs):
        super().__init__(**kwargs)
        self.lr = lr

    def prepare(self) -> None:
        self.trainer = Trainer(self.model, lr=self.lr)

    def call(self, batch) -> float:
        try:
            return float(self.trainer.train_step(batch))
        except FloatingPointError:   # non-finite loss: a failed operation
            self.failed += 1
            return float("nan")

    def wrap(self, rec: Recorder) -> None:
        rec.wrap(self.trainer, "train_step", "training.step")
        rec.wrap(self.trainer.optimizer, "step", "ops.optim.step")
        rec.wrap(self.trainer.optimizer, "zero_grad", "ops.optim.zero_grad")
        rec.wrap(self.model, "forward", "models.dlrm.forward")
        rec.wrap(self.model, "backward", "models.dlrm.backward")
        wrap_towers(rec, self.model)
        wrap_embeddings(rec, self.model)

    def report(self, times: list[float]) -> dict:
        losses = np.asarray(self.outputs)
        finite = bool(np.isfinite(losses).all())
        # train_uniform sees each embedding row once, so ~70 steps move the
        # loss by about one standard deviation of a batch loss. The check
        # exists to catch divergence (lr 0.1 on the cached workload reaches
        # 3e6 by step 5), so it allows LOSS_SLACK of batch noise.
        first, last = float(losses[:5].mean()), float(losses[-10:].mean())
        return {
            "metrics": timing_metrics(times, self.batch, self.tail_q),
            "attempted": len(times), "failed": self.failed,
            "checks": {"loss_finite": finite,
                       "loss_not_diverged": finite and last < first * LOSS_SLACK},
            "checksums": {"loss": checksum(losses[:self.warmup + CHECKSUM_OPS])},
            "info": {"loss_first5": first, "loss_last10": last,
                     "op": "train step", "work_per_op": f"{self.batch} samples",
                     **self.at_reference_speed.info()},
        }


class PredictWorkload(BatchWorkload):

    # Raw wall time: this operation is large GEMMs, which feel the host's
    # speed states less than the reference kernel does. Over six runs the
    # kernel moved 0.63-0.83 ms and the raw batch 75-85 ms, so corrected
    # times ranged 71-93 ms (README "Speed reference").
    speed_corrected = False

    def prepare(self) -> None:
        self.predictor = Predictor(self.model)

    def call(self, batch) -> np.ndarray:
        probs = self.predictor.predict_batch(batch)
        if not np.isfinite(probs).all():
            self.failed += 1
        return probs

    def wrap(self, rec: Recorder) -> None:
        rec.wrap(self.predictor, "predict_batch", "inference.predict_batch")
        rec.wrap(self.predictor, "logits_from_pooled", "inference.logits_from_pooled")
        wrap_towers(rec, self.model)
        wrap_embeddings(rec, self.model)

    def tracer_arm(self, seconds: float) -> list[float]:
        """The same loop with the program's own aggregate tracer enabled."""
        enable_tracing()
        try:
            return self.run(seconds)
        finally:
            disable_tracing()

    def report(self, times: list[float]) -> dict:
        probs = np.concatenate(self.outputs)
        first = self.batches[0]
        reference = self.model.predict_proba(first.dense, first.sparse)
        done = self.timed_batches()
        lookups = sum(ids.size for b in done for ids, _ in b.sparse) / max(1, len(done))
        return {
            "metrics": timing_metrics(times, lookups, self.tail_q),
            "attempted": len(times), "failed": self.failed,
            "checks": {
                "probs_in_unit_interval": bool(
                    np.isfinite(probs).all() and (probs >= 0).all()
                    and (probs <= 1).all()),
                "matches_model_predict_proba": bool(
                    np.array_equal(self.outputs[0], reference)),
            },
            "checksums": {"probs": checksum(np.concatenate(
                self.outputs[self.warmup:self.warmup + CHECKSUM_OPS]))},
            "info": {"op": "predict batch",
                     "work_per_op": f"{lookups:.0f} lookups in {self.batch} samples"},
        }


class ServeWorkload:
    """One ``InferenceServer`` driven from one thread through ROUNDS
    rounds of three phases: open-loop Poisson arrivals on wall time
    (``rate``), a closed loop of one client (``single``) and a closed
    loop of full batches (``capacity``). Every metric takes one value
    from each round, so all of them sample the whole timed section."""

    tail_q = 90.0   # hundreds of single-client requests in every round

    def setup(self, seed: int, seconds: float) -> None:
        t0 = perf_counter()
        ds = SyntheticCTRDataset(SPEC, zipf_s=ZIPF_S, pooling_factor=2.0, seed=seed)
        # The closed-loop pool is drawn first and has a fixed size, so its
        # requests (and the output checksum) do not depend on --seconds.
        self.pool = self._requests(ds, CAPACITY_POOL, first_id=1_000_000)
        n_rate = self._rate_count(seconds)
        self.rate_requests = self._requests(ds, n_rate, first_id=0)
        self.gaps_ms = np.random.default_rng(seed).exponential(
            1000.0 / RATE_RPS, n_rate)
        prewarm = {t: ds.access_stream(t, PREWARM_LOOKUPS)
                   for t in SPEC.largest(NUM_TT_TABLES)}
        self.gen_s = perf_counter() - t0

        # Frozen for serving: populated once from pre-observed traffic and
        # never refreshed, so the cache is read-only while timed.
        self.model = build_model(TTConfig(
            rank=TT_RANK, use_cache=True, cache_fraction=CACHE_FRACTION,
            warmup_steps=0, refresh_interval=None, dedup=True))
        self.tt_tables = set(self.model.config.tt_tables)
        for t, ids in prewarm.items():
            self.model.embeddings[t].tracker.record(ids)
            self.model.embeddings[t].populate()
        self.server = InferenceServer(
            Predictor(self.model),
            config=ServerConfig(max_batch=MAX_BATCH, max_depth=256,
                                default_deadline_ms=DEADLINE_MS))
        self.counts0 = self._counts()
        # One cursor per batch size, so which requests a capacity batch
        # holds does not depend on how many single requests ran before it.
        self.pool_next = {1: 0, MAX_BATCH: 0}
        self.at_reference_speed = {1: SpeedCorrected(), MAX_BATCH: SpeedCorrected()}
        self.sent = self.rejected = self.degraded = 0
        self.closed_sent = self.closed_good = 0
        self.capacity_probs: list = []
        self.capacity_step_ms: list[float] = []
        for size in WARMUP_BATCHES:
            self._closed_batch(size)

    @staticmethod
    def _rate_count(seconds: float) -> int:
        """Open-loop requests in ``seconds``: the same number every round."""
        per_round = max(20, int(RATE_RPS * RATE_SHARE * seconds / ROUNDS))
        return ROUNDS * per_round

    @staticmethod
    def _requests(ds, n: int, first_id: int) -> list[Request]:
        batch = ds.batch(n)
        return [
            Request(dense=batch.dense[i],
                    sparse=[ids[off[i]:off[i + 1]] for ids, off in batch.sparse],
                    request_id=first_id + i)
            for i in range(n)
        ]

    def _counts(self) -> tuple[dict, int]:
        return self.server.queue.shed_counts(), self.server.stats()["served"]

    def _ledger(self) -> tuple[dict, int]:
        """Shed by reason and served, since this server was built (the
        registry behind both is process-wide)."""
        shed, served = self._counts()
        return delta(shed, self.counts0[0]), served - self.counts0[1]

    def _submit(self, request: Request) -> None:
        self.sent += 1
        if self.server.submit(request)["status"] == "rejected":
            self.rejected += 1

    def wrap(self, rec: Recorder) -> None:
        server = self.server
        rec.wrap(server, "submit", "serving.submit")
        rec.wrap(server, "step", "serving.step")
        rec.wrap(server.sanitizer, "sanitize", "serving.sanitize")
        rec.wrap(server.queue, "submit", "serving.queue.submit")
        rec.wrap(server.queue, "next_batch", "serving.queue.next_batch")
        rec.wrap(server.predictor, "logits_from_pooled",
                 "inference.logits_from_pooled")
        wrap_towers(rec, self.model)
        for ladder in server.ladders:
            rec.wrap(ladder, "serve", "serving.ladder")
            for rung in ladder.rungs:
                # A rung holds its backend's bound forward, taken when the
                # server was built, so that is the attribute to wrap.
                layer = emb_layer(rung.compute.__self__)
                rec.wrap(rung, "compute", f"{layer}.forward")

    # -- closed loop ---------------------------------------------------- #

    def _closed_batch(self, size: int) -> tuple[float, float, list]:
        """Submit ``size`` pool requests and serve them in one step;
        returns (submit + step ms, step ms, responses)."""
        first = self.pool_next[size]
        self.pool_next[size] = first + size
        batch = [self.pool[(first + i) % CAPACITY_POOL] for i in range(size)]
        t0 = perf_counter_ns()
        for request in batch:
            self._submit(request)
        t1 = perf_counter_ns()
        responses = self.server.step()
        t2 = perf_counter_ns()
        return (t2 - t0) / 1e6, (t2 - t1) / 1e6, responses

    def closed_phase(self, size: int, seconds: float, rec=NullRecorder(),
                     keep: bool = True) -> list[float]:
        """``size`` clients that each wait for their reply, for ``seconds``;
        returns submit + step times in ms at the reference speed."""
        for _ in range(SLICE_WARM):
            self._closed_batch(size)
        times: list[float] = []
        deadline = perf_counter() + seconds
        while len(times) < SLICE_MIN_OPS or perf_counter() < deadline:
            rec.op = self.pool_next[size]
            elapsed, step_ms, responses = self._closed_batch(size)
            times.append(self.at_reference_speed[size](elapsed, rec))
            if keep:
                probs = np.array([r["prob"] for r in responses])
                self.closed_sent += size
                self.closed_good += int(np.isfinite(probs).sum())
                self.degraded += sum(r["degraded"] for r in responses)
                if size == MAX_BATCH:
                    self.capacity_step_ms.append(step_ms)
                    self.capacity_probs.append(probs)
        return times

    def untraced_tail(self, seconds: float) -> list[float]:
        return self.closed_phase(MAX_BATCH, seconds, keep=False)

    # -- open loop ------------------------------------------------------ #

    def rate_phase(self, lo: int, hi: int, rec=NullRecorder()) -> None:
        """Requests ``lo:hi`` at their Poisson due times."""
        server, clock = self.server, self.server.clock
        requests = self.rate_requests
        start_ms = clock() + 20.0
        due = self.due_ms
        due[lo:hi] = start_ms + np.cumsum(self.gaps_ms[lo:hi])
        for i in range(lo, hi):
            requests[i].deadline_ms = due[i] + DEADLINE_MS
        sent = lo
        while sent < hi or server.queue.depth:
            now = clock()
            while sent < hi and due[sent] <= now:
                rec.op = sent
                self.late_ms[sent] = now - due[sent]
                self._submit(requests[sent])
                self.submitted_ms[sent] = now = clock()
                sent += 1
            if server.queue.depth:
                formed = clock()
                responses = server.step()
                done = clock()
                self.rate_steps.append((len(responses), done - formed))
                for r in responses:
                    i = r["request_id"]
                    self.latency_ms[i] = done - due[i]
                    self.probs[i] = r["prob"]
                    self.degraded += r["degraded"]
                    self.wait_ms.append(formed - self.submitted_ms[i])
            elif sent < hi:
                # Busy-wait, not sleep: the host deschedules a halted vCPU,
                # and the wake-up made p50 wander 3.7-5.0 ms over 14
                # interleaved runs against 3.1-4.0 ms spinning.
                with rec.span("loadgen.idle"):
                    while clock() < due[sent]:
                        pass
        self.rate_wall_ms += clock() - start_ms

    def run(self, seconds: float, rec=NullRecorder()) -> list[float]:
        # A traced section is shorter than --seconds: serve a prefix.
        n = min(len(self.rate_requests), self._rate_count(seconds))
        self.rate_requests = self.rate_requests[:n]
        # Censored at the deadline: an unanswered request waited that long.
        self.latency_ms = np.full(n, DEADLINE_MS)
        self.probs = np.full(n, np.nan)
        self.due_ms, self.late_ms, self.submitted_ms = np.zeros((3, n))
        self.wait_ms: list[float] = []
        self.rate_steps: list[tuple[int, float]] = []   # (batch size, step ms)
        self.rate_wall_ms = 0.0
        self.single_ms: list[list[float]] = []          # one list a round
        self.capacity_ms: list[list[float]] = []
        single_s = SINGLE_SHARE * seconds / ROUNDS
        capacity_s = (1.0 - RATE_SHARE - SINGLE_SHARE) * seconds / ROUNDS
        for r in range(ROUNDS):
            with rec.span("loadgen.rate"):
                self.rate_phase(r * n // ROUNDS, (r + 1) * n // ROUNDS, rec)
            with rec.span("loadgen.single"):
                self.single_ms.append(self.closed_phase(1, single_s, rec))
            with rec.span("loadgen.capacity"):
                self.capacity_ms.append(
                    self.closed_phase(MAX_BATCH, capacity_s, rec))
        return [t for chunk in self.capacity_ms for t in chunk]

    # -- accounting ----------------------------------------------------- #

    def report(self, times: list[float]) -> dict:
        answered = np.isfinite(self.probs)
        good = answered & (self.latency_ms <= GOOD_MS)
        n = good.size
        every = np.concatenate([self.probs[answered], *self.capacity_probs])
        shed, served = self._ledger()
        singles = sum(len(chunk) for chunk in self.single_ms)
        return {
            "metrics": {
                "ops_per_s": metric([1000.0 * MAX_BATCH / median(chunk)
                                     for chunk in self.capacity_ms], len(times)),
                "op_ms_p50": metric([pct(c, 50) for c in self.single_ms], singles),
                "op_ms_tail": metric([pct(c, self.tail_q) for c in self.single_ms],
                                     singles),
                "goodput_frac": metric(
                    [float(c.mean()) for c in np.split(good, ROUNDS)], n),
            },
            # Failed: not answered with a finite probability (shed, rejected,
            # non-finite). An answer later than GOOD_MS misses goodput only:
            # how often this host stalls the process is not the program's.
            "attempted": n + self.closed_sent,
            "failed": int(n - answered.sum()) + self.closed_sent - self.closed_good,
            "checks": {
                "probs_in_unit_interval": bool(
                    (every >= 0).all() and (every <= 1).all()),
                "ledger_closes": (
                    self.sent == served + sum(shed.values()) + self.rejected),
            },
            "checksums": {"probs": checksum(
                np.concatenate(self.capacity_probs[:SLICE_MIN_OPS]))},
            # The EWMA wedge of serving/queue.py (README, "Known hazard")
            # shows as `wedged`, in `failed` and in serving.shed_deadline.
            "info": {"wedged": bool(answered.sum() < 0.8 * n),
                     "sent": self.sent, "served": served, "shed": shed,
                     "rejected": self.rejected, "op": "served request",
                     "late_over_good_ms": int((answered & ~good).sum()),
                     "rate": f"{RATE_RPS:.0f} requests/s open loop, {n} requests",
                     "work_per_op": f"1 request a single-client operation, "
                                    f"{MAX_BATCH} a capacity batch",
                     **self.at_reference_speed[1].info()},
        }

    def layer_extras(self, before: dict, after: dict) -> dict:
        sizes = [size for size, _ in self.rate_steps if size]
        shed, _ = self._ledger()
        busy_ms = sum(ms for _, ms in self.rate_steps)
        return {
            "data.gen_s": self.gen_s,
            **data_profile([r.sparse for r in self.rate_requests], self.tt_tables),
            "tt.lookups": after["cache"]["misses"] - before["cache"]["misses"],
            "serving.busy_frac": busy_ms / self.rate_wall_ms,
            "serving.batches": len(sizes),
            "serving.batch_size_mean": float(np.mean(sizes)) if sizes else 0.0,
            "serving.queue_wait_ms_p50": pct(self.wait_ms, 50),
            "serving.queue_wait_ms_p99": pct(self.wait_ms, 99),
            "serving.step_ms_b1": median([ms for size, ms in self.rate_steps
                                          if size == 1]),
            "serving.step_ms_b32": median(self.capacity_step_ms),
            "serving.shed_queue_full": shed["queue_full"],
            "serving.shed_deadline": shed["deadline"],
            "serving.rejected": self.rejected,
            "serving.degraded": self.degraded,
            "loadgen.sent": len(self.rate_requests) + self.closed_sent,
            "loadgen.late_ms_p99": pct(self.late_ms, 99),
            "loadgen.serve_ms_p50": pct(self.latency_ms, 50),
            "loadgen.serve_ms_p95": pct(self.latency_ms, 95),
            "loadgen.serve_ms_p99": pct(self.latency_ms, 99),
        }


# name -> (why, factory). The "why" is what BENCHMARK.json records.
WORKLOADS = {
    "train_uniform": (
        "every lookup distinct, so cache and dedup can do nothing and Alg. 2's "
        "per-sample block plus scatter_add_rows carry the step",
        lambda: TrainWorkload(
            tt=TTConfig(rank=TT_RANK, dedup=False), zipf_s=0.0, pooling=1.0,
            batch=512, lr=0.1, warmup=5, alloc_ops_per_s=9.0)),
    "train_zipf_cached": (
        "skewed pooled traffic puts the work in the LFU cache's write side "
        "(hit/miss split, cache-row grads, refresh, eviction), dedup and pooling",
        lambda: TrainWorkload(
            tt=TTConfig(rank=TT_RANK, use_cache=True, cache_fraction=CACHE_FRACTION,
                        warmup_steps=6, refresh_interval=20, dedup=True),
            zipf_s=ZIPF_S, pooling=10.0, batch=128, lr=0.01, warmup=8,
            alloc_ops_per_s=10.0)),
    "predict_zipf": (
        "the plain TT layer forward-only: no stored intermediates consumed and "
        "no backward, so a backward-only win must show nothing here",
        lambda: PredictWorkload(
            tt=TTConfig(rank=TT_RANK, dedup=False), zipf_s=ZIPF_S, pooling=10.0,
            batch=128, warmup=5, alloc_ops_per_s=None)),
    "serve_open": (
        "single requests, open loop at 50/s then one waiting client, so admission, "
        "queue, 26 ladders and the towers dominate; the cache is read-only",
        ServeWorkload),
}


def untraced_run(workload, seconds: float, other_setups: list[float]) -> tuple[dict, dict]:
    """The end-to-end metrics: tracing off, nothing wrapped."""
    report = workload.report(workload.run(seconds))
    metrics = report["metrics"]
    attempted, failed = report["attempted"], report["failed"]
    metrics.setdefault("goodput_frac", metric(
        [(attempted - failed) / attempted], attempted))
    metrics["peak_rss_mb"] = metric(
        [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0], 1)
    setups = other_setups + [workload.setup_s]
    metrics["setup_s"] = metric(setups, len(setups))
    return report, {k: {**metrics[k], "unit": unit} for k, unit in END_TO_END.items()}


def traced_run(workload, seconds: float, trace_path: Path, header: dict) -> tuple:
    """The per-layer metrics: wrappers on for the traced section only."""
    rec = Recorder()
    before = model_state(workload.model)
    workload.wrap(rec)
    try:
        t0 = perf_counter()
        with rec.span("bench.section"):
            times = workload.run(seconds * TRACED_SHARE, rec)
        traced_wall = perf_counter() - t0
    finally:
        rec.remove()
    after = model_state(workload.model)
    report = workload.report(times)
    fold = rec.fold()
    values = dict.fromkeys(PER_LAYER, 0.0)
    values.update(layer_metrics(fold, before, after))
    values.update(workload.layer_extras(before, after))
    untraced = workload.untraced_tail(seconds * TAIL_SHARE)
    values["bench.traced_ops"] = len(times)
    values["bench.traced_wall_s"] = traced_wall
    values["bench.self_time_coverage"] = (
        sum(row["self_s"] for row in fold.values()) / traced_wall)
    values["bench.trace_overhead_frac"] = median(times) / median(untraced) - 1.0
    if isinstance(workload, PredictWorkload):
        own = workload.tracer_arm(seconds * TAIL_SHARE)
        values["telemetry.tracer_overhead_frac"] = median(own) / median(untraced) - 1.0
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    rec.write(trace_path, **header)
    metrics = {k: {"value": float(v), "unit": PER_LAYER[k]} for k, v in values.items()}
    return report, metrics, layer_shares(fold)


def timed_setup(name: str, seed: int, seconds: float):
    """Build, generate inputs, warm up; the workload carries ``setup_s``."""
    t0 = perf_counter()
    workload = WORKLOADS[name][1]()
    workload.setup(seed, seconds)
    workload.setup_s = perf_counter() - t0
    gc.collect()
    return workload


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 out_dir: Path, cold_setup_s) -> dict:
    """One workload in this process; returns the full result document.
    ``cold_setup_s()`` times one more set-up in a fresh interpreter."""
    wall0 = perf_counter()
    # Every set-up is a cold one: a second set-up in this process is warm
    # (heap grown, pages mapped) and took half to all of the first one's
    # time. The other interpreters run first, back to back with this
    # one's, because a set-up that follows a pause or a large release of
    # memory pays for re-faulting the guest's free pages (4.3 s against
    # 1.9 s for predict_zipf) and the median of three should not hinge on
    # which of them that is.
    other_setups = [] if traced else [cold_setup_s()
                                      for _ in range(SETUP_REPEATS - 1)]
    workload = timed_setup(name, seed, seconds)
    doc = {"schema": RESULT_SCHEMA, "workload": name, "why": WORKLOADS[name][0],
           "seed": seed, "seconds": seconds, "traced": traced}
    if traced:
        report, metrics, doc["shares"] = traced_run(
            workload, seconds, out_dir / f"trace_{name}.json",
            {"workload": name, "seed": seed})
    else:
        report, metrics = untraced_run(workload, seconds, other_setups)
    doc.update(
        correct=all(report["checks"].values()), checks=report["checks"],
        attempted=report["attempted"], failed=report["failed"], metrics=metrics,
        checksums=report["checksums"], info=report["info"],
        wall_s=perf_counter() - wall0)
    return doc
