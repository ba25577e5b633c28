"""Ablation: semi-dynamic cache refresh under non-stationary traffic.

Fig. 4's caption hedges: "depending on the phase behavior, one might
consider updating the cache and repeat the warm up process periodically."
The paper's Criteo streams are stationary (Fig. 9) so refresh barely
matters there; this bench injects hot-set drift and measures how the
refresh interval trades hit rate against refresh overhead — the scenario
the semi-dynamic design exists for.
"""

from conftest import banner

from repro.bench import format_table
from repro.cache import CachedTTEmbeddingBag
from repro.data import ZipfSampler

ROWS = 20_000
CACHE = 250
BATCH = 256
STEPS = 160
DRIFT_PER_STEP = 0.005  # 0.5% of ranks reshuffled per step


def _run(refresh_interval):
    z = ZipfSampler(ROWS, 1.2, rng=3)
    emb = CachedTTEmbeddingBag(
        ROWS, 8, rank=4, cache_size=CACHE, warmup_steps=20,
        refresh_interval=refresh_interval, rng=3,
    )
    hits = lookups = 0
    for step in range(STEPS):
        idx = z.sample(BATCH)
        h0, l0 = emb.hits, emb.lookups
        emb.forward(idx)
        if emb.is_warm and step > 30:
            hits += emb.hits - h0
            lookups += emb.lookups - l0
        z.drift(DRIFT_PER_STEP)
    return hits / max(lookups, 1)


def test_refresh_under_drift(benchmark):
    def compute():
        out = []
        for interval, label in ((None, "never (static after warmup)"),
                                (80, "every 80 steps"),
                                (20, "every 20 steps"),
                                (5, "every 5 steps")):
            out.append([label, f"{_run(interval):.3f}"])
        return out

    rows = benchmark.pedantic(compute, rounds=1, iterations=1)
    banner("Ablation: cache refresh interval under drifting traffic")
    print(format_table(["refresh", "steady-state hit rate"], rows))
    print("\nexpected: refreshing recovers hit rate lost to drift; the "
          "paper's stationary Criteo streams need little refresh (Fig. 9), "
          "drifting streams need it")
    never = float(rows[0][1])
    frequent = float(rows[-1][1])
    assert frequent > never + 0.02
