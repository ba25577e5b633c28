"""Ablation: LFU vs LRU vs static cache policy under Zipf traffic.

The paper chooses LFU with semi-dynamic refresh. This bench replays the
same Zipf access stream through each policy and compares steady-state hit
rates — under a *stationary* hot set (the Fig. 9 finding), LFU should
match or beat recency-based and frozen policies.
"""

from conftest import banner

from repro.bench import format_table
from repro.cache import CachedTTEmbeddingBag
from repro.data.zipf import ZipfSampler

ROWS = 20_000
DIM = 8
CACHE = 200
BATCH = 256
STEPS = 120


def _run_policy(policy: str, seed: int = 0) -> tuple[float, float]:
    sampler = ZipfSampler(ROWS, 1.1, rng=seed)
    emb = CachedTTEmbeddingBag(
        ROWS, DIM, rank=4, cache_size=CACHE, warmup_steps=20,
        refresh_interval=40, policy=policy, rng=seed,
    )
    # measure hit rate only after the cache is warm
    warm_hits = warm_lookups = 0
    for step in range(STEPS):
        idx = sampler.sample(BATCH)
        before_h, before_l = emb.hits, emb.lookups
        emb.forward(idx)
        if emb.is_warm and step > 30:
            warm_hits += emb.hits - before_h
            warm_lookups += emb.lookups - before_l
    ideal = sampler.top_k_mass(CACHE)
    return warm_hits / warm_lookups, ideal


def test_cache_policy_hit_rates(benchmark):
    def compute():
        out = {}
        for policy in ("lfu", "lru", "static"):
            hit, ideal = _run_policy(policy)
            out[policy] = (hit, ideal)
        return out

    results = benchmark.pedantic(compute, rounds=1, iterations=1)
    ideal = next(iter(results.values()))[1]
    banner("Ablation: cache policy vs steady-state hit rate (Zipf s=1.1)")
    rows = [[p, f"{hit:.3f}", f"{hit / ideal:.2f}"] for p, (hit, _) in results.items()]
    rows.append(["ideal (top-k mass)", f"{ideal:.3f}", "1.00"])
    print(format_table(["policy", "hit rate", "fraction of ideal"], rows))
    print("\nexpected: with a stationary hot set, LFU ~= static >= LRU, and "
          "LFU approaches the analytic ideal")
    lfu = results["lfu"][0]
    assert lfu > 0.8 * ideal
    assert lfu >= results["lru"][0] - 0.02
