"""Ablation (§4.2 ¶1): store vs recompute backward intermediates.

Algorithm 2 can either keep the forward partial products (``tr_i``) for the
backward pass (more transient memory) or recompute them (more FLOPs). The
paper chooses storing by default; this bench quantifies the trade-off.
"""

import numpy as np
import pytest
from conftest import banner

from repro.bench import format_table, uniform_workload
from repro.tt import TTEmbeddingBag

ROWS = 100_000
DIM = 16
BATCH = 512
RANK = 32


def _step(emb, idx, off):
    out = emb.forward(idx, off)
    emb.zero_grad()
    emb.backward(np.ones_like(out))


@pytest.mark.parametrize("store", [True, False], ids=["store", "recompute"])
def test_recompute_vs_store(benchmark, store):
    emb = TTEmbeddingBag(ROWS, DIM, rank=RANK, store_intermediates=store, rng=0)
    idx, off = uniform_workload(ROWS, BATCH, rng=0)
    benchmark.group = "recompute-vs-store"
    benchmark(_step, emb, idx, off)


def test_recompute_memory_report(benchmark):
    def compute():
        emb = TTEmbeddingBag(ROWS, DIM, rank=RANK, rng=0)
        idx, _ = uniform_workload(ROWS, BATCH, rng=0)
        # What a forward keeps for its backward: (plan, left partials).
        _, (_, lefts) = emb._planned_rows(idx, emb.dedup)
        stored = sum(a.size for a in lefts) * 8
        return stored

    stored_bytes = benchmark(compute)
    banner("Ablation: intermediate (tr_i) storage cost per batch")
    print(format_table(
        ["batch", "rank", "stored intermediates"],
        [[BATCH, RANK, f"{stored_bytes / 1e6:.2f} MB"]],
    ))
    print("\nstore: pays this memory once per in-flight batch; "
          "recompute: pays one extra forward chain in backward instead")
    assert stored_bytes > 0
