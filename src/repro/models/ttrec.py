"""Factories assembling baseline DLRM and TT-Rec models from a config.

The paper's "TT-Emb. of N" settings compress the N *largest* embedding
tables (which dominate model size — 99% for Kaggle) and leave the small
tables dense; :func:`build_ttrec` encodes that convention.
"""

from __future__ import annotations

import numpy as np

from repro.cache.cached_embedding import CachedTTEmbeddingBag
from repro.models.config import DLRMConfig, TTConfig
from repro.models.dlrm import DLRM
from repro.ops.embedding import EmbeddingBag
from repro.tt.embedding_bag import TTEmbeddingBag
from repro.utils.seeding import as_rng

__all__ = ["largest_tables", "build_dlrm", "build_ttrec"]

# Tables smaller than this are never worth compressing: the TT cores would
# outweigh the dense rows. Matches the paper's practice of compressing only
# the multi-hundred-thousand-row tables.
MIN_COMPRESSIBLE_ROWS = 10_000


def largest_tables(table_sizes: tuple[int, ...], n: int) -> list[int]:
    """Indices of the ``n`` largest tables (ties broken by index)."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    order = sorted(range(len(table_sizes)), key=lambda i: (-table_sizes[i], i))
    return sorted(order[:n])


def _build_table(num_rows: int, dim: int, tt: TTConfig | None,
                    rng: np.random.Generator, name: str):
    if tt is None:
        return EmbeddingBag(num_rows, dim, rng=rng, name=name)
    if tt.use_cache:
        return CachedTTEmbeddingBag(
            num_rows, dim, rank=tt.rank, d=tt.d, initializer=tt.initializer,
            cache_size=tt.cache_size, cache_fraction=tt.cache_fraction,
            warmup_steps=tt.warmup_steps, refresh_interval=tt.refresh_interval,
            policy=tt.policy, dedup=tt.dedup,
            rng=rng, name=name,
        )
    return TTEmbeddingBag(
        num_rows, dim, rank=tt.rank, d=tt.d, initializer=tt.initializer,
        store_intermediates=tt.store_intermediates, dedup=tt.dedup,
        rng=rng, name=name,
    )


def build_dlrm(config: DLRMConfig,
               rng: int | None | np.random.Generator = None) -> DLRM:
    """Build a DLRM honouring ``config.tt_tables`` (empty map = baseline)."""
    rng = as_rng(rng if rng is not None else config.seed)
    embeddings = [
        _build_table(size, config.emb_dim, config.tt_tables.get(i), rng, f"emb{i}")
        for i, size in enumerate(config.table_sizes)
    ]
    return DLRM(config, embeddings, rng=rng)


def build_ttrec(config: DLRMConfig, *, num_tt_tables: int,
                tt: TTConfig | None = None,
                min_rows: int = MIN_COMPRESSIBLE_ROWS,
                rng: int | None | np.random.Generator = None) -> DLRM:
    """Build TT-Rec: compress the ``num_tt_tables`` largest tables.

    Tables below ``min_rows`` rows are skipped even if they fall in the
    top-N (compressing a tiny table costs parameters). Lower ``min_rows``
    when training on a :meth:`~repro.data.specs.DatasetSpec.scaled` spec.
    """
    tt = tt or TTConfig()
    chosen = [
        i for i in largest_tables(config.table_sizes, num_tt_tables)
        if config.table_sizes[i] >= min_rows
    ]
    cfg = config.with_(tt_tables={i: tt for i in chosen})
    return build_dlrm(cfg, rng=rng)

