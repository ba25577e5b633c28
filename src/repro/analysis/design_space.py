"""Design-space sweep: accuracy vs memory across TT settings (Fig. 1).

Each design point trains a (scaled) DLRM with one combination of
(TT-rank, embedding dimension, number of compressed tables) and records
validation accuracy against embedding memory. The Pareto frontier over
these points is Fig. 1's black curve.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.pareto import pareto_frontier
from repro.data.specs import DatasetSpec
from repro.data.synthetic import SyntheticCTRDataset
from repro.models.config import DLRMConfig, TTConfig
from repro.models.ttrec import build_dlrm, build_ttrec
from repro.training.trainer import Trainer

__all__ = ["DesignPoint", "sweep_design_space", "frontier"]


@dataclass(frozen=True)
class DesignPoint:
    """One trained configuration in the (memory, accuracy) plane."""

    rank: int
    emb_dim: int
    num_tt_tables: int
    embedding_params: int
    accuracy: float
    bce: float

    @property
    def memory_bytes(self) -> int:
        return self.embedding_params * 4


def _train_point(spec: DatasetSpec, emb_dim: int, rank: int, num_tt: int, *,
                 train_iters: int, eval_iters: int, batch_size: int,
                 seed: int, min_rows: int) -> DesignPoint:
    ds = SyntheticCTRDataset(spec, seed=seed, noise=0.8)
    cfg = DLRMConfig(
        table_sizes=spec.table_sizes, emb_dim=emb_dim,
        bottom_mlp=(64, 32), top_mlp=(64, 32),
    )
    if num_tt == 0:
        model = build_dlrm(cfg, rng=seed)
    else:
        model = build_ttrec(cfg, num_tt_tables=num_tt, tt=TTConfig(rank=rank),
                            min_rows=min_rows, rng=seed)
    trainer = Trainer(model, lr=0.1)
    trainer.train(ds.batches(batch_size, train_iters))
    ev = trainer.evaluate(ds.batches(batch_size * 4, eval_iters))
    return DesignPoint(
        rank=rank, emb_dim=emb_dim, num_tt_tables=num_tt,
        embedding_params=model.embedding_parameters(),
        accuracy=ev.accuracy, bce=ev.bce,
    )


def sweep_design_space(spec: DatasetSpec, *, ranks=(4, 8, 16, 32),
                       emb_dims=(8, 16), table_counts=(0, 3, 5, 7),
                       train_iters: int = 150, eval_iters: int = 8,
                       batch_size: int = 128, seed: int = 0,
                       min_rows: int = 500) -> list[DesignPoint]:
    """Train the full grid and return every design point.

    ``num_tt_tables == 0`` rows are the uncompressed baselines (one per
    embedding dimension; rank is irrelevant there and fixed to 0).
    """
    points: list[DesignPoint] = []
    for emb_dim in emb_dims:
        points.append(_train_point(
            spec, emb_dim, 0, 0, train_iters=train_iters, eval_iters=eval_iters,
            batch_size=batch_size, seed=seed, min_rows=min_rows,
        ))
        for num_tt in table_counts:
            if num_tt == 0:
                continue
            for rank in ranks:
                points.append(_train_point(
                    spec, emb_dim, rank, num_tt, train_iters=train_iters,
                    eval_iters=eval_iters, batch_size=batch_size, seed=seed,
                    min_rows=min_rows,
                ))
    return points


def frontier(points: list[DesignPoint]) -> list[DesignPoint]:
    """Pareto-optimal subset: minimal memory, maximal accuracy (Fig. 1)."""
    return pareto_frontier(points, cost=lambda p: p.memory_bytes,
                           value=lambda p: p.accuracy)
