"""Configuration dataclasses for DLRM and TT-Rec.

Defaults follow the MLPerf-DLRM reference implementation the paper trains
(``dlrm_s_pytorch.py`` with the Kaggle benchmark flags): 13 dense features,
26 categorical features, embedding dimension 16, bottom MLP 13-512-256-64-16,
top MLP 512-256-1, SGD at lr 0.1, batch size 128.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.ops.interaction import DotInteraction

__all__ = ["DLRMConfig", "TTConfig"]


@dataclass(frozen=True)
class TTConfig:
    """How one embedding table is TT-compressed (and optionally cached)."""

    rank: int = 32
    d: int = 3
    initializer: str = "sampled_gaussian"
    # Cache options (None cache_size and cache_fraction -> no cache).
    use_cache: bool = False
    cache_fraction: float | None = 1e-4
    cache_size: int | None = None
    warmup_steps: int = 100
    refresh_interval: int | None = 1000
    policy: str = "lfu"
    store_intermediates: bool = True
    dedup: bool = False

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError(f"rank must be >= 1, got {self.rank}")
        if self.d < 2:
            raise ValueError(f"d must be >= 2, got {self.d}")
        if self.use_cache and not self.store_intermediates:
            # The cached operator always stores them; the §4.2 recompute
            # arm runs on the plain operator (bench_ablation_recompute.py).
            raise ValueError(
                "use_cache=True with store_intermediates=False is not "
                "supported: the cached table keeps its intermediates")

    def with_(self, **kwargs) -> TTConfig:
        """Return a copy with fields replaced (sweep helper)."""
        return replace(self, **kwargs)


@dataclass(frozen=True)
class DLRMConfig:
    """Full DLRM architecture + training hyperparameters.

    ``tt_tables`` maps a table index to a :class:`TTConfig`; tables absent
    from the map stay uncompressed. :func:`repro.models.ttrec.build_ttrec`
    fills this map with the N *largest* tables, which is how the paper's
    "TT-Emb. of 3/5/7" settings are expressed.
    """

    table_sizes: tuple[int, ...]
    num_dense: int = 13
    emb_dim: int = 16
    bottom_mlp: tuple[int, ...] = (512, 256, 64)
    top_mlp: tuple[int, ...] = (512, 256)
    tt_tables: dict[int, TTConfig] = field(default_factory=dict)
    # Training hyperparameters (MLPerf-DLRM Kaggle defaults).
    learning_rate: float = 0.1
    batch_size: int = 128
    seed: int = 0

    def __post_init__(self):
        if not self.table_sizes:
            raise ValueError("table_sizes must be non-empty")
        if any(s < 1 for s in self.table_sizes):
            raise ValueError(f"table sizes must be >= 1, got {self.table_sizes}")
        if self.emb_dim < 1:
            raise ValueError(f"emb_dim must be >= 1, got {self.emb_dim}")
        for idx in self.tt_tables:
            if not (0 <= idx < len(self.table_sizes)):
                raise ValueError(
                    f"tt_tables index {idx} out of range for "
                    f"{len(self.table_sizes)} tables"
                )

    @property
    def num_tables(self) -> int:
        return len(self.table_sizes)

    def bottom_sizes(self) -> list[int]:
        """Bottom-tower layer sizes: dense features down to ``emb_dim``."""
        return [self.num_dense, *self.bottom_mlp, self.emb_dim]

    def interaction_dim(self) -> int:
        """Width of the dot interaction's output, the top tower's input."""
        return DotInteraction.output_dim(self.emb_dim, self.num_tables)

    def top_sizes(self) -> list[int]:
        """Top-tower layer sizes: interaction output down to one logit."""
        return [self.interaction_dim(), *self.top_mlp, 1]

    def with_(self, **kwargs) -> DLRMConfig:
        """Return a copy with fields replaced (sweep helper)."""
        return replace(self, **kwargs)
