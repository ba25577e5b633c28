"""Communication cost model for the paper's §5 parallelism claim.

The paper argues: *"the uncompressed baseline has to run on CPUs or
multiple GPUs via model parallelism (which requires extra all-to-all
communication overheads) while TT-Rec enables recommendation training on
GPUs with data parallelism."* This module quantifies that with an
analytic alpha-beta communication model:

- **Model parallelism (dense DLRM):** embedding tables are sharded across
  devices because no device fits them. Every iteration moves each
  device's pooled embedding outputs to every other device (forward
  all-to-all) and the corresponding gradients back (backward all-to-all),
  plus an allreduce of the (replicated) MLP gradients.
- **Data parallelism (TT-Rec):** the whole model fits on every device;
  the only communication is one gradient allreduce over TT cores + MLPs.

The model is deliberately simple (bandwidth/latency per link, ring
collectives) — the same level of abstraction the paper's claim operates
at. It answers "does the model fit?" with real per-device memory
arithmetic and compares bytes-on-the-wire per iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.analysis.memory import tt_shape_for_table
from repro.data.specs import DatasetSpec

__all__ = ["ClusterSpec", "IterationCost", "model_parallel_cost",
           "data_parallel_cost", "compare_parallelism"]


@dataclass(frozen=True)
class ClusterSpec:
    """A homogeneous accelerator cluster with an alpha-beta interconnect."""

    num_devices: int
    device_memory_gb: float = 32.0
    link_bandwidth_gbps: float = 100.0  # per-direction, e.g. NVLink-ish
    link_latency_us: float = 5.0

    def __post_init__(self):
        if isinstance(self.num_devices, bool) or self.num_devices < 1:
            raise ValueError(f"num_devices must be >= 1, got {self.num_devices!r}")
        for name in ("device_memory_gb", "link_bandwidth_gbps"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")
        if not (math.isfinite(self.link_latency_us) and self.link_latency_us >= 0):
            raise ValueError("link_latency_us must be finite and >= 0, "
                             f"got {self.link_latency_us!r}")

    def transfer_us(self, num_bytes: float) -> float:
        """alpha-beta time for one point-to-point message."""
        return self.link_latency_us + num_bytes * 8 / (self.link_bandwidth_gbps * 1e3)


@dataclass(frozen=True)
class IterationCost:
    """Per-iteration communication of one parallelization strategy."""

    strategy: str
    fits_per_device: bool
    per_device_model_bytes: int
    comm_bytes: int
    comm_time_us: float

    def summary(self) -> str:
        fit = "fits" if self.fits_per_device else "DOES NOT FIT"
        return (
            f"{self.strategy}: {self.per_device_model_bytes / 1e9:.2f} GB/device "
            f"({fit}), {self.comm_bytes / 1e6:.2f} MB/iter on the wire, "
            f"~{self.comm_time_us / 1e3:.2f} ms/iter comm"
        )


def _mlp_params(emb_dim: int, num_tables: int, num_dense: int = 13,
                bottom=(512, 256, 64), top=(512, 256)) -> int:
    sizes_b = [num_dense, *bottom, emb_dim]
    f = num_tables + 1
    inter = emb_dim + f * (f - 1) // 2
    sizes_t = [inter, *top, 1]
    total = 0
    for sizes in (sizes_b, sizes_t):
        for a, b in zip(sizes, sizes[1:]):
            total += a * b + b
    return total


def _check_counts(**counts: int) -> None:
    for name, value in counts.items():
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")


def model_parallel_cost(spec: DatasetSpec, cluster: ClusterSpec, *,
                        batch_size: int, dtype_bytes: int = 4) -> IterationCost:
    """Dense DLRM with tables sharded round-robin across devices.

    All-to-all volume per direction: every sample's pooled vector for every
    table crosses the wire unless the table lives on the consuming device —
    ``(1 - 1/N)`` of ``B * T * D`` vectors; doubled for forward + backward.
    The MLP allreduce moves ``2 * (N-1)/N * mlp_params`` per device (ring).
    """
    _check_counts(batch_size=batch_size, dtype_bytes=dtype_bytes)
    n = cluster.num_devices
    emb_bytes = spec.total_rows() * spec.emb_dim * dtype_bytes
    mlp_bytes = _mlp_params(spec.emb_dim, spec.num_tables) * dtype_bytes
    per_device = emb_bytes / n + mlp_bytes  # sharded tables + replicated MLPs

    pooled_bytes = batch_size * spec.num_tables * spec.emb_dim * dtype_bytes
    a2a = 2 * pooled_bytes * (n - 1) / n if n > 1 else 0  # fwd + bwd
    allreduce = 2 * mlp_bytes * (n - 1) / n if n > 1 else 0
    comm_bytes = int(a2a + allreduce)
    # Ring schedule: a2a takes (n-1) steps of (volume/n) plus the ring
    # allreduce's 2(n-1) steps.
    steps = (3 * (n - 1)) if n > 1 else 0
    per_step = comm_bytes / max(steps, 1)
    comm_time = sum(cluster.transfer_us(per_step) for _ in range(steps))
    return IterationCost(
        strategy=f"model-parallel dense (N={n})",
        fits_per_device=per_device <= cluster.device_memory_gb * 1e9,
        per_device_model_bytes=int(per_device),
        comm_bytes=comm_bytes,
        comm_time_us=comm_time,
    )


def data_parallel_cost(spec: DatasetSpec, cluster: ClusterSpec, *,
                       num_tt_tables: int, rank: int,
                       dtype_bytes: int = 4) -> IterationCost:
    """TT-Rec replicated on every device; one ring allreduce per iteration.

    Only *touched* dense-table rows produce gradients, but the worst case
    (allreduce of all replicated parameters) is charged, every row of the
    uncompressed tables included. Under this accounting TT-Rec wins on
    memory but not on comm time: the uncompressed tables carry most of the
    allreduce, which then costs more than dense model-parallel's
    all-to-all (EXPERIMENTS.md, the §5 row).

    The ``num_tt_tables`` largest tables are compressed whatever their
    size. :func:`~repro.models.ttrec.build_ttrec` leaves tables below its
    ``min_rows`` dense, so the two agree on a scaled spec only at
    ``min_rows=1``; at full Kaggle and Terabyte sizes the 7 largest
    tables all have 142 572 rows or more, so its default changes nothing.
    """
    _check_counts(dtype_bytes=dtype_bytes)
    if not 0 <= num_tt_tables <= spec.num_tables:
        raise ValueError(f"num_tt_tables must be in [0, {spec.num_tables}], "
                         f"got {num_tt_tables}")
    n = cluster.num_devices
    compressed = set(spec.largest(num_tt_tables))
    params = _mlp_params(spec.emb_dim, spec.num_tables)
    for i, size in enumerate(spec.table_sizes):
        if i in compressed:
            params += tt_shape_for_table(size, spec.emb_dim, rank).num_params()
        else:
            params += size * spec.emb_dim
    model_bytes = params * dtype_bytes
    allreduce = 2 * model_bytes * (n - 1) / n if n > 1 else 0
    comm_bytes = int(allreduce)
    steps = 2 * (n - 1) if n > 1 else 0
    per_step = comm_bytes / max(steps, 1)
    comm_time = sum(cluster.transfer_us(per_step) for _ in range(steps))
    return IterationCost(
        strategy=f"data-parallel TT-Rec (N={n}, {num_tt_tables} tables, R={rank})",
        fits_per_device=model_bytes <= cluster.device_memory_gb * 1e9,
        per_device_model_bytes=model_bytes,
        comm_bytes=comm_bytes,
        comm_time_us=comm_time,
    )


def compare_parallelism(spec: DatasetSpec, cluster: ClusterSpec, *,
                        batch_size: int = 2048, num_tt_tables: int = 7,
                        rank: int = 32) -> tuple[IterationCost, IterationCost]:
    """(model-parallel dense, data-parallel TT-Rec) costs side by side."""
    return (
        model_parallel_cost(spec, cluster, batch_size=batch_size),
        data_parallel_cost(spec, cluster, num_tt_tables=num_tt_tables, rank=rank),
    )
