"""TT-EmbeddingBag: the paper's core operator (Algorithms 1 and 2).

Forward (Algorithm 1): each queried row index is decoded into per-core
indices ``(i_1, ..., i_d)``; the row is the chain of matrix products
``G_1(i_1) G_2(:,i_2) ... G_d(:,i_d)`` (paper Eq. 3), evaluated for the
whole batch at once: each chain step groups the batch by core index and
runs every lookup's GEMM against a view of its core slice — the NumPy
analogue of handing cuBLAS ``GemmBatchedEx`` pointers to the slices (see
:meth:`repro.tt.planner.ExecutionPlanner.execute`). Rows are then pooled
into bags by summation/averaging with optional per-sample weights
(Eq. 6-7).

Backward (Algorithm 2): the chain rule of Eq. 4-5. For every core ``k`` the
per-sample gradient is ``L_{k-1}^T dO R_k^T`` where ``L`` are the left
partial products (``tr_i`` in the paper — either stored from forward or
recomputed, §4.2's trade-off) and ``R`` right partial products built by a
backward sweep. Samples are grouped by core index and each touched slice
receives one GEMM over its group (:func:`accumulate_core_grads`), so the
per-sample gradient block is never materialised and each core's gradient
is the coalesced ``(slices, blocks)`` pair those GEMMs return — which is
why every TT-family core is a sparse parameter.

Storage layout: cores are kept mode-first, ``(m_k, R_{k-1}, n_k, R_k)``,
so a core slice is one contiguous block; see :class:`repro.tt.shapes.TTShape`.
"""

from __future__ import annotations

import numpy as np

from repro.ops.embedding import CompressedEmbedding
from repro.ops.module import Parameter, sum_rows
from repro.telemetry import trace
from repro.tt.decomposition import tt_reconstruct
from repro.tt.initialization import tt_core_initializer
from repro.tt.kernels import segmented_matmul, segmented_outer_add
from repro.tt.planner import BatchPlan, ExecutionPlanner
from repro.tt.shapes import TTShape
from repro.utils.dtypes import default_dtype
from repro.utils.seeding import as_rng

__all__ = ["TTEmbeddingBag", "accumulate_core_grads", "combine_duplicates"]


def accumulate_core_grads(shape: TTShape, cores: list[Parameter],
                          plan: BatchPlan, grad_rows: np.ndarray,
                          lefts: list[np.ndarray]) -> None:
    """Algorithm 2's right-to-left sweep, shared by every TT operator.

    ``grad_rows`` ``(n, dim)`` and the left partials ``lefts`` hold one
    entry per planned row of ``plan``. For core ``k`` the sweep forms the
    two per-sample factors of ``L_{k-1}^T dO R_k^T`` — never their product
    — and the segmented kernels of :mod:`repro.tt.kernels` contract them
    per touched slice, grouped by the plan's per-core runs the forward
    already sorted. Core ``k``'s gradient is the ``(slices, blocks)`` pair
    that contraction returns, accumulated onto ``cores[k]``.
    """
    n = plan.n_unique
    if n == 0:
        return
    # Both factors are kept K-major, (sample, Q_k, ...), so a slice's
    # samples stack along the GEMM's K axis without a transpose.
    right_t = np.ones((n, 1, 1), dtype=grad_rows.dtype)  # Right_k^T: (n, Q_k, R_k)
    q = 1
    for k in range(shape.d - 1, -1, -1):
        r_prev = shape.ranks[k]
        nk = shape.col_factors[k]
        with trace("tt.backward.gemm", core=k):
            # dO as (n, Q, P, n_k): a dim-element-per-sample permute
            d_out = np.ascontiguousarray(
                grad_rows.reshape(n, -1, nk, q).transpose(0, 3, 1, 2))
            if k > 0:
                # (n, 1, R_{k-1}, P) @ (n, Q, P, n_k) -> (L^T dO)^T
                d_out = np.matmul(lefts[k - 1].transpose(0, 2, 1)[:, None],
                                  d_out)
            left_do_t = d_out.reshape(n, q, r_prev * nk)
        with trace("tt.backward.segment_gemm", core=k):
            slices, block = segmented_outer_add(plan.decoded[k], left_do_t,
                                                right_t, plan.runs(k))
            cores[k].accumulate(slices, block.reshape(-1, *cores[k].shape[1:]))
        if k > 0:
            with trace("tt.backward.gemm_right", core=k):
                # Right_{k-1}^T = Right_k^T · G_k(i_k)^T per column of n_k:
                # (n, Q, R_k) x (m_k, n_k, R_k, R_{k-1}) -> (n, n_k, Q, R_{k-1})
                right_t = segmented_matmul(
                    right_t, plan.decoded[k],
                    cores[k].data.transpose(0, 2, 3, 1), plan.runs(k))
                q *= nk
                right_t = right_t.reshape(n, q, r_prev)


def combine_duplicates(grad_rows: np.ndarray, plan: BatchPlan) -> np.ndarray:
    """Per-lookup gradients -> one per *planned* row: a deduplicated plan's
    duplicates are summed, in input order, through ``plan.inverse``."""
    if plan.inverse is None:
        return grad_rows
    return sum_rows(plan.inverse, grad_rows, plan.n_unique)


class TTEmbeddingBag(CompressedEmbedding):
    """Bag-pooled embedding lookup backed by TT cores.

    Parameters
    ----------
    num_rows, dim:
        Logical table shape (the dense table being replaced).
    shape:
        Explicit :class:`TTShape`; if ``None`` one is derived via
        :meth:`TTShape.suggested` from ``d`` and ``rank``.
    rank, d:
        Uniform internal TT-rank and number of cores for the derived shape.
    mode:
        Bag pooling, ``"sum"`` or ``"mean"``.
    initializer:
        Either a strategy name from
        :data:`repro.tt.initialization.CORE_INIT_STRATEGIES`
        (default ``"sampled_gaussian"``, paper Algorithm 3) or a callable
        ``(TTShape, rng) -> list[np.ndarray]``.
    store_intermediates:
        Keep the forward partial products (``tr_i``) for backward. Disabling
        recomputes them (paper §4.2: lower memory, more FLOPs) — the
        recompute-vs-store ablation bench flips this flag.
    dedup:
        Collapse duplicate indices within a *training forward* before the
        TT chain and expand afterwards; duplicate gradients are then summed
        before Algorithm 2 rather than inside it. The paper's GPU kernel
        does not dedup (Fig. 11 discusses exactly this reuse gap vs
        EmbeddingBag); dedup is off by default for faithfulness but
        available as an optimization. Reads (``lookup``, ``lookup_bags``)
        always dedup, whatever this flag says: a row's bytes depend on its
        id and the shape alone, so collapsing duplicates changes no output
        byte there.

    The contraction order is not an option: the table's
    :class:`~repro.tt.planner.ExecutionPlanner` computes one split from
    the shape at construction (``d - 1`` when left partials are kept,
    else the fewest FLOPs), so a row's bytes depend on its id and the
    shape alone.
    """

    kind = "tt"

    def __init__(self, num_rows: int, dim: int, *, shape: TTShape | None = None,
                 rank: int = 32, d: int = 3, mode: str = "sum",
                 initializer="sampled_gaussian",
                 rng: int | None | np.random.Generator = None,
                 store_intermediates: bool = True, dedup: bool = False,
                 name: str = "tt_emb"):
        super().__init__(num_rows, dim, mode)
        if shape is None:
            shape = TTShape.suggested(num_rows, dim, d=d, rank=rank)
        if shape.num_rows != num_rows or shape.dim != dim:
            raise ValueError(
                f"shape describes a {shape.num_rows}x{shape.dim} table, "
                f"expected {num_rows}x{dim}"
            )
        self.shape = shape
        self.store_intermediates = store_intermediates
        self.dedup = dedup
        if callable(initializer):
            init_fn = initializer
        else:
            init_fn = tt_core_initializer(initializer)
        cores = init_fn(shape, as_rng(rng))
        self.cores: list[Parameter] = []
        for k, core in enumerate(cores):
            expected = shape.core_shape(k)
            if core.shape != expected:
                raise ValueError(
                    f"initializer produced core {k} of shape {core.shape}, "
                    f"expected {expected}"
                )
            self.cores.append(Parameter(core, name=f"{name}.core{k}", sparse=True))
        self.planner = ExecutionPlanner(shape)

    # ------------------------------------------------------------------ #
    # Forward
    # ------------------------------------------------------------------ #

    def _row_chain(self, plan: BatchPlan) -> tuple[np.ndarray, list[np.ndarray]]:
        """Batched TT chain (Algorithm 1). Returns ``(rows, left_partials)``.

        ``rows`` is ``(n, dim)``; ``left_partials[k]`` is the product of
        cores ``0..k`` with shape ``(n, prod_{j<=k} n_j, R_{k+1})`` (the
        ``tr_k`` buffers of Algorithm 1). Always split ``d - 1`` (the one
        sweep that makes every left partial) and always unpooled, so
        callers may hold the returned buffers indefinitely.
        """
        return self.planner.execute(self.cores, plan, split=self.shape.d - 1,
                                    keep_lefts=True)

    def _rows(self, indices: np.ndarray) -> np.ndarray:
        """Materialise the requested rows through *unpooled* buffers,
        contracting each distinct row once.

        ``lookup`` is called between forward and backward (cache
        population, scrubbing), so it must not clobber
        pooled left partials a pending backward still needs.
        """
        if indices.size == 0:
            return np.zeros((0, self.dim), dtype=self.dtype)
        plan = self.planner.plan_batch(indices, dedup=True, need_lefts=False)
        rows, _ = self.planner.execute(self.cores, plan)
        return rows[plan.inverse] if plan.inverse is not None else rows

    def _planned_rows(self, indices: np.ndarray, dedup: bool):
        """A forward's rows and the ``(plan, lefts)`` its backward consumes.

        One plan shared with backward: dedup once, run through pooled
        scratch buffers (reused across steps). Left partials are pool
        views, valid until the next pooled call — i.e. exactly until this
        forward's backward has consumed them.
        """
        plan = self.planner.plan_batch(indices, dedup=dedup,
                                       need_lefts=self.store_intermediates)
        rows, lefts = self.planner.execute(
            self.cores, plan, keep_lefts=self.store_intermediates, pooled=True)
        if plan.inverse is not None:
            rows = rows[plan.inverse]
        return rows, (plan, lefts)

    def _forward_rows(self, indices: np.ndarray):
        if indices.size == 0:
            # All bags empty: zero output, nothing for backward to touch.
            return np.zeros((0, self.dim), dtype=self.dtype), None
        return self._planned_rows(indices, self.dedup)

    # ------------------------------------------------------------------ #
    # Backward
    # ------------------------------------------------------------------ #

    def _backward_rows(self, indices, grad_rows, saved) -> None:
        if saved is not None:
            self._backward_plan(grad_rows, *saved)

    def _backward_plan(self, grad_rows: np.ndarray, plan: BatchPlan,
                       lefts: list[np.ndarray] | None) -> None:
        """Algorithm 2 for one planned batch of per-lookup gradients."""
        if lefts is None:
            # Recompute-intermediates arm (paper §4.2, Algorithm 2 line 3).
            with trace("tt.backward.recompute"):
                _, lefts = self._row_chain(plan)
        accumulate_core_grads(self.shape, self.cores, plan,
                              combine_duplicates(grad_rows, plan), lefts)

    # ------------------------------------------------------------------ #
    # Registry hooks
    # ------------------------------------------------------------------ #

    @staticmethod
    def _spec_shape(spec) -> TTShape:
        return TTShape.suggested(spec.num_rows, spec.dim,
                                 d=int(spec.get("d", 3)),
                                 rank=int(spec.get("rank", 8)))

    @classmethod
    def from_spec(cls, spec) -> "TTEmbeddingBag":
        """Knobs: ``rank``, ``d``, ``initializer``, ``dedup``."""
        cls._check_knobs(spec, {"rank", "d", "initializer", "dedup"})
        return cls(spec.num_rows, spec.dim, shape=cls._spec_shape(spec),
                   initializer=spec.get("initializer", "sampled_gaussian"),
                   dedup=bool(spec.get("dedup", False)),
                   mode=spec.mode, rng=as_rng(spec.seed),
                   name=spec.name or "tt_emb")

    @classmethod
    def predict_memory_bytes(cls, spec) -> int:
        return cls._spec_shape(spec).num_params() * default_dtype().itemsize

    # ------------------------------------------------------------------ #
    # Interop
    # ------------------------------------------------------------------ #

    def materialize(self) -> np.ndarray:
        """Reconstruct the full dense ``(num_rows, dim)`` table from the cores.

        Intended for analysis/tests and for populating caches; this is the
        O(M*N) operation the TT format exists to avoid during training.
        """
        return tt_reconstruct([p.data for p in self.cores], self.shape)

    def load_cores(self, cores: list[np.ndarray]) -> None:
        """Replace core values in place (e.g. with a :func:`tt_svd` result)."""
        if len(cores) != self.shape.d:
            raise ValueError(f"expected {self.shape.d} cores, got {len(cores)}")
        for k, core in enumerate(cores):
            expected = self.shape.core_shape(k)
            if core.shape != expected:
                raise ValueError(f"core {k} has shape {core.shape}, expected {expected}")
            self.cores[k].data[...] = core
