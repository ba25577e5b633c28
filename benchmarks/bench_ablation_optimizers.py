"""Ablation: embedding optimizer choice (SGD vs Adagrad vs row-wise Adagrad).

The MLPerf-DLRM reference (and the paper) trains with plain SGD; industry
DLRM training typically uses (row-wise) Adagrad for the embedding tables.
This bench trains the same TT-Rec model under each optimizer and compares
convergence and optimizer-state overhead.
"""

from conftest import banner, scaled_iters

from repro.bench import format_table
from repro.data import SyntheticCTRDataset
from repro.models import TTConfig, build_ttrec
from repro.ops.optim import Adagrad, RowWiseAdagrad, SparseSGD
from repro.training import Trainer
from trainlib import MIN_ROWS, small_config


def _state_floats(opt) -> int:
    """Optimizer-state floats beyond the parameters themselves."""
    return sum(a.size for slots in opt.slots for a in slots.values())


def test_embedding_optimizers(benchmark, kaggle_small):
    iters = scaled_iters(200)
    cfg = small_config(kaggle_small)

    def run():
        rows = []
        for name, make_opt, lr in (
            ("SGD (paper/MLPerf)", SparseSGD, 0.1),
            ("Adagrad", Adagrad, 0.05),
            ("RowWiseAdagrad", RowWiseAdagrad, 0.05),
        ):
            ds = SyntheticCTRDataset(kaggle_small, seed=9, noise=0.7)
            model = build_ttrec(cfg, num_tt_tables=5, tt=TTConfig(rank=8),
                                min_rows=MIN_ROWS, rng=0)
            opt = make_opt(model.parameters(), lr=lr)
            trainer = Trainer(model, optimizer=opt)
            res = trainer.train(ds.batches(96, iters))
            ev = trainer.evaluate(ds.batches(512, 6))
            rows.append([
                name, f"{res.smoothed_loss():.4f}",
                f"{ev.accuracy * 100:.2f}", f"{ev.auc:.4f}",
                f"{_state_floats(opt):,}",
            ])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    banner("Ablation: embedding optimizer (TT-Emb 5, R=8)")
    print(format_table(
        ["optimizer", "final loss", "accuracy %", "auc", "extra state floats"],
        rows,
    ))
    print("\nRow-wise Adagrad keeps one accumulator per row: same adaptive "
          "benefit as Adagrad at a fraction of the state (why industry "
          "DLRM training uses it)")
    state = [int(r[4].replace(",", "")) for r in rows]
    assert state[0] == 0  # SGD stateless
    assert state[2] < state[1]  # row-wise smaller than element-wise
    # All three must actually learn.
    for r in rows:
        assert float(r[3]) > 0.6
