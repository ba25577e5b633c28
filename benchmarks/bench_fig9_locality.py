"""Fig. 9: stability of the most-frequently-accessed rows over training.

For the three largest tables, count cumulative access frequencies every 3%
of the training stream and report the fraction of the top-10k (scaled:
top-k) set that changed between consecutive checkpoints. The paper finds
the hot set stabilises early — the property the semi-dynamic cache relies
on. Each block is :func:`repro.analysis.locality.stability_series`, which
``repro report`` also writes to REPORT.md.
"""

from conftest import banner

from repro.analysis.locality import stability_series, top_set_stability
from repro.data import SyntheticCTRDataset


def test_fig9_locality(benchmark, kaggle_small):
    ds = SyntheticCTRDataset(kaggle_small, seed=0, zipf_s=1.05)
    tables = kaggle_small.largest(3)
    k = 200  # scaled stand-in for the paper's 10k rows
    stream_len = 120_000

    def compute():
        return {
            f"EMB{i + 1}": top_set_stability(
                ds.access_stream(t, stream_len), k=k, checkpoint_fraction=0.03
            )
            for i, t in enumerate(tables)
        }

    traces = benchmark.pedantic(compute, rounds=1, iterations=1)
    banner(f"Fig. 9: change in the top-{k} accessed rows every 3% of training")
    for name, trace in traces.items():
        print(stability_series(trace, name) + "\n")
    print("paper: the hot set stabilises well before training ends "
          "(~5% for Terabyte, ~50% for Kaggle)")
    for trace in traces.values():
        assert trace.change_fraction[0] > trace.change_fraction[-1]
        assert trace.change_fraction[-1] < 0.05
        assert trace.stabilization_point(0.05) < 1.0
