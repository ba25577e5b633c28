"""Datasets: exact Criteo specs, Zipf samplers, synthetic CTR generation.

Real Criteo Kaggle/Terabyte click logs cannot be redistributed or fetched
offline, so :mod:`repro.data.synthetic` generates Criteo-*shaped* data
(same feature layout, exact table cardinalities, Zipf-distributed
categorical traffic, a planted logistic ground truth) in their place.
"""

from repro.data.batching import Batch, make_offsets
from repro.data.specs import (
    KAGGLE,
    PAPER_KAGGLE_TT_SHAPES,
    TERABYTE,
    DatasetSpec,
)
from repro.data.synthetic import SyntheticCTRDataset
from repro.data.zipf import ZipfSampler

__all__ = [
    "DatasetSpec",
    "KAGGLE",
    "TERABYTE",
    "PAPER_KAGGLE_TT_SHAPES",
    "ZipfSampler",
    "SyntheticCTRDataset",
    "Batch",
    "make_offsets",
]
