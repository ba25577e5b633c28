"""DLRM model assembly (paper Fig. 2) and the TT-Rec variant."""

from repro.models.config import DLRMConfig, TTConfig
from repro.models.dlrm import DLRM
from repro.models.serialization import (
    load_state_dict,
    parameter_keys,
    state_dict,
)
from repro.models.ttrec import build_dlrm, build_ttrec, largest_tables

__all__ = [
    "DLRMConfig",
    "TTConfig",
    "DLRM",
    "build_dlrm",
    "build_ttrec",
    "largest_tables",
    "state_dict",
    "load_state_dict",
    "parameter_keys",
]
