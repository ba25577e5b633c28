"""Fixture: IMP001 — three imports never read (lines 5, 6 and 7)."""
from __future__ import annotations

import numpy as np
import os.path
import json, re
from collections import OrderedDict as Ordered, deque
from typing import Any

__all__ = ["deque"]


def head(x: Any):
    return np.asarray(x)[:1], re.escape("x")
