"""Shared plumbing: the log-spaced grids of the spectral sweeps."""

from __future__ import annotations

import math

import numpy as np


def log_grid(lo: float, hi: float, n: int) -> np.ndarray:
    """n points from lo to hi (both > 0), equally spaced in log."""
    return np.exp(np.linspace(math.log(lo), math.log(hi), n))
