"""Discrete-event simulator and analytic toolkit for an RSU-assisted
trigger-line transaction service over a stochastic sidelink channel."""

from .channel import load_per_curve, per
from .core import ScenarioConfig
from .engine import run, run_batch
from .metrics import RunSummary, sct_percentile

__version__ = "0.1.0"

__all__ = [
    "RunSummary", "ScenarioConfig", "load_per_curve", "per", "run",
    "run_batch", "sct_percentile",
]
