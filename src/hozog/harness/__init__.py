"""Experiment orchestration: configs, metrics, traces, CLI."""

from .config import ExperimentConfig, load_config
from .metrics import TRACE_COLUMNS, TraceRecord, TraceWriter, compute_metrics
from .runner import build_objective, run_experiment, sweep

__all__ = [
    "ExperimentConfig",
    "TRACE_COLUMNS",
    "TraceRecord",
    "TraceWriter",
    "build_objective",
    "compute_metrics",
    "load_config",
    "run_experiment",
    "sweep",
]
