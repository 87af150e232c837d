"""Shared experiment plumbing over :mod:`repro.runner`.

The scale/seed policy, table rendering and results directory live in
the runner layer (``repro.runner.scale`` / ``repro.runner.results`` /
``repro.runner.cache``); use those directly for new code.  The
PR-1-era ``pick``/``seeds_for`` deprecation shims are gone — import
:mod:`repro.runner.scale` instead.  What remains here is the small
experiment-side surface: the results directory, table writing, and
Gbps formatting.
"""

from __future__ import annotations

from pathlib import Path

from repro.runner import cache as _cache
from repro.runner.results import format_table  # noqa: F401  (re-export)


def results_dir() -> Path:
    """Directory where benchmarks drop their regenerated tables."""
    return _cache.results_dir()


def write_result(name: str, text: str) -> Path:
    """Persist one experiment's table; returns the path written."""
    path = results_dir() / f"{name}.txt"
    path.write_text(text + "\n")
    return path


def gbps(value_bps: float) -> float:
    return value_bps / 1e9


def fmt_gbps(value_bps: float) -> str:
    return f"{value_bps / 1e9:.2f}"
