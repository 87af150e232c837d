"""Shared benchmark plumbing.

Every benchmark checks one of the paper's tables or figures.  It takes
the result from :func:`figure`, which runs the artifact's one
definition in :mod:`repro.experiments.catalog` — ``compute()``, then
``table(result)``, the same two calls ``python -m repro <id>`` makes —
prints the table, writes it to ``results/<id>.txt`` and hands the
result to the test, which asserts the paper's qualitative claim: who
wins and by roughly what factor.

Scale: durations are simulated-milliseconds stand-ins for the paper's
minutes-long testbed runs (see DESIGN.md).  The verdicts are judged at
``quick``, the default; ``smoke`` is too short to show them.  Set
``REPRO_RESULTS_DIR`` to write the tables somewhere other than
``results/``.
"""

from __future__ import annotations

import functools
from pathlib import Path

import repro.experiments.catalog  # noqa: F401  (populates REGISTRY)
from repro.runner import REGISTRY, results_dir


def write_result(name: str, text: str) -> Path:
    """Persist one experiment's table; returns the path written."""
    path = results_dir() / f"{name}.txt"
    path.write_text(text + "\n")
    return path


@functools.lru_cache(maxsize=None)
def figure(experiment_id: str):
    """The result of registered experiment ``experiment_id``, computed
    once per session; its table is printed and written on the way."""
    entry = REGISTRY.get(experiment_id)
    result = entry.compute()
    text = entry.table(result)
    print(f"\n=== {entry.id}: {entry.description} ===\n{text}")
    write_result(entry.id, text)
    return result
