"""Result digests: what ``tests/digests.json`` pins.

The manifest holds, at ``--scale smoke``,

* per registered experiment id, the sha256 of the table
  ``python -m repro <id>`` prints and one sha256 per cell the run left
  in its own (fresh) result cache, keyed ``fn#sha256(kwargs)[:12]``;
* per named scenario, the sha256 of its ``RunResult`` at seed 0, run
  as it is defined (under its invariant guard, so
  ``invariant_report.checks`` is pinned too).

Values are hashed in one canonical JSON form: sorted keys, compact
separators, every float written as ``float(f"{x:.12g}")``.  Twelve
significant digits absorb the last-ulp differences numpy's vectorised
kernels show between CPUs with and without AVX-512, which no printed
table resolves.

``python -m repro digest > tests/digests.json`` regenerates the
manifest from these functions; the CLI smoke test and the strict
scenario test check against it with the same ones.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict

import repro.experiments.catalog  # noqa: F401  (populates the registries)
from repro.runner import cache
from repro.runner.registry import SCENARIOS
from repro.runner.results import RunResult
from repro.runner.scenario import run_scenario_inline


def _rounded(value: Any) -> Any:
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, dict):
        return {key: _rounded(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_rounded(item) for item in value]
    return value


def sha256(value: Any) -> str:
    """sha256 of a JSON value's canonical form, or of a str as is."""
    if not isinstance(value, str):
        value = json.dumps(_rounded(value), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(value.encode()).hexdigest()


def cell_digests() -> Dict[str, str]:
    """``fn#sha256(kwargs)[:12]`` -> sha256 of the result, for every cell
    in the result cache :mod:`repro.runtime` points at now."""
    digests: Dict[str, str] = {}
    for fn, kwargs, result in cache.entries():
        key = f"{fn}#{sha256(kwargs)[:12]}"
        value = sha256(result)
        if digests.setdefault(key, value) != value:
            raise ValueError(f"two cached results under one manifest key {key}")
    return digests


def of_experiment(table: str) -> Dict[str, Any]:
    """An id's manifest entry, from the table its run printed and the
    cells that run left in its own result cache."""
    return {"table": sha256(table), "cells": cell_digests()}


def scenario_result(scenario_id: str) -> RunResult:
    """A named scenario run once at seed 0, as it is defined."""
    result, _ = run_scenario_inline(SCENARIOS.get(scenario_id).compute(), seed=0)
    return result
