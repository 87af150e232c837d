"""Unified scenario/runner layer for the experiment suite.

The pieces (see DESIGN.md §4):

* :mod:`repro.runner.scale` — run-scale policy (smoke / quick)
  and the deterministic seed schedule.
* :mod:`repro.runner.executor` — :class:`Cell` fan-out across worker
  processes, input-order results, serial fallback.
* :mod:`repro.runner.cache` — content-hash result caching under
  ``results/.cache/``, which is also what lets an interrupted sweep
  pick up where it stopped.
* :mod:`repro.runner.resilience` — execution hardening policy: run
  timeouts and bounded retry.
* :mod:`repro.runner.spec` — declarative :class:`Scenario` /
  :class:`FlowSpec` specs and their JSON form.
* :mod:`repro.runner.scenario` — one run of a scenario and the generic
  scenario cell.
* :mod:`repro.runner.results` — the JSON-serializable
  :class:`RunResult` schema and table rendering.
* :mod:`repro.runner.registry` — the :data:`REGISTRY` of experiments
  (each simulated id a set of named arms) behind ``python -m repro``.

Serial (``jobs=1``) and parallel (``jobs=N``) execution are
bit-identical: cells are pure functions of (spec, seed), results are
JSON-normalized either way, and ordering follows the input list, not
completion order.  What a run takes from outside (scale, jobs, cache,
results directory, timeout) is parsed in one place,
:mod:`repro.runtime`.
"""

from repro.runner.cache import results_dir
from repro.runner.executor import Cell, ExecutionStats, execute
from repro.runner.registry import (
    REGISTRY,
    SCENARIOS,
    Entry,
    Registry,
    experiment,
)
from repro.runner.resilience import RetryPolicy, default_timeout_s
from repro.runner.results import (
    RunFailure,
    RunResult,
    format_table,
)
from repro.runner.scale import derive_seed, pick, seeds_for
from repro.runner.scenario import (
    run_arms,
    run_scenario,
    run_scenario_cell,
    run_scenario_inline,
    run_sweep,
    scenario_cells,
)
from repro.runner.spec import FlowSpec, Scenario

__all__ = [
    "Cell",
    "Entry",
    "ExecutionStats",
    "FlowSpec",
    "REGISTRY",
    "Registry",
    "RetryPolicy",
    "RunFailure",
    "RunResult",
    "SCENARIOS",
    "Scenario",
    "default_timeout_s",
    "derive_seed",
    "execute",
    "experiment",
    "format_table",
    "pick",
    "results_dir",
    "run_arms",
    "run_scenario",
    "run_scenario_cell",
    "run_scenario_inline",
    "run_sweep",
    "scenario_cells",
    "seeds_for",
]
