#!/usr/bin/env python
"""CI gate: the per-packet path stays a few calls deep.

cProfiles one serial run of ``bench/workloads/fabric_storage_k8.json``
at the pinned seed and fails when the total number of Python and C
calls per engine event exceeds the budget.  The figure is a count: it
does not move with the speed or load of the box, only with the
structure of the hot path (a queue visited by a frame that never waits,
a second Python frame per arrival, an owner call on an empty port).
9.63 before the idle-egress cut-through, 6.48 with it.

Usage (CI runs this in the bench-digests job)::

    PYTHONPATH=src python benchmarks/check_hotpath_calls.py
"""

from __future__ import annotations

import cProfile
import json
import pstats
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"

#: total profiled calls allowed per engine event
CALLS_PER_EVENT_BUDGET = 7.0


def main() -> int:
    from repro.runner import Scenario, run_scenario_inline

    spec = json.loads((BENCH / "workloads" / "fabric_storage_k8.json").read_text())
    scenario = Scenario.from_spec(spec["scenario"])
    seed = json.loads((BENCH / "digests.json").read_text())["seed"]
    profile = cProfile.Profile()
    _, net = profile.runcall(run_scenario_inline, scenario, seed)
    calls = pstats.Stats(profile).total_calls
    events = net.engine.events_processed
    per_event = calls / events
    print(
        f"fabric_storage_k8: {calls} calls / {events} events = "
        f"{per_event:.2f} per event (budget {CALLS_PER_EVENT_BUDGET})"
    )
    if per_event > CALLS_PER_EVENT_BUDGET:
        print("FAIL: the per-packet path grew a call per event", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
