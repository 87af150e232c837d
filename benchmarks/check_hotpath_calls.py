#!/usr/bin/env python
"""CI gate: the per-packet path stays a few calls deep.

cProfiles one serial run of ``bench/workloads/fabric_storage_k8.json``
at the pinned seed and fails when the total number of Python and C
calls per engine event exceeds the budget.  The figure is a count: it
does not move with the speed or load of the box, only with the
structure of the hot path (a queue visited by a frame that never waits,
a second Python frame per arrival, an owner call on an empty port).
9.63 before the idle-egress cut-through, 6.48 with it.

It then cProfiles ``bench/workloads/fabric_1024_guarded.json`` and
fails when the Python frames in ``repro/invariants/guard.py`` exceed
0.1 per engine event, so the guard keeps costing what the traffic
costs: no frame per dequeue, none per idle switch per sweep (0.477
with both, 0.038 without).

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

#: guard.py frames allowed per engine event on the guarded workload
GUARD_FRAMES_PER_EVENT_BUDGET = 0.1


def _profiled_run(workload: str):
    from repro.runner import Scenario, run_scenario_inline

    spec = json.loads((BENCH / "workloads" / f"{workload}.json").read_text())
    scenario = Scenario.from_spec(spec["scenario"])
    seed = json.loads((BENCH / "digests.json").read_text())["seed"]
    profile = cProfile.Profile()
    _, net = profile.runcall(run_scenario_inline, scenario, seed)
    return pstats.Stats(profile), net.engine.events_processed


def main() -> int:
    failed = False
    stats, events = _profiled_run("fabric_storage_k8")
    calls = stats.total_calls
    per_event = calls / events
    print(
        f"fabric_storage_k8: {calls} calls / {events} events = "
        f"{per_event:.2f} per event (budget {CALLS_PER_EVENT_BUDGET})"
    )
    if per_event > CALLS_PER_EVENT_BUDGET:
        print("FAIL: the per-packet path grew a call per event", file=sys.stderr)
        failed = True

    stats, events = _profiled_run("fabric_1024_guarded")
    guard_file = str(Path("repro", "invariants", "guard.py"))
    frames = sum(
        nc
        for (filename, _, _), (_, nc, _, _, _) in stats.stats.items()
        if filename.endswith(guard_file)
    )
    per_event = frames / events
    print(
        f"fabric_1024_guarded: {frames} guard.py frames / {events} events = "
        f"{per_event:.3f} per event (budget {GUARD_FRAMES_PER_EVENT_BUDGET})"
    )
    if per_event > GUARD_FRAMES_PER_EVENT_BUDGET:
        print(
            "FAIL: the invariant guard grew a frame per dequeue or per idle switch",
            file=sys.stderr,
        )
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
