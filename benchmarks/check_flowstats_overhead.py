#!/usr/bin/env python
"""CI gate: FlowStats bookkeeping must stay near-free when tracing is off.

Times a named scenario in fresh subprocesses with ``REPRO_FLOWSTATS``
off (the pre-observability baseline) and on (the default), best-of-N
each, and fails when the enabled run's events/sec drops more than the
threshold below the disabled run.  Subprocesses are required because
the knob is read once at ``repro.sim.host`` import; rounds alternate
between the two modes so thermal drift hits both equally.

Usage (as CI's cc-arena-smoke job runs it)::

    PYTHONPATH=src python benchmarks/check_flowstats_overhead.py \
        --scenario smoke --rounds 3 --threshold 0.05
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

CHILD = """\
import json, time
from repro.cli import _prepare_scenario
from repro.runner import run_scenario_inline
scenario = _prepare_scenario({scenario!r})
if scenario is None:
    raise SystemExit(2)
start = time.perf_counter()
_, net = run_scenario_inline(scenario, {seed})
wall = time.perf_counter() - start
print(json.dumps({{"events": net.engine.events_processed, "wall_s": wall}}))
"""


def time_once(scenario: str, seed: int, flowstats: str) -> float:
    """Events/sec of one fresh-process run with the knob set."""
    env = dict(os.environ, REPRO_FLOWSTATS=flowstats)
    out = subprocess.run(
        [sys.executable, "-c", CHILD.format(scenario=scenario, seed=seed)],
        env=env,
        capture_output=True,
        text=True,
    )
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"timing child failed (rc={out.returncode})")
    sample = json.loads(out.stdout.strip())
    return sample["events"] / sample["wall_s"] if sample["wall_s"] > 0 else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scenario", default="smoke", help="named scenario to time")
    parser.add_argument("--rounds", type=int, default=3, help="best-of-N rounds")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.05,
        help="max allowed fractional events/sec regression (0.05 = 5%%)",
    )
    args = parser.parse_args(argv)

    best = {"off": 0.0, "on": 0.0}
    for round_no in range(args.rounds):
        for mode in ("off", "on"):
            eps = time_once(args.scenario, args.seed, mode)
            best[mode] = max(best[mode], eps)
            print(
                f"round {round_no + 1}/{args.rounds} "
                f"REPRO_FLOWSTATS={mode}: {eps:,.0f} events/s"
            )
    ratio = best["on"] / best["off"] if best["off"] > 0 else 0.0
    floor = 1.0 - args.threshold
    verdict = "ok" if ratio >= floor else "FAIL"
    print(
        f"best off {best['off']:,.0f} ev/s, best on {best['on']:,.0f} ev/s, "
        f"ratio {ratio:.3f} (floor {floor:.3f}): {verdict}"
    )
    return 0 if ratio >= floor else 1


if __name__ == "__main__":
    sys.exit(main())
