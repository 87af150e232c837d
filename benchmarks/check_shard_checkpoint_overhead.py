#!/usr/bin/env python
"""CI gate: shard checkpoint journaling must stay under 10% of wall.

Times a sharded fabric scenario in fresh subprocesses with the barrier
journal off (``REPRO_SHARD_CHECKPOINT=off``) and on, best-of-N each,
and fails when the journalled run is more than the threshold slower.
Fresh subprocesses keep the comparison honest (no warm caches or
lingering worker pools), and rounds alternate between the two modes so
thermal drift hits both equally.  Each child reports the parent's
measured journaling time too, so a failure distinguishes "the journal
is expensive" from "the host was noisy".

Usage (CI runs this in the shard-resilience smoke)::

    PYTHONPATH=src python benchmarks/check_shard_checkpoint_overhead.py \
        --scenario fabric-bench --shards 2 --rounds 3 --threshold 0.10
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

CHILD = """\
import json, time
from repro.cli import _prepare_scenario
from repro.runner import run_scenario_inline
from repro.shard import runner as shard_runner
scenario = _prepare_scenario({scenario!r})
if scenario is None:
    raise SystemExit(2)
start = time.perf_counter()
run_scenario_inline(scenario, {seed})
wall = time.perf_counter() - start
stats = shard_runner.LAST_STATS
if stats is None:
    raise SystemExit("scenario did not run sharded")
print(json.dumps({{"wall_s": wall, "checkpoint_s": stats["checkpoint_s"]}}))
"""


def time_once(
    scenario: str, seed: int, shards: int, checkpoint: str, results_dir: str
) -> dict:
    """Wall seconds of one fresh-process sharded run with the knob set."""
    env = dict(
        os.environ,
        REPRO_SHARD_CHECKPOINT=checkpoint,
        REPRO_SHARDS=str(shards),
        REPRO_RESULTS_DIR=results_dir,
    )
    out = subprocess.run(
        [sys.executable, "-c", CHILD.format(scenario=scenario, seed=seed)],
        env=env,
        capture_output=True,
        text=True,
    )
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"timing child failed (rc={out.returncode})")
    return json.loads(out.stdout.strip())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scenario", default="fabric-bench", help="named scenario to time"
    )
    parser.add_argument("--shards", type=int, default=2)
    parser.add_argument("--rounds", type=int, default=3, help="best-of-N rounds")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.10,
        help="max allowed fractional wall-clock overhead (0.10 = 10%%)",
    )
    args = parser.parse_args(argv)

    best = {"off": float("inf"), "on": float("inf")}
    journal_s = 0.0
    with tempfile.TemporaryDirectory(prefix="shard-ckpt-bench-") as results:
        for round_no in range(args.rounds):
            for mode in ("off", "on"):
                sample = time_once(
                    args.scenario, args.seed, args.shards, mode, results
                )
                best[mode] = min(best[mode], sample["wall_s"])
                if mode == "on":
                    journal_s = max(journal_s, sample["checkpoint_s"])
                print(
                    f"round {round_no + 1}/{args.rounds} "
                    f"REPRO_SHARD_CHECKPOINT={mode}: "
                    f"{sample['wall_s']:.2f}s wall, "
                    f"{sample['checkpoint_s']:.3f}s journaling"
                )
    overhead = (
        (best["on"] - best["off"]) / best["off"] if best["off"] > 0 else 0.0
    )
    verdict = "ok" if overhead <= args.threshold else "FAIL"
    print(
        f"best off {best['off']:.2f}s, best on {best['on']:.2f}s, "
        f"overhead {overhead:+.1%} (ceiling {args.threshold:.0%}), "
        f"journaling {journal_s:.3f}s: {verdict}"
    )
    return 0 if overhead <= args.threshold else 1


if __name__ == "__main__":
    sys.exit(main())
