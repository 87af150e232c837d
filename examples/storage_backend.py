#!/usr/bin/env python
"""Cloud-storage backend scenario: user traffic + a disk-rebuild incast.

This is the workload that motivates the paper (§6.2): a 3-tier Clos
fabric carrying steady user requests while a failed disk is rebuilt by
fetching erasure-coded chunks from many servers at once.  The script
runs the same scenario twice — PFC-only and DCQCN — and prints the
median and 10th-percentile goodput of both traffic classes plus the
PAUSE storm reaching the spines.

Run:  python examples/storage_backend.py  [--degree 8] [--pairs 20]
"""

import argparse

from repro import units
from repro.analysis.stats import summarize
from repro.experiments.benchmark_traffic import (
    BenchmarkTrafficResult,
    traffic_scenario,
)
from repro.runner import run_scenario


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--degree", type=int, default=8,
                        help="disk-rebuild incast degree (senders per rebuild)")
    parser.add_argument("--pairs", type=int, default=20,
                        help="number of user communicating pairs")
    args = parser.parse_args()

    print(f"storage backend: {args.pairs} user pairs, "
          f"{args.degree}:1 disk rebuild, 40 Gbps Clos\n")

    for variant, label in (("none", "PFC only"), ("dcqcn", "DCQCN")):
        # DCQCN flows start at line rate and need a few ms to settle
        seed = 5000 + 17 * args.degree
        scenario = traffic_scenario(
            variant,
            incast_degree=args.degree,
            n_pairs=args.pairs,
            warmup_ns=units.ms(8 if variant == "dcqcn" else 2),
            measure_ns=units.ms(8),
            fresh_qp=False,
            seed=seed,
        )
        (run,) = run_scenario(scenario, [seed])
        result = BenchmarkTrafficResult.from_run(
            variant, args.degree, args.pairs, run
        )
        user = summarize(result.user_bps)
        rebuild = summarize(result.incast_bps)
        print(f"=== {label} ===")
        print(f"  user pairs     : median {user.median / 1e9:5.2f} Gbps, "
              f"p10 {user.p10 / 1e9:5.2f} Gbps")
        print(f"  rebuild senders: median {rebuild.median / 1e9:5.2f} Gbps, "
              f"p10 {rebuild.p10 / 1e9:5.2f} Gbps "
              f"(ideal fair share {40 / args.degree:.2f})")
        print(f"  PAUSE frames at spines: {result.total_spine_pauses()}")
        print(f"  packets dropped: {sum(result.dropped_packets)}\n")

    print("DCQCN keeps the rebuild fair and the user traffic unharmed —\n"
          "the PAUSE storm (and the head-of-line blocking it causes) is gone.")


if __name__ == "__main__":
    main()
