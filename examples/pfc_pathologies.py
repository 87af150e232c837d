#!/usr/bin/env python
"""Demonstrate PFC's pathologies on a Clos fabric, then fix them.

Recreates the paper's two §2.2 experiments:

* the parking-lot unfairness (H4, one hop from the receiver, robs
  bandwidth from H1-H3 because PAUSE works per port, not per flow);
* the victim flow (a transfer whose path shares no congested link
  still loses half its throughput to cascading PAUSEs).

...then repeats both with DCQCN enabled, reproducing Figures 3/4
against Figures 8/9.

Run:  python examples/pfc_pathologies.py
"""

import repro.experiments.catalog  # noqa: F401  (populates REGISTRY)
from repro.runner import REGISTRY


def main() -> None:
    print("=== Parking-lot unfairness (Figure 3: PFC only) ===")
    result = REGISTRY.get("fig03").compute()
    print(result.table())
    print(f"PAUSE frames per run: {result.pause_frames}")
    print("\nH4's *minimum* beats the others' typical share: PFC pauses "
          "ports,\nnot flows, and H4 shares its port with nobody.\n")

    print("=== Same scenario with DCQCN (Figure 8) ===")
    result = REGISTRY.get("fig08").compute()
    print(result.table())
    print(f"PAUSE frames per run: {result.pause_frames}")
    print("\nPer-flow control: everyone converges to a quarter of the "
          "bottleneck\nand PFC never fires.\n")

    print("=== Victim flow (Figure 4: PFC only) ===")
    result = REGISTRY.get("fig04").compute()
    print(result.table())
    print("\nThe victim shares no congested link with the incast, yet "
          "loses\nthroughput to the PAUSE cascade — and more as senders "
          "are added\nunder T3.\n")

    print("=== Same scenario with DCQCN (Figure 9) ===")
    result = REGISTRY.get("fig09").compute()
    print(result.table())
    print("\nWith the incast paced at the true bottleneck, the cascade "
          "never\nstarts and the victim keeps its bandwidth.")


if __name__ == "__main__":
    main()
