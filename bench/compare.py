"""Compare two ``bench/out/latest.json`` files: ``compare.py A.json B.json``.

One row per (workload, end-to-end metric): both medians with their
quartiles, the ratio B/A (A is the base), and a verdict:

``ok``          B's median is no worse than A's by more than the bound
``worse``       it is
``unresolved``  either side's inter-quartile spread exceeds the bound,
                so the runs cannot tell (unless every run of B beats
                every run of A, which is ``ok`` whatever the spread)

The bound of a row is the larger of its relative part times A's median
and its absolute floor; both are recorded in A.  Nothing is called
``ok`` across differing ``nproc`` or Python versions, or when either
file is stamped ``comparable: false``.  Exact counts (=) and result
digests must be identical; every one that changed is listed.

Exit code 0 when every row is ``ok`` and nothing exact changed, else 1.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict, List, Optional, Tuple

def verdict(a: Dict[str, Any], b: Dict[str, Any], rel: float, floor: float) -> str:
    """``a`` / ``b``: ``{"median", "q1", "q3", "values"}`` of one metric.

    Every end-to-end metric is lower-is-better.
    """
    allowed = max(rel * a["median"], floor)
    if max(b["values"]) < min(a["values"]):
        return "ok"
    if max(a["q3"] - a["q1"], b["q3"] - b["q1"]) > allowed:
        return "unresolved"
    return "worse" if b["median"] - a["median"] > allowed else "ok"


def incomparable(a: Dict[str, Any], b: Dict[str, Any]) -> Optional[str]:
    """Why no row of this pair may be called ``ok``, or ``None``."""
    for side, data in (("A", a), ("B", b)):
        if not data.get("comparable"):
            return f"{side} is stamped comparable: false"
    for fact in ("nproc", "python"):
        if a["host"].get(fact) != b["host"].get(fact):
            return f"{fact} differs: {a['host'].get(fact)} vs {b['host'].get(fact)}"
    return None


def compare(a: Dict[str, Any], b: Dict[str, Any]) -> Tuple[List[List[str]], List[str]]:
    """``(rows, changed)``: the verdict table and the exact things that moved."""
    blocked = incomparable(a, b)
    rows: List[List[str]] = []
    changed: List[str] = []
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name)
        if wb is None:
            changed.append(f"{name}: missing from B")
            continue
        for metric, sa in wa.get("end_to_end", {}).items():
            sb = wb.get("end_to_end", {}).get(metric)
            if sb is None:
                changed.append(f"{name}: {metric} missing from B")
                continue
            rel, floor = sa["bound"]["rel"], sa["bound"]["abs"]
            rows.append([
                name,
                metric,
                f"{sa['median']:.5g} [{sa['q1']:.5g}, {sa['q3']:.5g}] n={sa['n']}",
                f"{sb['median']:.5g} [{sb['q1']:.5g}, {sb['q3']:.5g}] n={sb['n']}",
                f"{sb['median'] / sa['median']:.3f}x of {sa['median']:.5g}",
                "unresolved" if blocked else verdict(sa, sb, rel, floor),
            ])
        if wa.get("digests") != wb.get("digests"):
            changed.append(f"{name}: result digests differ")
        for metric in wa.get("exact", []):
            va = wa["per_layer"].get(metric)
            vb = wb.get("per_layer", {}).get(metric)
            if va != vb:
                changed.append(f"{name}: {metric} {va} -> {vb}")
        for side, w in (("A", wa), ("B", wb)):
            if w["failed"]:
                changed.append(f"{name}: {side} had {w['failed']} failed of {w['attempted']} runs")
    return rows, changed


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    a, b = (json.loads(open(path).read()) for path in argv)
    blocked = incomparable(a, b)
    if blocked:
        print(f"not comparable, every verdict is unresolved: {blocked}")
    rows, changed = compare(a, b)
    header = ["workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "B/A", "verdict"]
    widths = [max(len(r[i]) for r in [header] + rows) for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))
    for line in changed:
        print(f"CHANGED  {line}")
    if not changed:
        print("exact counts and digests: identical")
    return 0 if not changed and all(r[-1] == "ok" for r in rows) else 1


if __name__ == "__main__":
    raise SystemExit(main())
