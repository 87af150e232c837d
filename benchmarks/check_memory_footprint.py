#!/usr/bin/env python
"""CI gate: hot simulation objects stay slotted and fabrics stay lean.

Six checks, all cheap enough for every CI run:

1. **Slots** — the per-packet / per-port / per-flow classes must not
   grow an instance ``__dict__``.  A stray class attribute or a
   removed ``__slots__`` declaration silently re-adds ~100 bytes per
   object, which at fabric scale (thousands of flows, tens of
   thousands of ports) is the difference between a 1024-host scenario
   fitting in the executor's memory budget or not.

2. **Footprint** — building a k-ary fat-tree (k=8: 128 hosts, 80
   switches; k=16: 1024 hosts, 320 switches; k=32: 8192 hosts, 1280
   switches; routes installed) must stay under a per-host tracemalloc
   budget.  The budget is generous (2x the measured value, rounded up)
   so it only trips on regressions of kind, not noise: an accidental
   per-host copy of a config object, a queue object per (port,
   priority) built before any packet needs it, a random stream per
   switch built before any draw, a port's fault or pause record or
   tie-break tuple built before a fault, PAUSE or frame, a switch's
   PFC/ECN ledgers built before its first frame, a config or rate
   constant per device where one object serves them all, and so on.
   Nothing a switch holds grows with the number of hosts beyond its
   own rack, so the per-host figure does not rise with k (2.9 / 2.7 /
   2.5 KB at k = 8 / 16 / 32); the k=32 run is where a per-host table
   in the core tier would show (14.7 KB/host there).

3. **Route state** — the same property as a count that does not drift
   with the box: exact entries plus block routes, summed over every
   switch, stay within 3 x hosts (one entry per host at its edge
   switch, one block per rack per pod agg, one block per pod per
   core: 8 192 + 16 384 at k=32, where one entry per host in every agg
   and core would be 2 236 416).

4. **Ledger slots** — a count too: a freshly built fabric holds 0
   per-(port, priority) ledger slots over all switches (they are sized
   by the first frame a switch admits; at k=32 sizing them at build
   would be 655 360).

5. **Frame size** — a data frame taken from a built flow costs at most
   80 bytes (``sys.getsizeof``), and two frames of one flow share one
   header object.  Under PFC the switch buffers hold tens of thousands
   of frames, so the frame is most of what a run allocates.  What a
   stream's frames share lives in its header; a frame keeps six slots,
   one 80-byte allocation class.  One slot more moves it to the next
   class: 16 bytes more per buffered frame, not 8.

6. **Compile peak** — every ``repro`` module that a fresh interpreter
   loads for ``from repro.runner import Scenario, run_scenario_inline,
   run_sweep`` compiles under a 1.5 MB tracemalloc peak.  A run started
   without ``.pyc`` files (``PYTHONDONTWRITEBYTECODE=1``, a fresh
   checkout) compiles each from source, and the largest one sets the
   process's memory high-water before the first packet: an 872-line
   ``runner/scenario.py`` peaked at 2.0 MB, and the split into
   ``runner/spec.py`` + ``runner/scenario.py`` leaves ``sim/switch.py``
   and ``telemetry/metrics.py`` largest, at 1.3 MB.  The check does not
   depend on ``--k``.

Usage (CI runs this at all three sizes in the fabric-smoke job)::

    PYTHONPATH=src python benchmarks/check_memory_footprint.py --k 8
    PYTHONPATH=src python benchmarks/check_memory_footprint.py --k 16
    PYTHONPATH=src python benchmarks/check_memory_footprint.py --k 32
"""

from __future__ import annotations

import argparse
import subprocess
import sys
import tracemalloc
from pathlib import Path

#: (module, class) pairs that must not carry an instance __dict__
SLOTTED = (
    ("repro.sim.device", "Device"),
    ("repro.sim.host", "Flow"),
    ("repro.sim.host", "Host"),
    ("repro.sim.host", "Message"),
    ("repro.sim.link", "FaultRecord"),
    ("repro.sim.link", "PauseRecord"),
    ("repro.sim.link", "Port"),
    ("repro.sim.nic", "HostNic"),
    ("repro.sim.nic", "_RxState"),
    ("repro.sim.packet", "Header"),
    ("repro.sim.packet", "Packet"),
    ("repro.sim.switch", "Switch"),
)

#: tracemalloc bytes per host allowed for a freshly built fat-tree
#: (measured 2.9 / 2.7 / 2.5 KB/host at k = 8 / 16 / 32 with every
#: per-port and per-switch structure made at first use; ~2x headroom,
#: rounded)
PER_HOST_BUDGET_BYTES = 6_000

#: installed route state (exact entries + blocks over all switches)
#: allowed per host
ROUTE_STATE_PER_HOST = 3

#: sys.getsizeof of one data frame: six slots, the 80-byte class
FRAME_BUDGET_BYTES = 80

#: tracemalloc peak allowed for compiling one module of the run path
COMPILE_PEAK_BUDGET_BYTES = 1_500_000

#: the import whose ``repro`` modules the compile-peak check measures
RUN_PATH_IMPORT = "from repro.runner import Scenario, run_scenario_inline, run_sweep"


def check_slots() -> list:
    """Classes from SLOTTED that (re)grew an instance ``__dict__``."""
    import importlib

    problems = []
    for module_name, class_name in SLOTTED:
        cls = getattr(importlib.import_module(module_name), class_name)
        if "__dict__" in dir(cls) and not hasattr(cls, "__slots__"):
            problems.append(f"{module_name}.{class_name}: no __slots__")
            continue
        # a slotted class still gets a __dict__ if any base lacks slots
        offenders = [
            base.__name__
            for base in cls.__mro__[:-1]
            if "__slots__" not in vars(base)
        ]
        if offenders:
            problems.append(
                f"{module_name}.{class_name}: instances carry __dict__ "
                f"(unslotted bases: {', '.join(offenders)})"
            )
    return problems


def measure_frames() -> tuple:
    """(bytes of one data frame, whether two frames of a flow share a
    header), from a flow on a built single-switch network."""
    from repro.sim.topology import single_switch

    net, _, hosts = single_switch(2, seed=0)
    flow = net.add_flow(hosts[0], hosts[1], cc="none")
    first, second = flow.take_packet(0), flow.take_packet(1_000)
    return sys.getsizeof(first), first.hdr is second.hdr


def measure_fabric(k: int) -> tuple:
    """(traced bytes, hosts, route entries, route blocks, ledger slots)
    of a freshly built k-ary fat-tree."""
    from repro.fabric import build_fabric

    tracemalloc.start()
    before, _ = tracemalloc.get_traced_memory()
    fabric = build_fabric(kind="fat_tree", k=k)
    after, _ = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    switches = fabric.net.switches
    return (
        after - before,
        len(fabric.all_hosts()),
        sum(len(switch.routing_table) for switch in switches),
        sum(len(switch.route_blocks()) for switch in switches),
        sum(
            len(switch._ingress_bytes) + len(switch._egress_bytes)
            for switch in switches
        ),
    )


def measure_compile_peaks() -> list:
    """``(traced compile peak, path)`` of every ``repro`` module a fresh
    interpreter loads for :data:`RUN_PATH_IMPORT`, largest first."""
    listing = (
        f"{RUN_PATH_IMPORT}\nimport sys\n"
        "for name, module in sys.modules.items():\n"
        "    if name.partition('.')[0] == 'repro':\n"
        "        print(module.__file__)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", listing], capture_output=True, text=True, check=True
    )
    peaks = []
    for path in done.stdout.splitlines():
        source = Path(path).read_text()
        tracemalloc.start()
        compile(source, path, "exec")
        peaks.append((tracemalloc.get_traced_memory()[1], path))
        tracemalloc.stop()
    return sorted(peaks, reverse=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--k", type=int, default=8, help="fat-tree arity to build (default: 8)"
    )
    parser.add_argument(
        "--budget-bytes",
        type=int,
        default=PER_HOST_BUDGET_BYTES,
        help="per-host tracemalloc budget (default: %(default)s)",
    )
    args = parser.parse_args(argv)

    problems = check_slots()
    for problem in problems:
        print(f"FAIL {problem}")
    if not problems:
        print(f"slots ok: {len(SLOTTED)} hot classes carry no __dict__")

    total, hosts, entries, blocks, ledger_slots = measure_fabric(args.k)
    per_host = total / hosts
    print(
        f"k={args.k} fat-tree: {total / 1e6:.1f} MB traced for {hosts} hosts "
        f"({per_host / 1e3:.1f} KB/host, budget "
        f"{args.budget_bytes / 1e3:.0f} KB/host)"
    )
    if per_host > args.budget_bytes:
        print(
            f"FAIL per-host footprint {per_host:.0f} B exceeds budget "
            f"{args.budget_bytes} B"
        )
        problems.append("footprint")
    print(
        f"route state: {entries} entries + {blocks} blocks "
        f"(limit {ROUTE_STATE_PER_HOST} x {hosts} hosts)"
    )
    if entries + blocks > ROUTE_STATE_PER_HOST * hosts:
        print(
            f"FAIL route state {entries + blocks} exceeds "
            f"{ROUTE_STATE_PER_HOST} per host"
        )
        problems.append("route state")
    print(f"ledger slots: {ledger_slots} (limit 0 before the first frame)")
    if ledger_slots:
        print(f"FAIL a built fabric holds {ledger_slots} ledger slots")
        problems.append("ledger slots")
    frame_bytes, shared = measure_frames()
    print(
        f"data frame: {frame_bytes} B (limit {FRAME_BUDGET_BYTES}), "
        f"header shared across the flow's frames: {shared}"
    )
    if frame_bytes > FRAME_BUDGET_BYTES:
        print(f"FAIL a data frame costs {frame_bytes} B")
        problems.append("frame size")
    if not shared:
        print("FAIL two frames of one flow carry two headers")
        problems.append("frame header")
    peaks = measure_compile_peaks()
    peak, path = peaks[0]
    print(
        f"compile peak: {peak / 1e6:.2f} MB for {path} (largest of "
        f"{len(peaks)} run-path modules, limit "
        f"{COMPILE_PEAK_BUDGET_BYTES / 1e6:.1f} MB)"
    )
    if peak > COMPILE_PEAK_BUDGET_BYTES:
        print(f"FAIL compiling {path} peaks at {peak} B traced")
        problems.append("compile peak")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
