"""Micro-probes: one layer each, driven directly, outside any scenario.

    python bench/probes.py engine switch codec

Prints one JSON object ``{metric: value|null}`` as the last line of
stdout.  Every program name is resolved through
:func:`spans.resolve_or_none`; a probe whose target is gone, or whose
target no longer accepts the call, reports ``null`` and one warning
line.  Each probe repeats its measurement and keeps the fastest
repeat: the floor is what the code costs, the rest is the box.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from typing import Callable, Dict, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import resolve_or_none, warn  # noqa: E402

REPEATS = 5


def engine_probe() -> Optional[float]:
    """ns per no-op event through ``schedule`` / ``run_until``.

    1 000 self-rescheduling no-op timers keep the heap ~1 k deep while
    200 k events pop and push.
    """
    scheduler_cls = resolve_or_none("repro.engine:EventScheduler")
    if scheduler_cls is None:
        return None
    depth, events, period = 1000, 200_000, 1000
    best = None
    for _ in range(REPEATS):
        engine = scheduler_cls()
        schedule = engine.schedule

        def tick():
            schedule(period, tick)

        for i in range(depth):
            engine.schedule(i + 1, tick)
        horizon = period * (events // depth)
        started = time.perf_counter_ns()
        engine.run_until(horizon)
        elapsed = time.perf_counter_ns() - started
        per_event = elapsed / engine.events_processed
        best = per_event if best is None else min(best, per_event)
    return best


def switch_probe() -> Optional[float]:
    """ns per data packet through ``Switch.receive`` on a 4-host switch.

    Packets of one real (idle) flow arrive in order in bursts of 16, are
    timed through ``receive`` only, and drain through the engine between
    bursts so queues stay shallow and no PAUSE or drop path is taken.
    """
    single_switch = resolve_or_none("repro.sim.topology:single_switch")
    packet_cls = resolve_or_none("repro.sim.packet:Packet")
    kind_data = resolve_or_none("repro.sim.packet:KIND_DATA")
    ecn_ect = resolve_or_none("repro.sim.packet:ECN_ECT")
    if None in (single_switch, packet_cls, kind_data, ecn_ect):
        return None
    burst, bursts = 16, 1250
    best = None
    for _ in range(REPEATS):
        net, switch, hosts = single_switch(4, seed=0)
        flow = net.add_flow(hosts[0], hosts[1], cc="none")
        in_port = switch.ports[0]
        src, dst = hosts[0].nic.device_id, hosts[1].nic.device_id
        receive = switch.receive
        seq = 0
        elapsed = 0
        for _ in range(bursts):
            packets = [
                packet_cls(
                    kind_data,
                    flow_id=flow.flow_id,
                    src=src,
                    dst=dst,
                    size=1000,
                    seq=seq + i,
                    priority=flow.priority,
                    ecn=ecn_ect,
                )
                for i in range(burst)
            ]
            seq += burst
            started = time.perf_counter_ns()
            for pkt in packets:
                receive(pkt, in_port)
            elapsed += time.perf_counter_ns() - started
            net.run_for(100_000)
        if switch.forwarded_packets < burst * bursts:
            warn("sim.switch.probe_ns_per_pkt: switch did not forward every packet")
            return None
        per_pkt = elapsed / (burst * bursts)
        best = per_pkt if best is None else min(best, per_pkt)
    return best


def codec_probe() -> Optional[float]:
    """ns per ``encode_packet`` + ``decode_packet`` over 100 k packets."""
    encode = resolve_or_none("repro.shard.boundary:encode_packet")
    decode = resolve_or_none("repro.shard.boundary:decode_packet")
    packet_cls = resolve_or_none("repro.sim.packet:Packet")
    kind_data = resolve_or_none("repro.sim.packet:KIND_DATA")
    if None in (encode, decode, packet_cls, kind_data):
        return None
    packets = [
        packet_cls(kind_data, flow_id=i % 64, src=1, dst=2, size=1000, seq=i)
        for i in range(100_000)
    ]
    best = None
    for _ in range(REPEATS):
        started = time.perf_counter_ns()
        for pkt in packets:
            decode(encode(pkt))
        per_pkt = (time.perf_counter_ns() - started) / len(packets)
        best = per_pkt if best is None else min(best, per_pkt)
    return best


PROBES: Dict[str, tuple] = {
    "engine": ("engine.probe_ns_per_event", engine_probe),
    "switch": ("sim.switch.probe_ns_per_pkt", switch_probe),
    "codec": ("shard.codec_ns_per_pkt", codec_probe),
}


def run_probe(metric: str, probe: Callable) -> Optional[float]:
    try:
        return probe()
    except Exception as exc:  # a renamed argument or attribute: report, go on
        warn(f"{metric}: probe failed ({type(exc).__name__}: {exc})")
        return None


def main(argv=None) -> int:
    names = (argv if argv is not None else sys.argv[1:]) or list(PROBES)
    print(json.dumps({metric: run_probe(metric, probe)
                      for metric, probe in map(PROBES.get, names)}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
