"""Packet-level discrete-event network simulator.

This package is the substrate the DCQCN reproduction runs on: an
integer-nanosecond event engine (:mod:`repro.engine`), links and
serializing ports (:mod:`repro.sim.link`), shared-buffer switches with
PFC and RED/ECN (:mod:`repro.sim.switch`), RoCEv2 host NICs with
hardware-style per-flow rate limiters (:mod:`repro.sim.nic`), topology
builders (:mod:`repro.sim.topology`) and measurement probes
(:mod:`repro.sim.monitor`).
"""

from repro.engine import EventScheduler, PeriodicTimer
from repro.sim.packet import (
    Header,
    Packet,
    ECN_NOT_ECT,
    ECN_ECT,
    ECN_CE,
    KIND_DATA,
    KIND_ACK,
    KIND_NACK,
    KIND_CNP,
    KIND_PAUSE,
    KIND_RESUME,
    KIND_QCN_FB,
)
from repro.sim.link import Port, connect
from repro.sim.switch import Switch, SwitchConfig
from repro.sim.nic import HostNic
from repro.sim.host import Host, Flow, Message
from repro.sim.network import Network
from repro.sim.topology import (
    single_switch,
    dumbbell,
    parking_lot,
    three_tier_clos,
    ClosSpec,
)

__all__ = [
    "EventScheduler",
    "PeriodicTimer",
    "Header",
    "Packet",
    "ECN_NOT_ECT",
    "ECN_ECT",
    "ECN_CE",
    "KIND_DATA",
    "KIND_ACK",
    "KIND_NACK",
    "KIND_CNP",
    "KIND_PAUSE",
    "KIND_RESUME",
    "KIND_QCN_FB",
    "Port",
    "connect",
    "Switch",
    "SwitchConfig",
    "HostNic",
    "Host",
    "Flow",
    "Message",
    "Network",
    "single_switch",
    "dumbbell",
    "parking_lot",
    "three_tier_clos",
    "ClosSpec",
]
