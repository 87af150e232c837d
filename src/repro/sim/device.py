"""Base class for network devices (switches and host NICs)."""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine import EventScheduler
    from repro.sim.link import Port
    from repro.sim.packet import Packet


class Device:
    """A node that owns ports and reacts to frames.

    Concrete devices implement the pull-model contract used by
    :class:`repro.sim.link.Port`:

    * :meth:`receive` — a frame arrived on one of our ports.
    * :meth:`next_packet` — the port is idle; hand it the next frame to
      serialize (respecting PFC pause state via ``port.can_send``), or
      ``None`` to go idle.  Asked after every completed frame unless the
      device keeps ``port.queued_mask`` exact (see
      :mod:`repro.sim.link`); the default mask of ``-1`` always asks.
    * :meth:`tx_complete` — a frame we handed out finished serializing
      (switches free shared-buffer space here).

    Slotted (as are the concrete devices) so thousand-NIC fabrics do
    not pay a ``__dict__`` per device; subclasses defined outside
    :mod:`repro.sim` may omit ``__slots__`` and get one back.
    """

    __slots__ = ("engine", "device_id", "name", "ports", "tracer")

    def __init__(self, engine: "EventScheduler", device_id: int, name: str):
        self.engine = engine
        self.device_id = device_id
        self.name = name
        self.ports: List["Port"] = []
        #: :class:`repro.telemetry.trace.Tracer` when tracing is on,
        #: ``None`` otherwise — emit sites guard on ``is not None`` so
        #: the disabled path costs one identity test.
        self.tracer = None

    def attach_port(self, port: "Port") -> int:
        """Register a port; returns its index on this device."""
        index = len(self.ports)
        self.ports.append(port)
        return index

    def port_to(self, other: "Device") -> "Port":
        """The (first) local port whose cable reaches ``other``."""
        for port in self.ports:
            if port.peer is not None and port.peer.owner is other:
                return port
        raise LookupError(f"{self.name} has no port to {other.name}")

    # --- contract used by Port --------------------------------------------

    def receive(self, pkt: "Packet", in_port: "Port") -> None:
        raise NotImplementedError

    def next_packet(self, port: "Port") -> Optional["Packet"]:
        raise NotImplementedError

    def tx_complete(self, port: "Port", pkt: "Packet") -> None:
        """Hook called when ``pkt`` has fully left ``port``.  Optional."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name}, id={self.device_id})"
