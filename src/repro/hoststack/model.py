"""Analytic host-stack cost model (paper §2.1, Figure 1).

The paper motivates RDMA by measuring a software TCP stack against
RoCEv2 on two Xeon E5-2660 boxes (16 cores at 2.2 GHz, 40 Gbps NICs,
Windows Server 2012R2): TCP burns >20% of all cores to hold 40 Gbps
and cannot saturate the link at small message sizes, while RDMA
saturates it from a single thread with ~0 server CPU and ~3% client
CPU, at a fraction of the latency.

We cannot rerun that testbed, so this module reproduces the *shape*
with a transparent cycle-accounting model (the substitution is logged
in DESIGN.md):

* a software stack pays per-byte cycles (copies, checksums), per-MTU
  cycles (interrupt/segment handling, amortized by LSO/RSS) and
  per-message cycles (syscalls, locking, scheduling);
* achievable throughput is the smaller of the line rate and what the
  CPU budget sustains; CPU utilization is the cycle cost of the
  achieved rate over the machine's total cycles;
* an RDMA NIC pays a small per-message doorbell/completion cost on the
  client and nothing on the (single-sided WRITE/READ) server, with the
  NIC itself the only message-rate limit;
* latency decomposes into stack traversal, PCIe/DMA, wire and switch
  components; the software stack pays the traversal twice (send and
  receive side).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro import units


@dataclass(frozen=True)
class HostSpec:
    """The testbed machines (Intel Xeon E5-2660, 40 Gbps NICs)."""

    cores: int = 16
    clock_hz: float = 2.2e9
    line_rate_bps: float = units.gbps(40)
    mtu_bytes: int = 1500

    @property
    def total_cycles_per_sec(self) -> float:
        return self.cores * self.clock_hz


@dataclass(frozen=True)
class TcpStackModel:
    """Software TCP with LSO/RSS/zero-copy enabled (the paper's best case).

    Default constants are calibrated so that the model reproduces the
    paper's headline numbers: >20% total CPU at 40 Gbps with 4 MB
    messages, CPU-bound (link unsaturated) below ~16 KB messages, and
    25.4 µs user-to-user latency for a 2 KB transfer.
    """

    spec: HostSpec = HostSpec()
    #: copies / checksum touching every byte (zero-copy leaves ~1)
    cycles_per_byte: float = 1.0
    #: per-MTU segment work surviving LSO batching
    cycles_per_packet: float = 800.0
    #: syscalls, socket locking, scheduling per application message
    cycles_per_message: float = 60_000.0
    #: one-way stack traversal latency (µs) per side
    stack_traversal_us: float = 11.3
    wire_and_switch_us: float = 2.4

    def cycles_per_message_of(self, message_bytes: int) -> float:
        """Total CPU cycles to move one message through the stack."""
        if message_bytes <= 0:
            raise ValueError("message size must be positive")
        packets = -(-message_bytes // self.spec.mtu_bytes)
        return (
            self.cycles_per_message
            + packets * self.cycles_per_packet
            + message_bytes * self.cycles_per_byte
        )

    def throughput_bps(self, message_bytes: int) -> float:
        """Achievable goodput: min(line rate, CPU-sustainable rate)."""
        per_msg = self.cycles_per_message_of(message_bytes)
        cpu_msgs_per_sec = self.spec.total_cycles_per_sec / per_msg
        cpu_bps = cpu_msgs_per_sec * message_bytes * 8
        return min(self.spec.line_rate_bps, cpu_bps)

    def cpu_utilization(self, message_bytes: int) -> float:
        """Fraction of all cores consumed at the achieved throughput."""
        achieved = self.throughput_bps(message_bytes)
        msgs_per_sec = achieved / (message_bytes * 8)
        cycles = msgs_per_sec * self.cycles_per_message_of(message_bytes)
        return min(1.0, cycles / self.spec.total_cycles_per_sec)

    def latency_us(self, message_bytes: int = 2048) -> float:
        """User-to-user latency of a small transfer (warm connection)."""
        serialization = message_bytes * 8 / self.spec.line_rate_bps * 1e6
        return 2 * self.stack_traversal_us + self.wire_and_switch_us + serialization


@dataclass(frozen=True)
class RdmaStackModel:
    """RoCEv2 single-sided operations: the NIC does the protocol."""

    spec: HostSpec = HostSpec()
    #: client cycles to post a WQE and reap the completion
    client_cycles_per_message: float = 800.0
    #: single-sided READ/WRITE never interrupt the server CPU
    server_cycles_per_message: float = 0.0
    #: NIC message-rate ceiling (ConnectX-3 class hardware)
    nic_messages_per_sec: float = 5e6
    #: NIC + PCIe processing per side (µs)
    nic_traversal_us: float = 0.45
    wire_and_switch_us: float = 0.4
    #: two-sided SEND adds a receive-side completion + WQE management
    send_extra_us: float = 1.1

    def throughput_bps(self, message_bytes: int) -> float:
        """A single QP saturates the link unless messages are tiny."""
        if message_bytes <= 0:
            raise ValueError("message size must be positive")
        nic_bps = self.nic_messages_per_sec * message_bytes * 8
        return min(self.spec.line_rate_bps, nic_bps)

    def client_cpu_utilization(self, message_bytes: int) -> float:
        achieved = self.throughput_bps(message_bytes)
        msgs = achieved / (message_bytes * 8)
        cycles = msgs * self.client_cycles_per_message
        return min(1.0, cycles / self.spec.total_cycles_per_sec)

    def server_cpu_utilization(self, message_bytes: int) -> float:
        achieved = self.throughput_bps(message_bytes)
        msgs = achieved / (message_bytes * 8)
        cycles = msgs * self.server_cycles_per_message
        return min(1.0, cycles / self.spec.total_cycles_per_sec)

    def latency_us(self, message_bytes: int = 2048, operation: str = "write") -> float:
        """User-to-user latency: 'read'/'write' (single-sided) or 'send'."""
        if operation not in ("read", "write", "send"):
            raise ValueError(f"unknown RDMA operation {operation!r}")
        serialization = message_bytes * 8 / self.spec.line_rate_bps * 1e6
        base = 2 * self.nic_traversal_us + self.wire_and_switch_us + serialization
        if operation == "send":
            base += self.send_extra_us
        return base


@dataclass(frozen=True)
class StackComparison:
    """One Figure 1 row: both stacks at one message size."""

    message_bytes: int
    tcp_throughput_gbps: float
    tcp_cpu_pct: float
    rdma_throughput_gbps: float
    rdma_client_cpu_pct: float
    rdma_server_cpu_pct: float


def compare_stacks() -> Dict[int, StackComparison]:
    """Figure 1(a)/(b): throughput and CPU from 4 KB to 4 MB messages."""
    sizes = (units.kb(4), units.kb(16), units.kb(64), units.kb(256), units.mb(1), units.mb(4))
    tcp, rdma = TcpStackModel(), RdmaStackModel()
    rows = {}
    for size in sizes:
        rows[size] = StackComparison(
            message_bytes=size,
            tcp_throughput_gbps=tcp.throughput_bps(size) / 1e9,
            tcp_cpu_pct=tcp.cpu_utilization(size) * 100,
            rdma_throughput_gbps=rdma.throughput_bps(size) / 1e9,
            rdma_client_cpu_pct=rdma.client_cpu_utilization(size) * 100,
            rdma_server_cpu_pct=rdma.server_cpu_utilization(size) * 100,
        )
    return rows
