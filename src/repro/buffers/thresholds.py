"""Switch buffer threshold calculations (paper §4).

Correct DCQCN operation needs two properties from the switch:

1. PFC must not fire *before* ECN has had a chance to signal the
   senders (otherwise DCQCN never engages and PFC's congestion
   spreading returns), and
2. PFC must fire *before* the buffer overflows (RoCEv2 assumes a
   lossless fabric).

The paper derives three thresholds for a shared-buffer switch like the
Arista 7050QX32 (Broadcom Trident II: ``B = 12 MB`` shared buffer,
``n = 32`` full-duplex 40 Gbps ports, 8 PFC priorities):

* ``t_flight`` — headroom reserved per (port, priority) to absorb the
  frames that arrive between sending PAUSE and the upstream actually
  stopping (22.4 KB for 40 GbE with 1000-byte MTU, per the 802.1Qbb
  worst-case guidelines).
* ``t_PFC`` — ingress-queue size at which PAUSE is sent.  The static
  upper bound is ``(B - 8 n t_flight) / (8 n)`` = 24.47 KB.  Trident II
  also supports a *dynamic* threshold
  ``t_PFC = beta (B - 8 n t_flight - s) / 8`` where ``s`` is the
  currently occupied shared buffer.
* ``t_ECN`` — egress-queue depth at which ECN marking starts
  (``Kmin``).  The worst case is all egress traffic funneling from one
  ingress, giving ``t_PFC > n * t_ECN``.  With the static bound that
  yields an infeasible 0.76 KB (< 1 MTU); with the dynamic threshold,
  ``t_ECN < beta (B - 8 n t_flight) / (8 n (beta + 1))`` = 21.75 KB at
  ``beta = 8``, which comfortably admits the deployed Kmin of 5 KB.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import units

#: Per-port per-priority worst-case headroom for 40GbE, 1000-byte MTU,
#: following the 802.1Qbb accounting the paper cites [8]: packets in
#: flight on the wire when PAUSE is emitted, the frame the upstream has
#: already committed to transmitting, the PAUSE frame's own
#: serialization, and upstream response latency.
DEFAULT_HEADROOM_BYTES = units.kb(22.4)


@dataclass(frozen=True)
class SwitchProfile:
    """Physical parameters of a shared-buffer switch."""

    buffer_bytes: int = units.mb(12)
    num_ports: int = 32
    num_priorities: int = 8
    headroom_bytes: int = DEFAULT_HEADROOM_BYTES
    mtu_bytes: int = 1000

    def __post_init__(self) -> None:
        if self.buffer_bytes <= 0:
            raise ValueError("buffer_bytes must be positive")
        if self.num_ports <= 0 or self.num_priorities <= 0:
            raise ValueError("port/priority counts must be positive")
        if self.headroom_bytes < 0:
            raise ValueError("headroom cannot be negative")
        if self.total_headroom_bytes >= self.buffer_bytes:
            raise ValueError(
                "headroom reservation exceeds the buffer: "
                f"{self.total_headroom_bytes} >= {self.buffer_bytes}"
            )

    @property
    def total_headroom_bytes(self) -> int:
        """Headroom reserved across all (port, priority) pairs."""
        return self.num_priorities * self.num_ports * self.headroom_bytes

    @property
    def shared_pool_bytes(self) -> int:
        """Buffer remaining for shared use after headroom reservation."""
        return self.buffer_bytes - self.total_headroom_bytes


def static_pfc_threshold_bound(profile: SwitchProfile) -> float:
    """Upper bound on a fixed t_PFC: ``(B - 8 n t_flight) / (8 n)``.

    Guarantees that even with every (port, priority) queue at
    threshold the buffer (minus headroom) cannot overflow.
    """
    n = profile.num_ports
    k = profile.num_priorities
    return profile.shared_pool_bytes / (k * n)


def dynamic_pfc_threshold(
    profile: SwitchProfile, occupied_bytes: float, beta: float
) -> float:
    """Trident II dynamic threshold: ``beta (B - 8 n t_flight - s) / 8``.

    ``occupied_bytes`` is ``s``, the shared buffer currently in use.
    A larger ``beta`` triggers PFC later (more room for ECN); the
    threshold shrinks as the buffer fills, preserving losslessness.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    free = profile.shared_pool_bytes - occupied_bytes
    return max(0.0, beta * free / profile.num_priorities)


def ecn_threshold_bound_static(profile: SwitchProfile) -> float:
    """t_ECN bound under a static t_PFC: ``t_PFC / n``.

    For the paper's switch this is 0.76 KB — below one MTU, hence
    infeasible, which is why the dynamic threshold matters.
    """
    return static_pfc_threshold_bound(profile) / profile.num_ports


def ecn_threshold_bound_dynamic(profile: SwitchProfile, beta: float) -> float:
    """t_ECN bound under the dynamic threshold (paper §4):

    ``t_ECN < beta (B - 8 n t_flight) / (8 n (beta + 1))``.

    Derivation: just before ECN triggers anywhere, every egress queue
    is below t_ECN, so ``s <= n * t_ECN``; requiring
    ``t_PFC(s) > n * t_ECN`` at that point gives the bound.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    n = profile.num_ports
    k = profile.num_priorities
    return beta * profile.shared_pool_bytes / (k * n * (beta + 1))


@dataclass(frozen=True)
class ThresholdPlan:
    """A complete, checked threshold configuration for one switch."""

    profile: SwitchProfile
    beta: float
    headroom_bytes: int
    static_pfc_bound_bytes: float
    ecn_bound_static_bytes: float
    ecn_bound_dynamic_bytes: float
    kmin_bytes: int

    @property
    def ecn_before_pfc(self) -> bool:
        """True when the chosen Kmin respects the dynamic bound."""
        return self.kmin_bytes < self.ecn_bound_dynamic_bytes

    @property
    def kmin_feasible(self) -> bool:
        """A marking threshold below one MTU cannot be configured."""
        return self.kmin_bytes >= self.profile.mtu_bytes


def plan_thresholds() -> ThresholdPlan:
    """Compute every §4 quantity for the paper's switch at beta = 8 and
    the deployed Kmin of 5 KB.

    This reproduces the paper's numbers: t_PFC <= 24.47 KB, static
    t_ECN bound 0.76 KB (infeasible), dynamic t_ECN bound 21.75 KB.
    """
    profile, beta = SwitchProfile(), 8.0
    return ThresholdPlan(
        profile=profile,
        beta=beta,
        headroom_bytes=profile.headroom_bytes,
        static_pfc_bound_bytes=static_pfc_threshold_bound(profile),
        ecn_bound_static_bytes=ecn_threshold_bound_static(profile),
        ecn_bound_dynamic_bytes=ecn_threshold_bound_dynamic(profile, beta),
        kmin_bytes=units.kb(5),
    )
