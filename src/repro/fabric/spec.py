"""Declarative fabric shapes: the :class:`FabricSpec`.

A spec is a frozen, JSON-serializable description of a multi-tier
datacenter fabric.  Two kinds are supported:

* ``"fat_tree"`` — the canonical k-ary fat-tree: ``k`` pods, each with
  ``k/2`` edge and ``k/2`` aggregation switches, and ``(k/2)**2`` core
  switches partitioned into ``k/2`` groups (group ``g`` connects to
  aggregation switch ``g`` of every pod).  Full bisection at
  ``hosts_per_edge = k/2`` (the default); larger values oversubscribe
  the edge tier.
* ``"clos"`` — a generalized 3-tier Clos: ``pods`` pods, each a full
  mesh of ``tors_per_pod`` ToRs and ``leaves_per_pod`` leaves, with
  every leaf connected to every one of ``spines`` spine switches.  The
  paper's Figure 2 testbed is ``clos(pods=2, tors_per_pod=2,
  leaves_per_pod=2, spines=2)``.

Tier vocabulary is unified: tier 0 is ``edge`` (ToRs), tier 1 is
``agg`` (leaves), tier 2 is ``core`` (spines).  Heterogeneous link
rates are expressed per tier boundary (``host_rate_bps``,
``agg_rate_bps``, ``core_rate_bps``); ``None`` means the 40 Gbps
testbed default.

Because the spec is a plain dataclass of scalars it round-trips
through :func:`repro.runner.spec.encode_value` — a
:class:`~repro.runner.spec.Scenario` names a fabric by value, so
fabric cells stay content-hash cacheable and worker-shippable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

#: the tier names, innermost (host-facing) first
TIERS = ("edge", "agg", "core")

#: recognised fabric kinds
KINDS = ("fat_tree", "clos")

#: device naming modes: ``scoped`` names are stable across fabric
#: sizes (``p<pod>e<i>``, ``p<pod>a<i>``, ``c<i>``, hosts
#: ``p<pod>e<i>h<j>``); ``fig2`` reproduces the paper-testbed names
#: (``T1..``, ``L1..``, ``S1..``, ``H<tor><i>``) for the 3-tier Clos
NAMINGS = ("scoped", "fig2")


@dataclass(frozen=True)
class FabricSpec:
    """A parameterized fat-tree / Clos fabric, by value."""

    kind: str = "fat_tree"
    # --- fat-tree shape ----------------------------------------------------
    #: pod count (even, >= 2); ignored for kind="clos"
    k: int = 4
    #: hosts under each edge switch; None means k/2 (full bisection)
    hosts_per_edge: Optional[int] = None
    # --- clos shape --------------------------------------------------------
    pods: int = 2
    tors_per_pod: int = 2
    leaves_per_pod: int = 2
    spines: int = 2
    hosts_per_tor: int = 5
    # --- links -------------------------------------------------------------
    #: host <-> edge link rate; None -> DEFAULT_LINK_RATE_BPS
    host_rate_bps: Optional[float] = None
    #: edge <-> agg link rate; None -> DEFAULT_LINK_RATE_BPS
    agg_rate_bps: Optional[float] = None
    #: agg <-> core link rate; None -> DEFAULT_LINK_RATE_BPS
    core_rate_bps: Optional[float] = None
    prop_delay_ns: Optional[int] = None
    # --- naming ------------------------------------------------------------
    naming: str = "scoped"

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown fabric kind {self.kind!r}; choose from {KINDS}")
        if self.naming not in NAMINGS:
            raise ValueError(
                f"unknown naming {self.naming!r}; choose from {NAMINGS}"
            )
        if self.naming == "fig2" and self.kind != "clos":
            raise ValueError("naming='fig2' applies to kind='clos' only")
        if self.kind == "fat_tree":
            if self.k < 2 or self.k % 2:
                raise ValueError(f"fat-tree k must be even and >= 2, got {self.k}")
            if self.hosts_per_edge is not None and self.hosts_per_edge < 1:
                raise ValueError("hosts_per_edge must be >= 1")
        else:
            for name in ("pods", "tors_per_pod", "leaves_per_pod", "spines"):
                if getattr(self, name) < 1:
                    raise ValueError(f"{name} must be >= 1")
            if self.hosts_per_tor < 1:
                raise ValueError("need at least one host per ToR")
        for name in ("host_rate_bps", "agg_rate_bps", "core_rate_bps"):
            rate = getattr(self, name)
            if rate is not None and rate <= 0:
                raise ValueError(f"{name} must be positive, got {rate}")
        if self.prop_delay_ns is not None and self.prop_delay_ns < 0:
            raise ValueError("prop_delay_ns must be >= 0")

    # --- derived shape -----------------------------------------------------

    @property
    def pod_count(self) -> int:
        return self.k if self.kind == "fat_tree" else self.pods

    @property
    def edges_per_pod(self) -> int:
        return self.k // 2 if self.kind == "fat_tree" else self.tors_per_pod

    @property
    def aggs_per_pod(self) -> int:
        return self.k // 2 if self.kind == "fat_tree" else self.leaves_per_pod

    @property
    def core_count(self) -> int:
        return (self.k // 2) ** 2 if self.kind == "fat_tree" else self.spines

    @property
    def hosts_per_edge_switch(self) -> int:
        if self.kind == "fat_tree":
            return self.hosts_per_edge if self.hosts_per_edge else self.k // 2
        return self.hosts_per_tor

    def tier_counts(self) -> Dict[str, int]:
        """Switch count per tier: ``{"edge": ..., "agg": ..., "core": ...}``."""
        return {
            "edge": self.pod_count * self.edges_per_pod,
            "agg": self.pod_count * self.aggs_per_pod,
            "core": self.core_count,
        }

    def host_count(self) -> int:
        return self.pod_count * self.edges_per_pod * self.hosts_per_edge_switch

    # --- naming ------------------------------------------------------------

    def edge_name(self, pod: int, index: int) -> str:
        if self.naming == "fig2":
            return f"T{pod * self.tors_per_pod + index + 1}"
        return f"p{pod}e{index}"

    def agg_name(self, pod: int, index: int) -> str:
        if self.naming == "fig2":
            return f"L{pod * self.leaves_per_pod + index + 1}"
        return f"p{pod}a{index}"

    def core_name(self, index: int) -> str:
        if self.naming == "fig2":
            return f"S{index + 1}"
        return f"c{index}"

    def host_name(self, pod: int, edge: int, index: int) -> str:
        if self.naming == "fig2":
            return f"H{pod * self.tors_per_pod + edge + 1}{index + 1}"
        return f"p{pod}e{edge}h{index}"
