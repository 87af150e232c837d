"""Structured route computation for built fabrics.

The legacy :func:`repro.sim.routing.install_routes` runs one BFS per
host over the whole device graph and then scans every switch's ports —
O(hosts x (devices + links)) work that dominates construction once the
fabric has hundreds of switches.  On a fat-tree/Clos none of that
search is necessary: shortest paths are fully determined by pod
membership, so routes are written down directly from the wiring maps
the builder recorded.

Per tier the tables are:

* **edge** — one single-port entry per local host, plus a *default
  route* (all uplinks, one ECMP group) for everything else;
* **agg**  — one *block route* per rack of its own pod (the rack's
  consecutive host ids, via that rack's edge switch), plus a default
  route over its core uplinks;
* **core** — one block route per pod (for a Clos spine: all leaves of
  the pod; for a fat-tree core: the one aggregation switch of its
  group in that pod).

So the route state is O(hosts_per_edge) per edge switch, O(racks of
its pod) per agg and O(pods) per core: the prefix-per-rack,
prefix-per-pod tables of the paper's BGP + ECMP fabric (§2, Fig 2), not
a /32 per server, and no graph traversal anywhere.  The edge tier keeps
exact entries because there every host has a port of its own.  Blocks
rest on :func:`~repro.fabric.build.build_fabric` numbering hosts
edge-major after all switches, so a rack's ids, and a pod's, are
consecutive; the installer verifies that before it relies on it.
Equivalence with the BFS tables on symmetric and oversubscribed fabrics
is pinned by ``tests/test_fabric_routing.py``; hop-count routing is
rate-agnostic, so heterogeneous link rates do not perturb it.
"""

from __future__ import annotations

from itertools import chain
from typing import TYPE_CHECKING, List, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.fabric.build import Fabric


def _extent(host_ids: List[int], what: str) -> Tuple[int, int]:
    """``(first id, count)`` of ``host_ids``, which must be consecutive."""
    first, count = host_ids[0], len(host_ids)
    if host_ids != list(range(first, first + count)):
        raise ValueError(
            f"{what}: host ids are not {first}..{first + count - 1} in order, "
            f"so one block route cannot cover them"
        )
    return first, count


def install_fabric_routes(fabric: "Fabric") -> None:
    """Populate every switch's ECMP table from the builder's wiring maps."""
    spec = fabric.spec
    edges_per_pod = spec.edges_per_pod
    # every rack's and pod's (first id, count), once for all switches
    rack_ids = [[host.host_id for host in rack] for rack in fabric.hosts]
    racks = [_extent(ids, f"rack {t}") for t, ids in enumerate(rack_ids)]
    pods = []
    for pod in range(spec.pod_count):
        pod_racks = rack_ids[pod * edges_per_pod : (pod + 1) * edges_per_pod]
        pods.append(_extent(list(chain.from_iterable(pod_racks)), f"pod {pod}"))

    for t, edge in enumerate(fabric.edges):
        for host_id, port in zip(rack_ids[t], fabric._edge_host_ports[t]):
            edge.set_route(host_id, (port,))
        if fabric._edge_up[t]:
            edge.set_default_route(tuple(fabric._edge_up[t]))

    for g, agg in enumerate(fabric.aggs):
        pod = g // spec.aggs_per_pod
        for local, port in enumerate(fabric._agg_edge_ports[g]):
            agg.set_route_block(*racks[pod * edges_per_pod + local], (port,))
        if fabric._agg_up[g]:
            agg.set_default_route(tuple(fabric._agg_up[g]))

    for c, core in enumerate(fabric.cores):
        for pod, extent in enumerate(pods):
            route = tuple(fabric._core_pod_ports[c][pod])
            if not route:
                continue  # disconnected pod: validate() reports it
            core.set_route_block(*extent, route)
