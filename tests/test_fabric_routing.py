"""Structured fabric routing: ECMP widths, BFS equivalence, resilience."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import units
from repro.fabric import FabricSpec, build_fabric, install_fabric_routes
from repro.sim.routing import adjacency, hop_distances, install_routes


def effective_routes(net):
    """(switch id, host nic id) -> the ECMP set the switch forwards on."""
    return {
        (switch.device_id, host.nic.device_id): switch.route_to(
            host.nic.device_id
        )
        for switch in net.switches
        for host in net.hosts
    }


def assert_matches_bfs(fabric):
    """Wipe the structured tables, re-route via BFS, demand equality.

    Exact tuple equality, not set equality: ECMP picks
    ``choices[hash % len]``, so a reordered tuple silently changes
    every path selection even though the route set is "the same".
    """
    structured = effective_routes(fabric.net)
    for switch in fabric.net.switches:
        switch.routing_table.clear()
        switch.default_route = ()
    install_routes(
        fabric.net.switches, (host.nic for host in fabric.net.hosts)
    )
    for switch in fabric.net.switches:
        for host in fabric.net.hosts:
            key = (switch.device_id, host.nic.device_id)
            assert structured[key] == switch.routing_table[host.nic.device_id], (
                f"{switch.name} -> {host.name}: structured {structured[key]} "
                f"!= BFS {switch.routing_table[host.nic.device_id]}"
            )


class TestEcmpWidths:
    @pytest.mark.parametrize("k", [4, 8])
    def test_fat_tree_path_counts(self, k):
        """Edge switches fan cross-pod traffic over (k/2)^2 paths and
        intra-pod cross-edge traffic over k/2 — the fat-tree formulas."""
        fabric = build_fabric(kind="fat_tree", k=k)
        edge = fabric.edges[0]
        cross_pod = fabric.host_in_pod(k - 1, 0, 0)
        same_pod = fabric.host_in_pod(0, 1, 0)
        local = fabric.host_in_pod(0, 0, 0)
        # the edge's ECMP set is its k/2 uplinks; the (k/2)^2 total paths
        # come from each agg fanning over its k/2 cores
        assert len(edge.route_to(cross_pod.nic.device_id)) == k // 2
        agg = fabric.aggs[0]
        far_id = cross_pod.nic.device_id
        assert len(agg.route_to(far_id)) == k // 2
        assert len(edge.route_to(same_pod.nic.device_id)) == k // 2
        assert len(edge.route_to(local.nic.device_id)) == 1

    def test_core_single_downlink(self):
        """A fat-tree core has exactly one port into each pod."""
        fabric = build_fabric(kind="fat_tree", k=4)
        for host in fabric.all_hosts():
            for core in fabric.cores:
                assert len(core.route_to(host.nic.device_id)) == 1

    def test_clos_agg_width(self):
        fabric = build_fabric(
            kind="clos", pods=2, tors_per_pod=2, leaves_per_pod=3, spines=4,
            hosts_per_tor=1,
        )
        edge = fabric.edges[0]
        far = fabric.host_in_pod(1, 1, 0)
        assert len(edge.route_to(far.nic.device_id)) == 3  # leaves_per_pod
        agg = fabric.aggs[0]
        assert len(agg.route_to(far.nic.device_id)) == 4  # spines


class TestBfsEquivalence:
    def test_fat_tree_k4(self):
        assert_matches_bfs(build_fabric(kind="fat_tree", k=4))

    def test_fat_tree_k8(self):
        assert_matches_bfs(build_fabric(kind="fat_tree", k=8))

    def test_oversubscribed_fat_tree(self):
        assert_matches_bfs(build_fabric(kind="fat_tree", k=4, hosts_per_edge=5))

    def test_heterogeneous_rates(self):
        """Link rates do not affect shortest-hop routing — the tables
        must match BFS even when tiers run at different speeds."""
        assert_matches_bfs(
            build_fabric(
                kind="fat_tree",
                k=4,
                host_rate_bps=units.gbps(10),
                agg_rate_bps=units.gbps(40),
                core_rate_bps=units.gbps(100),
            )
        )

    def test_generalized_clos(self):
        assert_matches_bfs(
            build_fabric(
                kind="clos",
                pods=3,
                tors_per_pod=2,
                leaves_per_pod=3,
                spines=2,
                hosts_per_tor=2,
            )
        )


SMALL_SPECS = st.one_of(
    st.builds(
        FabricSpec,
        kind=st.just("fat_tree"),
        k=st.sampled_from([2, 4, 6]),
        hosts_per_edge=st.integers(1, 3),
    ),
    st.builds(
        FabricSpec,
        kind=st.just("clos"),
        pods=st.integers(1, 3),
        tors_per_pod=st.integers(1, 3),
        leaves_per_pod=st.integers(1, 3),
        spines=st.integers(1, 3),
        hosts_per_tor=st.integers(1, 3),
    ),
)


class TestBlockRoutes:
    """Agg and core tiers route per rack and per pod, not per host."""

    @settings(deadline=None, max_examples=40)
    @given(SMALL_SPECS)
    def test_any_small_fabric_matches_bfs(self, spec):
        assert_matches_bfs(build_fabric(spec))

    def test_table_shape_k8(self):
        fabric = build_fabric(kind="fat_tree", k=8)
        spec = fabric.spec
        for core in fabric.cores:
            assert len(core.route_blocks()) == spec.pod_count
            assert not core.routing_table
        for agg in fabric.aggs:
            assert len(agg.route_blocks()) == spec.edges_per_pod
            assert not agg.routing_table
        for edge in fabric.edges:
            assert not edge.route_blocks()
        assert (
            sum(len(switch.routing_table) for switch in fabric.net.switches)
            == spec.host_count()
        )

    @pytest.mark.parametrize(
        "swaps, where",
        [
            # one host of rack 0 trades ids with one of rack 1
            ([((0, 1), (1, 0))], "rack 0"),
            # rack 1 (pod 0) trades ids with rack 2 (pod 1), host by
            # host: every rack stays consecutive, the pods do not
            ([((1, 0), (2, 0)), ((1, 1), (2, 1))], "pod 0"),
        ],
    )
    def test_non_consecutive_host_ids_are_refused(self, swaps, where):
        """Blocks rest on edge-major host numbering: a rack or a pod
        whose ids are not ``first .. first+n-1`` raises before any table
        is written, it is not routed to the wrong rack."""
        fabric = build_fabric(kind="fat_tree", k=4)
        for (rack_a, i), (rack_b, j) in swaps:
            a, b = fabric.hosts[rack_a][i].nic, fabric.hosts[rack_b][j].nic
            a.device_id, b.device_id = b.device_id, a.device_id
        before = effective_routes(fabric.net)
        with pytest.raises(ValueError, match=f"{where}: host ids are not"):
            install_fabric_routes(fabric)
        assert effective_routes(fabric.net) == before


class TestSymmetryAndReachability:
    def test_route_symmetry(self):
        """Hop distance between any two hosts is direction-independent."""
        fabric = build_fabric(kind="fat_tree", k=4)
        devices = [s for s in fabric.net.switches] + [
            h.nic for h in fabric.net.hosts
        ]
        neighbors = adjacency(devices)
        hosts = fabric.all_hosts()[::5]  # a spread sample, keeps it fast
        dist = {
            h.nic.device_id: hop_distances(h.nic, neighbors) for h in hosts
        }
        for a in hosts:
            for b in hosts:
                assert (
                    dist[a.nic.device_id][b.nic.device_id]
                    == dist[b.nic.device_id][a.nic.device_id]
                )

    def test_next_hops_decrease_distance(self):
        """Every ECMP choice strictly approaches the target: no loops,
        no blackholes, on an asymmetric (oversubscribed) fabric too."""
        fabric = build_fabric(kind="fat_tree", k=4, hosts_per_edge=3)
        devices = [s for s in fabric.net.switches] + [
            h.nic for h in fabric.net.hosts
        ]
        neighbors = adjacency(devices)
        for host in fabric.all_hosts():
            dist = hop_distances(host.nic, neighbors)
            for switch in fabric.net.switches:
                for port_index in switch.route_to(host.nic.device_id):
                    peer = switch.ports[port_index].peer.owner
                    assert dist[peer.device_id] == dist[switch.device_id] - 1


class TestFailedLinks:
    def test_transfer_survives_core_link_flap(self):
        """A flapped agg-core link must not blackhole the fabric: the
        probe transfer still completes once go-back-N recovers."""
        from repro.faults.plan import FaultPlan, LinkFlap
        from repro.runner.scenario import run_scenario_inline
        from repro.runner.spec import FlowSpec, Scenario

        scenario = Scenario(
            topology="fabric",
            topology_kwargs={"kind": "fat_tree", "k": 4},
            flows=(
                FlowSpec(
                    name="probe",
                    src="0:0:0",
                    dst="3:1:1",
                    cc="dcqcn",
                    greedy=False,
                    message_bytes=units.kb(200),
                    message_start_ns=0,
                ),
            ),
            duration_ns=units.ms(4),
            faults=FaultPlan(
                injectors=(
                    LinkFlap(
                        a="p0a0",
                        b="c0",
                        start_ns=units.us(10),
                        down_ns=units.us(200),
                    ),
                )
            ),
        )
        result, net = run_scenario_inline(scenario, seed=1)
        assert result.counters["fct_ns.probe"] > 0

    def test_whole_agg_outage_recovers(self):
        """Both uplinks of one aggregation switch dark for a window:
        ECMP is hash-pinned (no adaptive rerouting, by design), so a
        flow pinned to the dark agg stalls — but go-back-N must bring
        it home once the links return, with no permanent blackhole."""
        from repro.faults.plan import FaultPlan, LinkFlap
        from repro.runner.scenario import run_scenario_inline
        from repro.runner.spec import FlowSpec, Scenario

        flaps = tuple(
            LinkFlap(
                a="p0a0",
                b=f"c{c}",
                start_ns=0,
                down_ns=units.us(400),
            )
            for c in range(2)  # agg 0 of a k=4 fat-tree uplinks to c0, c1
        )
        scenario = Scenario(
            topology="fabric",
            topology_kwargs={"kind": "fat_tree", "k": 4},
            flows=(
                FlowSpec(
                    name="probe",
                    src="0:0:0",
                    dst="2:0:0",
                    cc="dcqcn",
                    greedy=False,
                    message_bytes=units.kb(100),
                    message_start_ns=units.us(50),
                ),
            ),
            duration_ns=units.ms(8),
            faults=FaultPlan(injectors=flaps),
        )
        result, _ = run_scenario_inline(scenario, seed=1)
        assert result.counters["fct_ns.probe"] > 0
