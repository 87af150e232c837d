"""The repro.fabric subsystem: specs, builder, fig2 equivalence."""

import pytest

from repro import units
from repro.fabric import Fabric, FabricSpec, TIERS, build_fabric
from repro.runner.spec import decode_value, encode_value


def _edge_oversubscription(fabric: Fabric) -> float:
    """Host-facing over uplink capacity of the first edge switch."""
    edge = fabric.edges[0]
    up = sum(port.rate_bps for port in edge.ports if port.peer.owner in fabric.aggs)
    return (sum(port.rate_bps for port in edge.ports) - up) / up


def _paths(fabric: Fabric, locator) -> int:
    """Equal-cost paths from the first edge switch to the host at
    ``(pod, edge, host)``, counted through every switch's route set."""
    dst = fabric.host_in_pod(*locator).nic.device_id

    def count(switch) -> int:
        total = 0
        for index in switch.route_to(dst):
            peer = switch.ports[index].peer.owner
            total += count(peer) if hasattr(peer, "route_to") else 1
        return total

    return count(fabric.edges[0])


class TestFabricSpec:
    def test_fat_tree_shape(self):
        spec = FabricSpec(kind="fat_tree", k=4)
        assert spec.tier_counts() == {"edge": 8, "agg": 8, "core": 4}
        assert spec.host_count() == 16  # k^3/4

    def test_k8_shape(self):
        spec = FabricSpec(kind="fat_tree", k=8)
        assert spec.host_count() == 128
        assert spec.tier_counts() == {"edge": 32, "agg": 32, "core": 16}

    def test_clos_shape(self):
        spec = FabricSpec(
            kind="clos",
            pods=2,
            tors_per_pod=2,
            leaves_per_pod=2,
            spines=2,
            hosts_per_tor=5,
        )
        assert spec.tier_counts() == {"edge": 4, "agg": 4, "core": 2}
        assert spec.host_count() == 20

    def test_rejects_odd_k(self):
        with pytest.raises(ValueError):
            FabricSpec(kind="fat_tree", k=5)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            FabricSpec(kind="hypercube")

    def test_rejects_fig2_naming_on_fat_tree(self):
        with pytest.raises(ValueError):
            FabricSpec(kind="fat_tree", k=4, naming="fig2")

    def test_rejects_zero_hosts(self):
        with pytest.raises(ValueError):
            FabricSpec(kind="clos", hosts_per_tor=0)

    def test_rejects_negative_rate(self):
        with pytest.raises(ValueError):
            FabricSpec(kind="fat_tree", k=4, agg_rate_bps=-1.0)

    def test_oversubscription_full_bisection(self):
        assert _edge_oversubscription(build_fabric(kind="fat_tree", k=4)) == 1.0

    def test_oversubscription_with_extra_hosts(self):
        fabric = build_fabric(kind="fat_tree", k=4, hosts_per_edge=4)
        assert _edge_oversubscription(fabric) == 2.0

    def test_oversubscription_heterogeneous_rates(self):
        fabric = build_fabric(
            kind="fat_tree",
            k=4,
            host_rate_bps=units.gbps(10),
            agg_rate_bps=units.gbps(40),
        )
        assert _edge_oversubscription(fabric) == 0.25

    def test_ecmp_path_formulas(self):
        """Inter-pod traffic fans over (k/2)^2 paths in a fat-tree and
        leaf x spine x leaf in a Clos; intra-pod cross-edge traffic
        over k/2 and leaves_per_pod."""
        for k, cross, within in ((4, 4, 2), (8, 16, 4)):
            fabric = build_fabric(kind="fat_tree", k=k)
            assert _paths(fabric, (k - 1, 0, 0)) == cross
            assert _paths(fabric, (0, 1, 0)) == within
        clos = build_fabric(
            kind="clos", pods=2, tors_per_pod=2, leaves_per_pod=2, spines=2,
            hosts_per_tor=1,
        )
        assert _paths(clos, (1, 0, 0)) == 8
        assert _paths(clos, (0, 1, 0)) == 2

    def test_encode_decode_round_trip(self):
        spec = FabricSpec(
            kind="fat_tree",
            k=8,
            hosts_per_edge=6,
            host_rate_bps=units.gbps(10),
            prop_delay_ns=700,
        )
        assert decode_value(encode_value(spec)) == spec


class TestBuilder:
    def test_k4_validates(self):
        fabric = build_fabric(kind="fat_tree", k=4)
        assert fabric.validate() == []
        assert len(fabric.all_hosts()) == 16

    def test_k8_validates(self):
        fabric = build_fabric(kind="fat_tree", k=8)
        assert fabric.validate() == []
        assert len(fabric.all_hosts()) == 128

    def test_oversubscribed_validates(self):
        fabric = build_fabric(kind="fat_tree", k=4, hosts_per_edge=6)
        assert fabric.validate() == []
        assert len(fabric.all_hosts()) == 48

    def test_clos_validates(self):
        fabric = build_fabric(
            kind="clos",
            pods=3,
            tors_per_pod=2,
            leaves_per_pod=3,
            spines=4,
            hosts_per_tor=2,
        )
        assert fabric.validate() == []
        assert len(fabric.all_hosts()) == 12

    def test_validate_reads_block_routes_as_the_datapath_does(self):
        fabric = build_fabric(kind="fat_tree", k=4)
        core, agg = fabric.cores[0], fabric.aggs[0]
        # a core that lost one pod's block blackholes that pod's 4 hosts
        del core._block_starts[1], core._block_routes[1]
        # a block whose port does not exist (set_route_block would refuse)
        stop, _ = agg._block_routes[0]
        agg._block_routes[0] = (stop, (99,))
        assert fabric.validate() == [
            f"{agg.name}: route to missing port [99]",
            f"{core.name}: no route (and no default) for 4 hosts",
        ]

    def test_tier_handles(self):
        fabric = build_fabric(kind="fat_tree", k=4)
        tiers = fabric.tiers()
        assert set(tiers) == set(TIERS)
        assert [len(tiers[t]) for t in TIERS] == [8, 8, 4]

    def test_spec_and_kwargs_conflict(self):
        with pytest.raises(TypeError):
            build_fabric(FabricSpec(kind="fat_tree", k=4), k=8)

    def test_network_back_reference(self):
        fabric = build_fabric(kind="fat_tree", k=4)
        assert fabric.net.fabric is fabric
        assert fabric.net.route_install_s >= 0.0

    def test_pause_probes_cover_all_tiers(self):
        fabric = build_fabric(kind="fat_tree", k=4)
        probes = fabric.pause_probes()
        assert set(probes) == {
            f"{direction}.{tier}"
            for direction in ("pause_rx", "pause_tx")
            for tier in TIERS
        }
        assert all(probe() == 0 for probe in probes.values())

    def test_cross_pod_transfer(self):
        fabric = build_fabric(kind="fat_tree", k=4)
        flow = fabric.net.add_flow(
            fabric.host_in_pod(0, 0, 0), fabric.host_in_pod(3, 1, 1)
        )
        flow.send_message(units.kb(100))
        fabric.net.run_for(units.ms(2))
        assert flow.messages_completed == 1


class TestDeterminism:
    """Device naming, ids and salts are a pure function of (spec, seed)."""

    def test_identical_rebuild(self):
        a = build_fabric(kind="fat_tree", k=4, seed=7)
        b = build_fabric(kind="fat_tree", k=4, seed=7)
        assert [s.name for s in a.net.switches] == [s.name for s in b.net.switches]
        assert [s.device_id for s in a.net.switches] == [
            s.device_id for s in b.net.switches
        ]
        assert [s.ecmp_salt for s in a.net.switches] == [
            s.ecmp_salt for s in b.net.switches
        ]
        assert [h.name for h in a.all_hosts()] == [h.name for h in b.all_hosts()]
        for sa, sb in zip(a.net.switches, b.net.switches):
            assert sa.routing_table == sb.routing_table
            assert sa.route_blocks() == sb.route_blocks()
            assert sa.default_route == sb.default_route
        assert any(switch.route_blocks() for switch in a.net.switches)

    def test_scoped_names_stable_across_sizes(self):
        """A device's name depends on its position, not the fabric size."""
        small = build_fabric(kind="fat_tree", k=4)
        large = build_fabric(kind="fat_tree", k=8)
        assert small.edges[0].name == "p0e0" == large.edges[0].name
        assert small.aggs[0].name == "p0a0" == large.aggs[0].name
        assert small.cores[0].name == "c0" == large.cores[0].name
        assert (
            small.host_in_pod(0, 0, 0).name
            == "p0e0h0"
            == large.host_in_pod(0, 0, 0).name
        )

    def test_seed_changes_salts_not_structure(self):
        a = build_fabric(kind="fat_tree", k=4, seed=1)
        b = build_fabric(kind="fat_tree", k=4, seed=2)
        assert [s.name for s in a.net.switches] == [s.name for s in b.net.switches]
        assert [s.ecmp_salt for s in a.net.switches] != [
            s.ecmp_salt for s in b.net.switches
        ]


class TestFig2Equivalence:
    """three_tier_clos is a thin fabric wrapper — byte-identical."""

    def _fig2(self, hosts_per_tor=5, seed=0):
        from repro.sim.topology import three_tier_clos

        return three_tier_clos(hosts_per_tor=hosts_per_tor, seed=seed)

    def test_names_and_ids(self):
        spec = self._fig2()
        assert [s.name for s in spec.net.switches] == [
            "T1", "T2", "T3", "T4", "L1", "L2", "L3", "L4", "S1", "S2",
        ]
        assert [s.device_id for s in spec.net.switches] == list(range(10))
        assert spec.host(0, 0).name == "H11"
        assert spec.host(3, 4).name == "H45"

    def test_fabric_spec_shape(self):
        spec = self._fig2()
        fabric = spec.net.fabric
        assert isinstance(fabric, Fabric)
        assert fabric.spec.kind == "clos"
        assert fabric.spec.naming == "fig2"
        assert fabric.spec.tier_counts() == {"edge": 4, "agg": 4, "core": 2}

    def test_salts_match_legacy_draw_order(self):
        """Switch ECMP salts replay the legacy builder's RNG draws."""
        import random

        spec = self._fig2(seed=3)
        rng = random.Random(3)
        expected = [rng.getrandbits(64) for _ in range(10)]
        assert [s.ecmp_salt for s in spec.net.switches] == expected

    def test_structured_routes_equal_bfs(self):
        """Every effective ECMP set matches what the BFS would install."""
        from repro.sim.routing import install_routes

        spec = self._fig2(hosts_per_tor=2)
        structured = {
            (switch.device_id, host.nic.device_id): switch.route_to(
                host.nic.device_id
            )
            for switch in spec.net.switches
            for host in spec.net.hosts
        }
        for switch in spec.net.switches:
            switch.routing_table.clear()
            switch.default_route = ()
        install_routes(
            spec.net.switches, (host.nic for host in spec.net.hosts)
        )
        for switch in spec.net.switches:
            for host in spec.net.hosts:
                key = (switch.device_id, host.nic.device_id)
                assert structured[key] == switch.routing_table[host.nic.device_id]
