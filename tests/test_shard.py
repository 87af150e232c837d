"""repro.shard: partitioner, sharding spec, codec, barrier schedule."""

import os
import subprocess
import sys

import pytest

from repro import runtime, units
from repro.fabric import build_fabric
from repro.runner.spec import FlowSpec, Scenario
from repro.shard import ShardingSpec, can_shard, effective_shards
from repro.shard.boundary import barrier_schedule, decode_packet, encode_packet
from repro.shard.partition import partition_fabric
from repro.sim.packet import Header, Packet
from tests.frames import data_packet, frame

SHARDS_ENV = runtime.VARS["shards"].env


def ambient_shards():
    return runtime.current().shards


def _fabric(seed=0, **kwargs):
    kwargs.setdefault("kind", "fat_tree")
    return build_fabric(seed=seed, **kwargs)


def _assert_plan_well_formed(fabric, plan):
    # every device in exactly one shard
    names = {sw.name for sw in fabric.net.switches}
    names |= {h.name for h in fabric.net.hosts}
    names |= {h.nic.name for h in fabric.net.hosts}
    assert set(plan.owner) == names
    assert all(0 <= s < plan.shards for s in plan.owner.values())
    partition = [plan.local_names(s) for s in range(plan.shards)]
    assert sorted(n for part in partition for n in part) == sorted(names)

    # every cross-shard link is agg<->core (pods only meet at the core)
    cores = {c.name for c in fabric.cores}
    aggs = {a.name for a in fabric.aggs}
    for channel in plan.channels:
        endpoints = {channel.tx_dev, channel.rx_dev}
        assert endpoints & cores, f"boundary {endpoints} misses the core tier"
        assert endpoints & aggs, f"boundary {endpoints} misses the agg tier"
        assert plan.owner[channel.tx_dev] == channel.tx_shard
        assert plan.owner[channel.rx_dev] == channel.rx_shard
        assert channel.tx_shard != channel.rx_shard
        assert channel.prop_delay_ns >= plan.lookahead_ns

    assert plan.lookahead_ns > 0


class TestPartition:
    def test_k4_two_shards(self):
        fabric = _fabric(k=4)
        plan = partition_fabric(fabric, 2)
        _assert_plan_well_formed(fabric, plan)
        # pods alternate: pod p -> shard p % 2
        assert plan.owner["p0e0"] == 0
        assert plan.owner["p1e0"] == 1
        assert plan.owner["p2a1"] == 0
        assert plan.owner["p3e1h0"] == 1
        # cores round-robin
        assert [plan.owner[f"c{i}"] for i in range(4)] == [0, 1, 0, 1]

    def test_k8_four_shards(self):
        fabric = _fabric(k=8)
        plan = partition_fabric(fabric, 4)
        _assert_plan_well_formed(fabric, plan)

    def test_oversubscribed_clos(self):
        fabric = _fabric(
            kind="clos",
            pods=4,
            tors_per_pod=2,
            leaves_per_pod=2,
            spines=2,
            hosts_per_tor=4,
        )
        assert fabric.spec.oversubscription() > 1.0
        plan = partition_fabric(fabric, 3)
        _assert_plan_well_formed(fabric, plan)

    def test_hosts_follow_their_edge(self):
        fabric = _fabric(k=4)
        plan = partition_fabric(fabric, 2)
        for rack, edge in zip(fabric.hosts, fabric.edges):
            for host in rack:
                assert plan.owner[host.name] == plan.owner[edge.name]
                assert plan.owner[host.nic.name] == plan.owner[edge.name]

    def test_single_shard_has_no_boundary(self):
        plan = partition_fabric(_fabric(k=4), 1)
        assert plan.channels == ()
        assert plan.lookahead_ns == 0

    def test_more_shards_than_pods(self):
        fabric = _fabric(k=4)
        plan = partition_fabric(fabric, 6)  # 4 pods, 4 cores
        assert set(plan.owner.values()) <= set(range(6))
        _assert_plan_well_formed(fabric, plan)

    def test_rejects_bad_count(self):
        with pytest.raises(ValueError):
            partition_fabric(_fabric(k=4), 0)

    def test_channel_ids_are_dense_and_stable(self):
        plan_a = partition_fabric(_fabric(k=4), 2)
        plan_b = partition_fabric(_fabric(k=4), 2)
        assert [c.channel_id for c in plan_a.channels] == list(
            range(len(plan_a.channels))
        )
        assert plan_a == plan_b


class TestShardingSpec:
    def test_defaults_are_serial(self):
        spec = ShardingSpec()
        assert spec.shards == 1 and spec.window_ns is None

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            ShardingSpec(shards=0)
        with pytest.raises(ValueError):
            ShardingSpec(shards=2, window_ns=0)

    def test_scenario_spec_round_trip(self):
        scenario = Scenario(
            topology="fabric",
            topology_kwargs={"k": 4},
            flows=(FlowSpec(name="f0", src="0:0:0", dst="1:0:0"),),
            sharding=ShardingSpec(shards=2, window_ns=250),
        )
        assert Scenario.from_spec(scenario.spec()) == scenario

    def test_no_sharding_key_when_unset(self):
        scenario = Scenario(
            topology="fabric",
            topology_kwargs={"k": 4},
            flows=(FlowSpec(name="f0", src="0:0:0", dst="1:0:0"),),
        )
        # absent, not null: adding the field must not shift the content
        # hash of every pre-existing cached cell
        assert "sharding" not in scenario.spec()

    def test_scenario_rejects_wrong_type(self):
        with pytest.raises(TypeError):
            Scenario(
                topology="fabric",
                topology_kwargs={"k": 4},
                flows=(FlowSpec(name="f0", src="0:0:0", dst="1:0:0"),),
                sharding={"shards": 2},
            )


class TestDispatch:
    def test_non_fabric_cannot_shard(self):
        scenario = Scenario(
            topology="single_switch",
            flows=(FlowSpec(name="f0", src="0", dst="1"),),
        )
        assert not can_shard(scenario)

    def test_effective_shards_env(self, monkeypatch):
        scenario = Scenario(
            topology="fabric",
            topology_kwargs={"k": 4},
            flows=(FlowSpec(name="f0", src="0:0:0", dst="1:0:0"),),
        )
        monkeypatch.delenv(SHARDS_ENV, raising=False)
        assert effective_shards(scenario, ambient_shards()) == 1
        monkeypatch.setenv(SHARDS_ENV, "3")
        assert effective_shards(scenario, ambient_shards()) == 3
        # an embedded spec wins over the environment
        sharded = Scenario(
            topology="fabric",
            topology_kwargs={"k": 4},
            flows=scenario.flows,
            sharding=ShardingSpec(shards=2),
        )
        assert effective_shards(sharded, ambient_shards()) == 2

    def test_effective_shards_rejects_junk(self, monkeypatch):
        scenario = Scenario(
            topology="fabric",
            topology_kwargs={"k": 4},
            flows=(FlowSpec(name="f0", src="0:0:0", dst="1:0:0"),),
        )
        monkeypatch.setenv(SHARDS_ENV, "many")
        with pytest.raises(ValueError, match=SHARDS_ENV):
            effective_shards(scenario, ambient_shards())

    @pytest.mark.parametrize("raw", ["0", "-3"])
    def test_effective_shards_rejects_nonpositive(self, monkeypatch, raw):
        # --shards 0 is an argparse error; the variable must not be laxer
        scenario = Scenario(
            topology="fabric",
            topology_kwargs={"k": 4},
            flows=(FlowSpec(name="f0", src="0:0:0", dst="1:0:0"),),
        )
        monkeypatch.setenv(SHARDS_ENV, raw)
        with pytest.raises(ValueError, match=f"{SHARDS_ENV} must be a positive"):
            effective_shards(scenario, ambient_shards())

    def test_non_fabric_run_stays_serial(self, monkeypatch):
        from repro.runner.scenario import run_scenario_inline

        monkeypatch.setenv(SHARDS_ENV, "2")
        scenario = Scenario(
            topology="single_switch",
            topology_kwargs={"n_hosts": 2},
            flows=(FlowSpec(name="f0", src="0", dst="1"),),
            duration_ns=units.us(50),
        )
        result, net = run_scenario_inline(scenario, 0)
        assert net is not None  # serial path returns the live network
        assert "shard.count" not in result.metrics["gauges"]


#: what a run pays for only once it is told to shard
SHARD_RUNTIME = [
    f"repro.shard.{name}"
    for name in (
        "runner", "boundary", "merge", "partition", "supervise", "worker",
    )
]

SERIAL_RUNS = """
from repro.experiments import catalog  # registers the named scenarios
from repro.runner import run_scenario_inline
from repro.runner.registry import resolve
for name in ("fig04/2", "fabric/4"):  # the Fig 2 Clos, a k=4 fat-tree
    result, net = run_scenario_inline(resolve(name)[0], 0)
    print(name, "serial" if net is not None else "sharded")
"""


class TestSerialRunsSkipTheShardRuntime:
    """Deciding that a run is serial needs ``repro.shard.spec`` alone."""

    def imported(self, *argv, shards=None):
        """``(stdout, repro.shard modules imported)`` of one interpreter."""
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env["REPRO_SCALE"] = "smoke"
        env["PYTHONPATH"] = os.pathsep.join(sys.path)
        if shards is not None:
            env[SHARDS_ENV] = shards
        done = subprocess.run(
            [sys.executable, "-X", "importtime", *argv],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        modules = {line.rsplit("|", 1)[-1].strip() for line in done.stderr.splitlines()}
        return done.stdout, sorted(m for m in modules if m.startswith("repro.shard"))

    def test_serial_clos_and_fabric_runs(self):
        out, modules = self.imported("-c", SERIAL_RUNS)
        assert out.split() == ["fig04/2", "serial", "fabric/4", "serial"]
        assert modules == ["repro.shard", "repro.shard.spec"]

    def test_help(self):
        out, modules = self.imported("-m", "repro", "--help")
        assert "usage" in out.lower()
        assert modules == ["repro.shard", "repro.shard.spec"]

    def test_the_variable_still_shards_the_fabric_run(self):
        out, modules = self.imported("-c", SERIAL_RUNS, shards="2")
        assert out.split() == ["fig04/2", "serial", "fabric/4", "sharded"]
        assert set(SHARD_RUNTIME) <= set(modules)


class TestPacketCodec:
    def test_round_trip(self):
        pkt = frame(
            kind=1,
            flow_id=7,
            src=3,
            dst=12,
            size=1000,
            seq=42,
            priority=3,
            ecn=1,
            msg_id=2,
            qcn_fb=5,
        )
        pkt.ingress_index = 4
        clone = decode_packet(encode_packet(pkt), {})
        for name in Header.__slots__:
            assert getattr(clone.hdr, name) == getattr(pkt.hdr, name), name
        for name in Packet.__slots__:
            if name not in ("hdr", "ingress_index"):
                assert getattr(clone, name) == getattr(pkt, name), name
        assert clone.ingress_index == -1  # per-hop scratch, reset on decode

    def test_one_stream_decodes_to_one_header(self):
        headers = {}

        def decoded(flow_id, seq):
            pkt = data_packet(flow_id, 3, 12, 1000, seq, 0)
            return decode_packet(encode_packet(pkt), headers)

        first, second, other = decoded(7, 0), decoded(7, 1), decoded(8, 0)
        assert first.hdr is second.hdr
        assert (first.seq, second.seq) == (0, 1)
        assert other.hdr is not first.hdr
        assert len(headers) == 2

    def test_decode_without_a_header_table(self):
        pkt = data_packet(7, 3, 12, 1000, 5, 0)
        first = decode_packet(encode_packet(pkt))
        second = decode_packet(encode_packet(pkt))
        assert encode_packet(first) == encode_packet(pkt)
        assert first.hdr is not second.hdr


class TestBarrierSchedule:
    def test_covers_horizon_with_bounded_gaps(self):
        barriers = barrier_schedule(500, units.us(1), units.us(3))
        assert barriers == sorted(set(barriers))
        assert barriers[-1] == units.us(3)
        assert units.us(1) in barriers
        previous = 0
        for barrier in barriers:
            assert barrier - previous <= 500
            previous = barrier

    def test_uneven_window(self):
        barriers = barrier_schedule(700, 0, 2000)
        assert barriers == [700, 1400, 2000]

    def test_warmup_not_duplicated(self):
        barriers = barrier_schedule(500, 1000, 2000)
        assert barriers.count(1000) == 1

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            barrier_schedule(0, 0, 1000)
