"""Flow-size distributions, and the workloads scenarios build from them:
closed-loop message streams (``FlowSpec.message_sizes`` / ``fresh_qp``)
and the benchmark traffic's user pairs and disk-rebuild incast."""

import random

import pytest
from hypothesis import given, strategies as st

from repro import units
from repro.analysis.stats import percentile
from repro.experiments.benchmark_traffic import traffic_scenario
from repro.experiments.fct_grid import STREAM
from repro.runner import FlowSpec, Scenario
from repro.runner.scale import derive_seed
from repro.runner.scenario import run_scenario_inline
from repro.traffic.distributions import (
    DISTRIBUTIONS,
    FlowSizeDistribution,
    storage_cluster,
)


class TestDistributionValidation:
    def test_needs_two_anchors(self):
        with pytest.raises(ValueError):
            FlowSizeDistribution("x", [(1000, 1.0)])

    def test_sizes_strictly_increasing(self):
        with pytest.raises(ValueError):
            FlowSizeDistribution("x", [(1000, 0.5), (1000, 1.0)])

    def test_probabilities_nondecreasing(self):
        with pytest.raises(ValueError):
            FlowSizeDistribution("x", [(1000, 0.8), (2000, 0.5), (3000, 1.0)])

    def test_final_probability_must_be_one(self):
        with pytest.raises(ValueError):
            FlowSizeDistribution("x", [(1000, 0.5), (2000, 0.9)])


class TestQuantiles:
    def test_bounds(self):
        dist = storage_cluster()
        assert dist.quantile(0.0) == units.kb(1)
        assert dist.quantile(1.0) == units.mb(16)

    def test_quantile_range_check(self):
        with pytest.raises(ValueError):
            storage_cluster().quantile(1.5)

    @given(st.floats(min_value=0, max_value=1))
    def test_quantile_within_support(self, u):
        dist = storage_cluster()
        size = dist.quantile(u)
        assert units.kb(1) <= size <= units.mb(16)

    @given(
        st.floats(min_value=0, max_value=1),
        st.floats(min_value=0, max_value=1),
    )
    def test_quantile_monotone(self, u1, u2):
        dist = storage_cluster()
        if u1 > u2:
            u1, u2 = u2, u1
        assert dist.quantile(u1) <= dist.quantile(u2)

    def test_sampling_deterministic_per_seed(self):
        dist = storage_cluster()
        a = [dist.sample(random.Random(4)) for _ in range(1)]
        b = [dist.sample(random.Random(4)) for _ in range(1)]
        assert a == b

    def test_mean_in_plausible_range(self):
        # heavy-tailed: mean far above median
        dist = storage_cluster()
        mean = dist.mean()
        assert units.kb(100) < mean < units.mb(2)
        assert mean > dist.quantile(0.5)

    def test_all_builtin_distributions_load(self):
        for make in DISTRIBUTIONS.values():
            assert make().quantile(0.5) > 0


def _stream(name, src, dst, **kwargs):
    return FlowSpec(
        name=name, src=src, dst=dst, greedy=False,
        message_sizes="storage_cluster", message_count=STREAM, **kwargs,
    )


def _streams(cc="none", fresh_qp=False, duration_ns=units.ms(5)):
    """Two closed-loop storage-cluster streams through one switch."""
    return Scenario(
        topology="single_switch",
        flows=(
            _stream("user0", "0", "1", cc=cc, fresh_qp=fresh_qp),
            _stream("user1", "2", "3", cc=cc, fresh_qp=fresh_qp),
        ),
        duration_ns=duration_ns,
        topology_kwargs={"n_hosts": 4},
    )


@pytest.fixture(scope="module")
def streams_run():
    return run_scenario_inline(_streams(), seed=3)[0]


def _rows(run, flow):
    return sorted(
        (row for row in run.flow_stats if row["flow"] == flow),
        key=lambda row: row["msg"],
    )


def _placements(seeds=range(5), degree=4, n_pairs=20):
    for seed in seeds:
        scenario = traffic_scenario(
            "dcqcn", degree, n_pairs, units.ms(1), units.ms(1), False, seed
        )
        incast = [f for f in scenario.flows if f.name.startswith("incast")]
        users = [f for f in scenario.flows if f.name.startswith("user")]
        yield incast, users


class TestUserTrafficWorkload:
    """User pairs: closed-loop ``message_sizes`` streams, and where
    :func:`traffic_scenario` places them."""

    def test_closed_loop_progresses(self, streams_run):
        for flow in ("user0", "user1"):
            rows = _rows(streams_run, flow)
            completed = [row for row in rows if row["fct_ns"] is not None]
            assert completed
            # the loop keeps refilling: at most the last transfer is open
            assert rows[: len(completed)] == completed
            assert len(rows) - len(completed) <= 1

    def test_sizes_follow_the_per_flow_draws_in_order(self, streams_run):
        for flow in ("user0", "user1"):
            rng = random.Random(derive_seed(3, f"sizes.{flow}"))
            sizes = [row["size_bytes"] for row in _rows(streams_run, flow)]
            assert sizes == [storage_cluster().sample(rng) for _ in sizes]

    def test_fresh_qp_resets_once_per_completed_transfer(self, monkeypatch):
        from repro.cc.dcqcn import DcqcnControl

        resets = []
        reset = DcqcnControl.reset_to_line_rate
        monkeypatch.setattr(
            DcqcnControl, "reset_to_line_rate",
            lambda control: resets.append(control) or reset(control),
        )
        for fresh_qp in (False, True):
            resets.clear()
            run = run_scenario_inline(
                _streams("dcqcn", fresh_qp, units.ms(3)), seed=3
            )[0]
            completed = sum(row["fct_ns"] is not None for row in run.flow_stats)
            assert completed > 1
            assert len(resets) == (completed if fresh_qp else 0)

    def test_excluded_hosts_not_used(self):
        # the incast receiver is never in a user pair
        for incast, users in _placements():
            receiver = incast[0].dst
            assert all(receiver not in (f.src, f.dst) for f in users)

    def test_pairs_never_self_directed(self):
        for _, users in _placements(n_pairs=40):
            assert all(f.src != f.dst for f in users)

    def test_throughput_metrics(self, streams_run):
        assert set(streams_run.flows_bps) == {"user0", "user1"}
        assert all(rate > 0 for rate in streams_run.flows_bps.values())

    def test_validation(self):
        def stream(**kwargs):
            return FlowSpec(name="u", src="0", dst="1", **kwargs)

        with pytest.raises(ValueError, match="unknown message_sizes"):
            stream(greedy=False, message_sizes="pareto")
        with pytest.raises(ValueError, match="drop message_bytes"):
            stream(greedy=False, message_sizes="storage_cluster", message_bytes=1000)
        with pytest.raises(ValueError, match="greedy"):
            stream(message_sizes="storage_cluster")
        with pytest.raises(ValueError, match="fresh_qp"):
            stream(greedy=False, message_bytes=1000, fresh_qp=True)
        with pytest.raises(ValueError, match="fresh_qp"):
            stream(fresh_qp=True)
        # one drawn transfer is a probe, not a stream, and needs no budget
        assert stream(greedy=False, message_sizes="storage_cluster").message_count == 1


class TestIncastWorkload:
    """The disk-rebuild incast :func:`traffic_scenario` draws."""

    def test_all_senders_stream(self):
        scenario = traffic_scenario(
            "none", 4, 2, units.ms(1), units.ms(2), False, seed=3
        )
        run = run_scenario_inline(scenario, seed=3)[0]
        rates = [run.flows_bps[f"incast{k}"] for k in range(4)]
        assert all(rate > units.gbps(1) for rate in rates)

    def test_receiver_cannot_send_to_itself(self):
        for incast, _ in _placements():
            assert len({f.dst for f in incast}) == 1
            assert all(f.src != f.dst for f in incast)

    def test_needs_senders(self):
        with pytest.raises(ValueError):
            traffic_scenario("dcqcn", 0, 4, units.ms(1), units.ms(1), False, 0)

    def test_pick_participants(self):
        for incast, _ in _placements(degree=6):
            assert len(incast) == 6
            assert len({f.src for f in incast}) == 6

    def test_pick_participants_bounds(self):
        # 20 hosts on the Clos: a 20:1 incast needs 21
        with pytest.raises(ValueError):
            traffic_scenario("dcqcn", 20, 4, units.ms(1), units.ms(1), False, 0)


class TestFctMetrics:
    def test_fcts_collected(self, streams_run):
        fcts = [row["fct_ns"] for row in streams_run.flow_stats]
        assert any(fct is not None for fct in fcts)
        assert all(fct > 0 for fct in fcts if fct is not None)

    def test_fct_p90_reasonable(self, streams_run):
        fcts = [row["fct_ns"] for row in streams_run.flow_stats
                if row["fct_ns"] is not None]
        # transfers up to 16 MB at >= fair share finish within the run
        assert percentile(fcts, 90) < streams_run.duration_ns
