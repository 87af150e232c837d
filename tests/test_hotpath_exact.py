"""The flattened per-packet path fires the same events in the same order.

Each shortcut the hot path takes is checked here against the plain
version it replaced: ``post`` against ``schedule``, the memoised ECMP
pick against ``_pick_egress``, the early return of ``should_mark``
against ``marking_probability`` plus one draw, and the whole path
against the result digests pinned in ``bench/digests.json``.
"""

import hashlib
import importlib.util
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cp import RedEcnMarker, marking_probability
from repro.core.params import DCQCNParams
from repro.engine import EventScheduler
from repro.runner import Scenario, run_scenario_inline
from repro.sim.packet import data_packet
from tests.test_sim_switch import make_switch

BENCH = Path(__file__).resolve().parent.parent / "bench"


# --- post vs schedule ---------------------------------------------------------

#: (delay, tie-break) of each call; delays collide on purpose
CALLS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),
        st.sampled_from([(), ("a", 0), ("a", 1), ("b", 0)]),
    ),
    min_size=1,
    max_size=40,
)


def fire_order(calls, use_post):
    """Ids in firing order; ``use_post[i]`` picks the call made for id i."""
    engine = EventScheduler()
    fired = []
    for ident, (delay, tb) in enumerate(calls):
        if use_post[ident]:
            engine.post(delay, fired.append, (ident,), tb)
        else:
            engine.schedule(delay, fired.append, ident, tb=tb)
    engine.run()
    return fired


class TestPost:
    @given(CALLS, st.randoms(use_true_random=False))
    def test_interleaved_post_and_schedule_fire_in_schedule_order(self, calls, rnd):
        mixed = [rnd.random() < 0.5 for _ in calls]
        assert fire_order(calls, mixed) == fire_order(calls, [False] * len(calls))

    def test_tie_break_orders_same_tick_posts_before_sequence(self):
        engine = EventScheduler()
        fired = []
        engine.post(5, fired.append, ("late tb",), ("z", 0))
        engine.post(5, fired.append, ("early tb",), ("a", 3))
        engine.post(5, fired.append, ("no tb",))
        engine.run()
        assert fired == ["no tb", "early tb", "late tb"]

    def test_negative_delay_raises(self):
        with pytest.raises(ValueError):
            EventScheduler().post(-1, print)

    def test_post_counts_as_a_pending_event(self):
        engine = EventScheduler()
        engine.post(7, print, ("x",))
        assert engine.pending() == 1
        assert engine.peek_time() == 7


# --- memoised ECMP pick -------------------------------------------------------

FANOUT = 4
IDS = st.integers(min_value=0, max_value=2**31)
#: clear of the per-host routes make_switch installs (hosts 100..)
REMOTE_IDS = st.integers(min_value=1000, max_value=2**31)


def fanout_switch(salt):
    """A ``FANOUT``-port switch with an ECMP default route; never run."""
    _, switch, _ = make_switch(n_neighbors=FANOUT)
    switch.ecmp_salt = salt
    switch.set_default_route(tuple(range(FANOUT)))
    return switch


def egress_taken(switch, pkt):
    """Forward ``pkt`` and return the egress port whose queue grew."""
    before = [switch.egress_queue_bytes(i) for i in range(FANOUT)]
    switch.receive(pkt, switch.ports[0])
    grown = [i for i in range(FANOUT) if switch.egress_queue_bytes(i) > before[i]]
    assert len(grown) == 1
    return grown[0]


class TestEgressMemo:
    @settings(deadline=None, max_examples=50)
    @given(IDS, IDS, REMOTE_IDS, st.integers(min_value=0, max_value=2**64 - 1))
    def test_memo_equals_fresh_pick_and_routes_invalidate_it(
        self, flow_id, src, dst, salt
    ):
        switch = fanout_switch(salt)

        def packet():
            return data_packet(flow_id, src, dst, 1000, 0, 0)

        for _ in range(2):  # second pass is served from the memo
            assert egress_taken(switch, packet()) == switch._pick_egress(packet())
        switch.set_default_route((1, 2))
        assert egress_taken(switch, packet()) == switch._pick_egress(packet())
        assert switch._pick_egress(packet()) in (1, 2)
        switch.set_route(dst, (3,))
        assert egress_taken(switch, packet()) == 3

    def test_reverse_direction_is_memoised_apart(self):
        switch = fanout_switch(salt=7)
        for flow_id in range(32):
            for src, dst in ((1005, 1009), (1009, 1005)):
                pkt = data_packet(flow_id, src, dst, 1000, 0, 0)
                assert egress_taken(switch, pkt) == switch._pick_egress(pkt)


# --- should_mark --------------------------------------------------------------


class TestShouldMarkStream:
    @settings(deadline=None, max_examples=50)
    @given(
        st.lists(st.integers(min_value=0, max_value=300_000), max_size=200),
        st.integers(min_value=0, max_value=2**31),
    )
    def test_same_decisions_and_draws_as_the_reference(self, queues, seed):
        params = DCQCNParams.deployed()
        marker = RedEcnMarker(params, seed=seed)
        reference = random.Random(seed)
        for queue in queues:
            p = marking_probability(
                queue, params.kmin_bytes, params.kmax_bytes, params.pmax
            )
            expected = p >= 1.0 or (p > 0.0 and reference.random() < p)
            assert marker.should_mark(queue) == expected
        # one draw per 0 < p < 1 and none elsewhere: the streams agree
        assert marker._rng.random() == reference.random()
        assert marker.seen == len(queues)


# --- pinned digests -----------------------------------------------------------


def load_bench_child():
    spec = importlib.util.spec_from_file_location("bench_child", BENCH / "child.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["clos_victim_pfc", "clos_storage_dcqcn"])
def test_result_digest_matches_the_bench_pin(workload):
    """Digest drift fails tier-1, not only the benchmark."""
    pins = json.loads((BENCH / "digests.json").read_text())
    spec = json.loads((BENCH / "workloads" / f"{workload}.json").read_text())
    result, _ = run_scenario_inline(Scenario.from_spec(spec["scenario"]), pins["seed"])
    text = load_bench_child().canonical_json(result.to_json())
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == pins["workloads"][workload]["cells"]["run"]
