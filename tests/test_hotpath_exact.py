"""The flattened per-packet path fires the same events in the same order.

Each shortcut the hot path takes is checked here against the plain
version it replaced: ``post`` against ``schedule``, the memoised ECMP
pick against ``_pick_egress``, the early return of ``should_mark``
against ``marking_probability`` plus one draw, the idle-egress
cut-through against the queued path, an inert fault record against
none, and the whole path against the result digests pinned in
``bench/digests.json``.  Everything else the path computes is pinned
in ``tests/digests.json``.
"""

import dataclasses
import hashlib
import importlib.util
import json
import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.buffers.thresholds import SwitchProfile
from repro.core.cp import RedEcnMarker, marking_probability
from repro.core.params import DCQCNParams
from repro.engine import EventScheduler
from repro.runner import Scenario, run_scenario_inline
from repro.sim.link import Port
from repro.sim.packet import ECN_ECT, Packet
from repro.sim.switch import SwitchConfig
from tests.frames import data_packet, pause_frame
from tests.test_sim_switch import EventLog, make_switch

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
        hdr = data_packet(flow_id, src, dst, 1000, 0, 0).hdr

        def packet():  # one stream: every frame shares the header
            return Packet(hdr, 0, ECN_ECT)

        for _ in range(2):  # second pass is served from the memo
            assert egress_taken(switch, packet()) == switch._pick_egress(packet())
        assert list(switch._egress_memo) == [hdr]
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


# --- idle-egress cut-through vs the queued path -------------------------------

PORTS = 4
PRIORITIES = (0, 3, 6)
#: never carries a frame here.  Paused on every port of the reference
#: switch it sends every arrival down the queued path (the cut-through
#: is conservative: *any* paused priority queues) and changes nothing else.
UNUSED_PRIORITY = 7
TIMES = st.integers(min_value=0, max_value=3_000)  # 1000 B at 40G is 200 ns
PORT_INDEX = st.integers(min_value=0, max_value=PORTS - 1)

ACTIONS = st.lists(
    st.one_of(
        # an arrival; egress == ingress is a hairpin
        st.tuples(
            st.just("data"), TIMES, PORT_INDEX, PORT_INDEX,
            st.sampled_from(PRIORITIES), st.sampled_from([64, 500, 1000]),
        ),
        # PAUSE / RESUME from the peer of a port
        st.tuples(
            st.just("pfc"), TIMES, PORT_INDEX,
            st.sampled_from(PRIORITIES), st.booleans(),
        ),
        # a control frame the switch sends out of a port
        st.tuples(st.just("control"), TIMES, PORT_INDEX),
    ),
    max_size=70,
)
LINK_WINDOW = st.tuples(PORT_INDEX, TIMES, st.integers(min_value=1, max_value=1_500))

#: a flow whose egress is its ingress, present in every example
HAIRPIN = [("data", 100 + 150 * i, 1, 1, 0, 1000) for i in range(4)]

#: small buffer, low static PAUSE threshold and a steep RED profile, so
#: drops, PAUSEs from the switch and drawn marks all occur in ~3 us
CUT_THROUGH_CONFIG = SwitchConfig(
    profile=SwitchProfile(buffer_bytes=8_000, num_ports=PORTS, headroom_bytes=0),
    pfc_mode="static",
    t_pfc_static_bytes=2_500,
    marking=dataclasses.replace(
        DCQCNParams.deployed(), kmin_bytes=1_000, kmax_bytes=6_000, pmax=0.5
    ),
    ecn_seed=7,
)


def event_keys(log):
    """``(time, callback __qualname__, flow_id, seq)`` of every event."""
    return [
        (at, fn.__qualname__, pkt and pkt.hdr.flow_id, pkt and pkt.seq)
        for at, fn, pkt in log.rows
    ]


def clear_error_rate(port):
    """Leaves a fault record that drops nothing."""
    port.set_error_rate(0.5, seed=1)
    port.set_error_rate(0.0)


def flap_before_traffic(port):
    port.set_link_up(False)
    port.set_link_up(True)


#: ways to touch a port's fault state without any effect on traffic
INERT = {
    "error_rate_cleared": clear_error_rate,
    "flapped_before_traffic": flap_before_traffic,
}


def scripted_switch(actions, link_window, force_queued=False, inert=None):
    """One switch among recording stubs with ``actions`` on its heap."""
    engine, switch, stubs = make_switch(
        CUT_THROUGH_CONFIG, n_neighbors=PORTS, recording=True
    )
    engine.profiler = log = EventLog(engine)
    for port in switch.ports:
        if force_queued:
            # the peer paused a class no frame uses; set in the mask, as
            # set_paused would count a received PAUSE the fast run lacks
            port.paused_mask |= 1 << UNUSED_PRIORITY
        if inert is not None:
            INERT[inert](port)
    seqs = Counter()
    for kind, at, index, *rest in actions:
        port = switch.ports[index]
        if kind == "data":
            egress, prio, size = rest
            flow_id = (index * PORTS + egress) * 8 + prio
            pkt = data_packet(
                flow_id, 100 + index, 100 + egress, size, seqs[flow_id], prio
            )
            seqs[flow_id] += 1
            engine.schedule_at(at, switch.receive, pkt, port)
        elif kind == "pfc":
            prio, pause = rest
            frame = pause_frame(100 + index, prio, pause=pause)
            engine.schedule_at(at, switch.receive, frame, port)
        else:
            frame = pause_frame(switch.device_id, 5, pause=True)
            engine.schedule_at(at, port.send_control, frame)
    index, down_at, down_for = link_window
    engine.schedule_at(down_at, switch.ports[index].set_link_up, False)
    engine.schedule_at(down_at + down_for, switch.ports[index].set_link_up, True)
    return engine, switch, stubs, log


def assert_mask_exact_and_no_idle_port_owes_a_frame(switch):
    k = switch.num_priorities
    for port in switch.ports:
        for prio in range(k):
            queue = switch._egress_queues.get(port.index * k + prio)
            assert bool((port.queued_mask >> prio) & 1) == bool(queue)
        if not port.busy and port.link_up:
            # what Switch.receive relies on to skip the queue
            assert not port.queued_mask & ~port.paused_mask
            assert not port._control_queue


SWITCH_COUNTERS = (
    "occupied_bytes", "peak_occupancy_bytes", "forwarded_packets",
    "dropped_packets", "dropped_bytes", "marked_packets", "pause_frames_sent",
    "resume_frames_sent", "pause_frames_received", "_paused_count",
)
PORT_COUNTERS = (
    "busy", "tx_bytes", "tx_packets", "rx_bytes", "lost_bytes",
    "tx_pause_frames", "rx_pause_frames", "link_up", "link_down_drops",
    "error_rate", "corrupted_frames", "queued_mask",
)


def state(switch, stubs):
    """Everything the switch, its ports and its neighbours hold."""
    queues = switch._egress_queues
    return {
        "switch": [getattr(switch, name) for name in SWITCH_COUNTERS],
        "ledgers": (list(switch._ingress_bytes), list(switch._egress_bytes)),
        "queues": [
            [(pkt.hdr.flow_id, pkt.seq) for pkt in queues.get(slot, ())]
            for slot in range(len(switch._egress_bytes))
        ],
        "paused_upstream": dict(switch._paused_upstream),
        "marker": (switch._marker.seen, switch._marker.marked),
        "ports": [
            [getattr(port, name) for name in PORT_COUNTERS]
            + [port.paused_mask & ~(1 << UNUSED_PRIORITY)]
            + [len(port._control_queue or ())]
            + [port.total_paused_ns(prio) for prio in PRIORITIES]
            for port in switch.ports
        ],
        "received": [
            [(at, pkt.hdr.kind, pkt.hdr.flow_id, pkt.seq, pkt.ecn) for at, pkt in stub.received]
            for stub in stubs
        ],
    }


def assert_lockstep(fast_run, ref_run):
    """Step both runs together: equal state after every event, equal logs."""
    fast_engine, fast, fast_stubs, fast_log = fast_run
    ref_engine, ref, ref_stubs, ref_log = ref_run
    while fast_engine.step():
        assert ref_engine.step()
        assert_mask_exact_and_no_idle_port_owes_a_frame(fast)
        assert_mask_exact_and_no_idle_port_owes_a_frame(ref)
        assert state(fast, fast_stubs) == state(ref, ref_stubs)
    assert not ref_engine.step()
    assert event_keys(fast_log) == event_keys(ref_log)
    # the marker drew the same numbers: the streams still agree
    assert fast._marker._rng.random() == ref._marker._rng.random()


class TestCutThroughEqualsQueuedPath:
    @settings(deadline=None, max_examples=60)
    @given(ACTIONS, LINK_WINDOW)
    def test_same_events_and_state_after_every_step(self, actions, link_window):
        actions = HAIRPIN + actions
        assert_lockstep(
            scripted_switch(actions, link_window),
            scripted_switch(actions, link_window, force_queued=True),
        )

    def test_the_reference_queues_every_frame_and_the_fast_run_does_not(
        self, monkeypatch
    ):
        """The comparison above is between two different paths."""
        direct = []
        transmit = Port.transmit

        def counting(port, pkt):
            direct.append(pkt)
            transmit(port, pkt)

        monkeypatch.setattr(Port, "transmit", counting)
        actions = HAIRPIN + [
            ("data", 150 * i, i % 2, 2 + i % 2, 0, 1000) for i in range(12)
        ]
        window = (3, 400, 300)
        for force_queued in (False, True):
            del direct[:]
            engine, switch, _, _ = scripted_switch(actions, window, force_queued)
            engine.run()
            if force_queued:
                assert not direct
            else:
                assert 0 < len(direct) < switch.forwarded_packets


# --- an inert fault record vs none ------------------------------------------


#: two frames that finish serialization in the same ns on ports 3 and 2,
#: posted in that order: only the sending port's tie-break puts port 2's
#: arrival first
CROSSING = [("data", 50, 1, 3, 0, 500), ("data", 50, 0, 2, 0, 500)]


class TestInertFaultRecordEqualsUntouchedPort:
    """``_tx_done`` delivers on ``_fault is None and link_up``; a port
    whose fault record drops nothing takes the rare path to the same
    post, tie-break included, and a flap before traffic leaves no
    trace."""

    @settings(deadline=None, max_examples=40)
    @given(ACTIONS, LINK_WINDOW, st.sampled_from(sorted(INERT)))
    def test_same_events_and_state_after_every_step(
        self, actions, link_window, inert
    ):
        actions = CROSSING + HAIRPIN + actions
        touched = scripted_switch(actions, link_window, inert=inert)
        # a cleared rate leaves a record; a flap that lost no frame, none
        made = inert == "error_rate_cleared"
        assert all((port._fault is not None) == made for port in touched[1].ports)
        assert_lockstep(scripted_switch(actions, link_window), touched)


# --- pinned digests -----------------------------------------------------------


def load_bench_child():
    spec = importlib.util.spec_from_file_location("bench_child", BENCH / "child.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def digest(result):
    text = load_bench_child().canonical_json(result.to_json())
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize(
    "workload", ["clos_victim_pfc", "clos_storage_dcqcn", "fabric_storage_k8"]
)
def test_result_digest_matches_the_bench_pin(workload):
    """Digest drift fails tier-1, not only the benchmark."""
    pins = json.loads((BENCH / "digests.json").read_text())
    spec = json.loads((BENCH / "workloads" / f"{workload}.json").read_text())
    result, _ = run_scenario_inline(Scenario.from_spec(spec["scenario"]), pins["seed"])
    assert digest(result) == pins["workloads"][workload]["cells"]["run"]


@pytest.mark.parametrize("cc", ["qcn", "fncc"])
def test_switch_feedback_conserves_every_link(cc, monkeypatch):
    """The arena incast under the strict guard: a frame the switch made
    itself (QCN feedback, FNCC CNP; the only callers of
    ``Switch._enqueue``, and no bench/ workload sends one) must not
    count as received on the port it is charged to.  What the path
    computes is pinned by the ``arena`` id's qcn and fncc cells in
    tests/digests.json."""
    from repro.experiments.arena import arena_scenario

    monkeypatch.setenv("REPRO_SCALE", "smoke")
    scenario = arena_scenario("incast", cc)
    result, net = run_scenario_inline(scenario, 0)  # strict: a violation raises
    (switch,) = net.switches
    originated = switch.cnps_sent + sum(
        getattr(generator, "feedback_sent", 0) for generator in switch.cc_feedback
    )
    assert originated > 0
    assert result.invariant_report["violation_count"] == 0
    assert result.invariant_report["checks"] > 0
