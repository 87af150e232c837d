"""Frame field semantics: a stream's header plus per-frame fields."""

import ast
import dataclasses
import json
from collections import Counter
from pathlib import Path

import pytest

import repro
from repro import runtime, units
from repro.experiments.arena import ARENA_SCENARIOS, arena_scenario
from repro.experiments.fabric_scale import fabric_incast_scenario
from repro.runner.scenario import run_scenario_inline
from repro.shard import ShardingSpec
from repro.shard.boundary import ShardContext
from repro.sim.packet import (
    CONTROL_FRAME_BYTES,
    ECN_CE,
    ECN_ECT,
    ECN_NOT_ECT,
    KIND_CNP,
    KIND_DATA,
    KIND_PAUSE,
    KIND_RESUME,
    Header,
    Packet,
)
from tests.frames import cnp_packet, data_packet, pause_frame


class TestDataPacket:
    def test_fields(self):
        pkt = data_packet(7, 1, 2, 1000, seq=42, priority=3, msg_id=5)
        hdr = pkt.hdr
        assert hdr.kind == KIND_DATA
        assert (hdr.flow_id, hdr.src, hdr.dst) == (7, 1, 2)
        assert (hdr.size, pkt.seq, hdr.priority, pkt.msg_id) == (1000, 42, 3, 5)

    def test_data_is_ecn_capable(self):
        assert data_packet(0, 1, 2, 1000, 0, 0).ecn == ECN_ECT

    def test_non_boundary_default(self):
        assert data_packet(0, 1, 2, 1000, 0, 0).msg_id == -1

    def test_ingress_scratch_starts_unset(self):
        assert data_packet(0, 1, 2, 1000, 0, 0).ingress_index == -1


class TestControlFrames:
    def test_cnp(self):
        pkt = cnp_packet(3, 9, 4, priority=6)
        assert pkt.hdr.kind == KIND_CNP
        assert pkt.hdr.size == CONTROL_FRAME_BYTES
        assert pkt.ecn == ECN_NOT_ECT
        assert (pkt.hdr.src, pkt.hdr.dst, pkt.hdr.priority) == (9, 4, 6)

    def test_pause(self):
        pkt = pause_frame(5, 2, pause=True)
        assert pkt.hdr.kind == KIND_PAUSE
        assert pkt.hdr.priority == 2  # the class it pauses
        assert pkt.hdr.src == 5

    def test_resume(self):
        pkt = pause_frame(5, 2, pause=False)
        assert pkt.hdr.kind == KIND_RESUME
        assert pkt.hdr.priority == 2

    def test_repr_is_informative(self):
        text = repr(data_packet(1, 2, 3, 1000, 4, 0))
        assert "DATA" in text
        assert "2->3" in text


class TestEcnCodepoints:
    def test_distinct(self):
        assert len({ECN_NOT_ECT, ECN_ECT, ECN_CE}) == 3

    def test_ce_marking_roundtrip(self):
        pkt = data_packet(0, 1, 2, 1000, 0, 0)
        pkt.ecn = ECN_CE
        assert pkt.ecn == ECN_CE


class TestKeywordForm:
    """``Packet(kind, flow_id=..., ...)``: the pre-header call shape
    bench/probes.py uses; each such frame gets a header of its own."""

    def test_fields_land_in_a_fresh_header(self):
        pkt = Packet(
            KIND_DATA, flow_id=7, src=1, dst=2, size=1000, seq=42, priority=3, ecn=ECN_ECT
        )
        hdr = pkt.hdr
        assert (hdr.kind, hdr.flow_id, hdr.src, hdr.dst) == (KIND_DATA, 7, 1, 2)
        assert (hdr.size, hdr.priority) == (1000, 3)
        assert (pkt.seq, pkt.ecn, pkt.msg_id, pkt.qcn_fb) == (42, ECN_ECT, -1, 0)
        assert pkt.ingress_index == -1

    def test_defaults_match_the_old_constructor(self):
        pkt = Packet(KIND_CNP, flow_id=3)
        hdr = pkt.hdr
        assert (hdr.src, hdr.dst, hdr.size, hdr.priority) == (-1, -1, CONTROL_FRAME_BYTES, 0)

    def test_header_form_takes_the_header_as_given(self):
        hdr = Header(KIND_DATA, 0, 1, 2, 1000, 0)
        assert Packet(hdr, 5).hdr is hdr

    def test_nothing_in_repro_calls_it(self):
        """Every emitter in the package passes the header it owns."""
        callers = []
        for path in sorted(Path(repro.__file__).parent.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if (
                    isinstance(node, ast.Call)
                    and getattr(node.func, "id", getattr(node.func, "attr", None))
                    == "Packet"
                    and (
                        len(node.args) > 5  # flow_id passed by position
                        or any(k.arg in (None, "flow_id") for k in node.keywords)
                    )
                ):
                    callers.append(f"{path.name}:{node.lineno}")
        assert callers == []


class TestSlots:
    def test_no_dict_overhead(self):
        """Frames and headers are slotted: the hot path allocates no __dict__."""
        hdr = Header(KIND_DATA, 0, 1, 2, 1000, 0)
        assert not hasattr(hdr, "__dict__")
        assert not hasattr(Packet(hdr), "__dict__")


# --- one header per stream, end to end ------------------------------------------


#: the one seed ``run_arena`` runs each cell at under smoke
ARENA_SEED = 6000


def duplicated_streams(switches):
    """``(switch, (kind, flow_id, src, dst))`` of every stream that
    reaches a switch's ECMP memo under more than one header."""
    duplicated = []
    for switch in switches:
        seen = Counter(
            (hdr.kind, hdr.flow_id, hdr.src, hdr.dst) for hdr in switch._egress_memo
        )
        duplicated += [(switch.name, key) for key, count in seen.items() if count > 1]
    return duplicated


class TestOneHeaderPerStream:
    """Every emitter and the shard decoder build a header per stream,
    not per frame: otherwise a switch's memo grows a key per frame."""

    @pytest.mark.parametrize("cc", ["qcn", "fncc"])
    def test_arena_smoke_cells(self, cc, monkeypatch):
        """Switch-made feedback (QCN frames, FNCC CNPs) included."""
        monkeypatch.setenv(runtime.VARS["scale"].env, "smoke")
        switch_made = 0
        for scenario_id in ARENA_SCENARIOS:
            _, net = run_scenario_inline(arena_scenario(scenario_id, cc), ARENA_SEED)
            assert duplicated_streams(net.switches) == []
            switch_ids = {switch.device_id for switch in net.switches}
            switch_made += sum(
                hdr.src in switch_ids
                for switch in net.switches
                for hdr in switch._egress_memo
            )
        assert switch_made > 0  # the switch-side generators' streams were seen

    def test_two_shard_run(self, monkeypatch, tmp_path):
        """Decoded boundary frames: one header per stream per shard."""
        real_run = ShardContext.run

        def run_then_report(self, *args, **kwargs):
            real_run(self, *args, **kwargs)
            report = {
                "duplicated": duplicated_streams(self.net.switches),
                "decoded": len(self._headers),
            }
            (tmp_path / f"shard{self.shard_id}.json").write_text(json.dumps(report))

        # workers are forked, so they inherit the patch
        monkeypatch.setattr(ShardContext, "run", run_then_report)
        monkeypatch.setenv(runtime.VARS["results_dir"].env, str(tmp_path))
        scenario = dataclasses.replace(
            fabric_incast_scenario(k=4, duration_ns=units.us(200)),
            sharding=ShardingSpec(shards=2, degrade=False),
        )
        result, net = run_scenario_inline(scenario, 0)
        assert net is None  # it did run sharded
        reports = [
            json.loads((tmp_path / f"shard{shard}.json").read_text())
            for shard in (0, 1)
        ]
        assert [report["duplicated"] for report in reports] == [[], []]
        assert all(report["decoded"] > 0 for report in reports)
