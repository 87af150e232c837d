"""A lost shard worker changes nothing but the report.

The contract of DESIGN.md §14 ("When a worker is lost"), end to end: a
sharded run whose worker dies (SIGKILL), stalls past the deadline or
breaks the sync protocol is re-executed serially and must produce a
RunResult **bit-identical** to the undisturbed run — counters, metrics,
invariant report, flow_stats.  The only trace of the ordeal is the
``shard_report`` (absent from an undisturbed run, so these tests pop it
before comparing) or, with degradation off, a structured
:class:`~repro.shard.supervise.ShardRunError` instead of a hang.

The faults come from outside the program: ``shard_worker_main`` is
wrapped (workers are forked, so they inherit the patch) to hand the
worker a proxy connection that misbehaves right before its Nth
``send`` — exactly the mid-protocol failure the parent must absorb.
"""

import dataclasses
import json
import multiprocessing
import os
import signal
import time

import pytest

from repro import runtime, units
from repro.experiments.fabric_scale import fabric_incast_scenario
from repro.faults.plan import FaultPlan, WatchdogConfig
from repro.invariants import InvariantConfig, InvariantViolation
from repro.runner import cache
from repro.runner.scenario import run_scenario_inline
from repro.runner.spec import Scenario
from repro.shard import ShardingSpec, can_shard
from repro.shard import runner as shard_runner
from repro.shard.supervise import ShardRunError


def _scenario():
    return dataclasses.replace(
        fabric_incast_scenario(k=4, duration_ns=units.us(200)),
        warmup_ns=units.us(50),
        invariants=InvariantConfig(mode="strict"),
        label="shard-resilience",
    )


SEED = 7


@pytest.fixture(scope="module")
def serial_json():
    result, _ = run_scenario_inline(_scenario(), SEED)
    return result.to_json()


# --- fault injection ----------------------------------------------------------


def _kill(conn):
    os.kill(os.getpid(), signal.SIGKILL)


def _stall(conn):
    time.sleep(60)


def _desync(conn):
    conn.send(("sync", -1, []))


def _crash(conn):
    raise RuntimeError("injected application error")


def _violate(conn):
    raise InvariantViolation("injected", "shard0", 0, "from the test")


class _FaultyConn:
    """The worker's end of the pipe; ``fault(conn)`` runs right before
    the ``nth`` send (1-based: send N is barrier exchange N)."""

    def __init__(self, conn, fault, nth):
        self._conn = conn
        self._fault = fault
        self._nth = nth
        self._sends = 0

    def send(self, message):
        self._sends += 1
        if self._sends == self._nth:
            self._fault(self._conn)
        self._conn.send(message)

    def recv(self):
        return self._conn.recv()

    def close(self):
        self._conn.close()


def _inject(monkeypatch, fault, shard, nth):
    """Make shard ``shard``'s worker run ``fault`` before its nth send."""
    real_main = shard_runner.shard_worker_main

    def faulty_main(conn, spec, seed, plan, shard_id, window_ns):
        if shard_id == shard:
            conn = _FaultyConn(conn, fault, nth)
        real_main(conn, spec, seed, plan, shard_id, window_ns)

    monkeypatch.setattr(shard_runner, "shard_worker_main", faulty_main)


def _sharded_json(monkeypatch, tmp_path, spec):
    """One sharded run in an isolated results dir; returns
    (stripped result json, shard_report)."""
    monkeypatch.setenv(runtime.VARS["results_dir"].env, str(tmp_path))
    scenario = dataclasses.replace(_scenario(), sharding=spec)
    result, _ = run_scenario_inline(scenario, SEED)
    data = result.to_json()
    report = data.pop("shard_report", {})
    for gauge in ("shard.count", "shard.stall_fraction"):
        data["metrics"]["gauges"].pop(gauge, None)
    return data, report


def _assert_degraded(report, shards, shard_id, kind):
    assert report["mode"] == "serial-degraded"
    assert report["shards"] == shards
    assert set(report) == {"mode", "shards", "failures"}
    (failure,) = report["failures"]
    assert failure["shard_id"] == shard_id
    assert failure["kind"] == kind
    assert failure["action"] == "degrade"
    assert shard_runner.LAST_STATS["degraded"] is True
    assert not multiprocessing.active_children()


class TestWorkerKill:
    def test_sigkill_mid_run_degrades_bit_identical(
        self, monkeypatch, tmp_path, serial_json
    ):
        _inject(monkeypatch, _kill, shard=1, nth=3)
        data, report = _sharded_json(
            monkeypatch, tmp_path, ShardingSpec(shards=2)
        )
        assert data == serial_json
        _assert_degraded(report, shards=2, shard_id=1, kind="death")
        assert report["failures"][0]["exitcode"] == -signal.SIGKILL

    def test_sigkill_at_four_shards(self, monkeypatch, tmp_path, serial_json):
        _inject(monkeypatch, _kill, shard=3, nth=2)
        data, report = _sharded_json(
            monkeypatch, tmp_path, ShardingSpec(shards=4)
        )
        assert data == serial_json
        _assert_degraded(report, shards=4, shard_id=3, kind="death")


class TestDegradationLadder:
    """The two rungs: degrade to serial, or abort."""

    def test_degradation_disabled_raises_structured_error(
        self, monkeypatch, tmp_path
    ):
        monkeypatch.setenv(runtime.VARS["results_dir"].env, str(tmp_path))
        _inject(monkeypatch, _kill, shard=0, nth=2)
        scenario = dataclasses.replace(
            _scenario(), sharding=ShardingSpec(shards=2, degrade=False)
        )
        with pytest.raises(ShardRunError) as excinfo:
            run_scenario_inline(scenario, SEED)
        failure = excinfo.value.failure
        assert failure.kind == "death"
        assert failure.action == "abort"
        assert failure.shard_id == 0
        assert not multiprocessing.active_children()

    def test_stall_past_the_deadline_degrades(
        self, monkeypatch, tmp_path, serial_json
    ):
        # shard 0 sleeps 60s mid-protocol; a 2s deadline must catch it,
        # within the deadline plus a poll (and the serial rerun)
        _inject(monkeypatch, _stall, shard=0, nth=3)
        started = time.monotonic()
        data, report = _sharded_json(
            monkeypatch, tmp_path, ShardingSpec(shards=2, stall_timeout_s=2.0)
        )
        assert time.monotonic() - started < 10
        assert data == serial_json
        _assert_degraded(report, shards=2, shard_id=0, kind="stall")

    def test_stall_with_degradation_disabled_aborts(self, monkeypatch, tmp_path):
        monkeypatch.setenv(runtime.VARS["results_dir"].env, str(tmp_path))
        _inject(monkeypatch, _stall, shard=1, nth=1)
        scenario = dataclasses.replace(
            _scenario(),
            sharding=ShardingSpec(shards=2, degrade=False, stall_timeout_s=1.0),
        )
        with pytest.raises(ShardRunError) as excinfo:
            run_scenario_inline(scenario, SEED)
        assert excinfo.value.failure.kind == "stall"
        assert excinfo.value.failure.barrier_ns is None

    @pytest.mark.parametrize("degrade", [True, False])
    def test_protocol_desync(self, monkeypatch, tmp_path, serial_json, degrade):
        # a sync for the wrong barrier ahead of the real third one
        _inject(monkeypatch, _desync, shard=1, nth=3)
        spec = ShardingSpec(shards=2, degrade=degrade)
        if not degrade:
            with pytest.raises(ShardRunError, match="expected sync @"):
                _sharded_json(monkeypatch, tmp_path, spec)
            return
        data, report = _sharded_json(monkeypatch, tmp_path, spec)
        assert data == serial_json
        _assert_degraded(report, shards=2, shard_id=1, kind="protocol")


class TestWorkerErrorsAreNotDegraded:
    """An application error is deterministic: the serial rerun would
    only reproduce it, so it is re-raised with the worker's traceback."""

    def test_application_error_is_reraised(self, monkeypatch, tmp_path):
        _inject(monkeypatch, _crash, shard=1, nth=2)
        with pytest.raises(RuntimeError, match="shard 1 worker failed") as info:
            _sharded_json(monkeypatch, tmp_path, ShardingSpec(shards=2))
        assert "injected application error" in str(info.value)
        assert not isinstance(info.value, ShardRunError)
        assert not multiprocessing.active_children()

    def test_strict_invariant_violation_is_reraised(self, monkeypatch, tmp_path):
        _inject(monkeypatch, _violate, shard=0, nth=2)
        with pytest.raises(InvariantViolation, match="injected"):
            _sharded_json(monkeypatch, tmp_path, ShardingSpec(shards=2))


class TestParentInterrupt:
    def test_interrupt_leaves_no_child_and_no_file(self, monkeypatch, tmp_path):
        monkeypatch.setenv(runtime.VARS["results_dir"].env, str(tmp_path))
        real_acks = shard_runner.ShardSupervisor._send_acks

        def interrupted_acks(self, barrier, inboxes):
            # ctrl-C stand-in: mid-run, with every worker at a barrier
            if self.rounds == 3:
                raise KeyboardInterrupt
            real_acks(self, barrier, inboxes)

        monkeypatch.setattr(
            shard_runner.ShardSupervisor, "_send_acks", interrupted_acks
        )
        scenario = dataclasses.replace(
            _scenario(), sharding=ShardingSpec(shards=2)
        )
        with pytest.raises(KeyboardInterrupt):
            run_scenario_inline(scenario, SEED)
        assert not multiprocessing.active_children()
        assert not [path for path in tmp_path.rglob("*") if path.is_file()]


class TestSpecKnobs:
    def test_validation(self):
        with pytest.raises(ValueError):
            ShardingSpec(shards=2, stall_timeout_s=0.0)
        assert [f.name for f in dataclasses.fields(ShardingSpec)] == [
            "shards", "window_ns", "degrade", "stall_timeout_s",
        ]

    def test_knobs_participate_in_cache_identity(self):
        base = _scenario()

        def key(**knobs):
            scenario = dataclasses.replace(
                base, sharding=ShardingSpec(shards=2, **knobs)
            )
            return cache.cell_key(
                "run_scenario_cell", {"spec": scenario.spec(), "seed": SEED}
            )

        assert len({key(), key(degrade=False), key(stall_timeout_s=5.0)}) == 3

    @pytest.mark.parametrize(
        "name", ["fabric_storage_k8_2shard", "probe_idle_barrier"]
    )
    def test_frozen_workload_specs_still_load(self, name):
        # written when ShardingSpec had seven fields; not editable here
        path = os.path.join(
            os.path.dirname(__file__), "..", "bench", "workloads", f"{name}.json"
        )
        with open(path) as handle:
            spec = json.load(handle)["scenario"]
        assert spec["sharding"]["max_restarts"] == 1  # still the old file
        scenario = Scenario.from_spec(spec)
        assert scenario.sharding == ShardingSpec(shards=2)
        assert set(scenario.spec()["sharding"]) == {
            "__kind__", "shards", "window_ns", "degrade", "stall_timeout_s",
        }

    @pytest.mark.parametrize(
        "key, value",
        [
            ("checkpoint", False),
            ("checkpoint_every", 1),
            ("max_restarts", 0),
            ("max_restarts", True),
        ],
    )
    def test_retired_knob_with_a_live_value_fails_loudly(self, key, value):
        spec = dataclasses.replace(
            _scenario(), sharding=ShardingSpec(shards=2)
        ).spec()
        spec["sharding"][key] = value
        with pytest.raises(ValueError, match=f"ShardingSpec.{key} was removed"):
            Scenario.from_spec(spec)


class TestWatchdogStaysSerial:
    """The deadlock watchdog walks a global wait-for graph, so a plan
    that asks for one is not sharded — it used to be, minus its scans."""

    def test_sharding_request_runs_serial_and_equals_serial(self):
        watched = dataclasses.replace(
            _scenario(), faults=FaultPlan(watchdog=WatchdogConfig())
        )
        serial, _ = run_scenario_inline(watched, SEED)
        assert serial.invariant_report["watchdog"]["scans"] > 0
        asked = dataclasses.replace(watched, sharding=ShardingSpec(shards=2))
        assert not can_shard(asked)
        result, net = run_scenario_inline(asked, SEED)
        assert net is not None  # the serial path returns the live network
        assert result.to_json() == serial.to_json()
