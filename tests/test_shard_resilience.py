"""Supervision + checkpoint/resume: faults change nothing but the report.

The contract of DESIGN.md §15, end to end: a sharded run that loses a
worker (SIGKILL), sees one stall, degrades to serial, or is
interrupted and resumed, must produce a RunResult **bit-identical** to
the undisturbed run — counters, metrics, invariant report, flow_stats.
The only trace of the ordeal is the ``shard_report`` (absent from an
undisturbed run, so these tests pop it before comparing) and, for a
run the policy cannot save, a structured
:class:`~repro.shard.supervise.ShardRunError` instead of a hang.

The fault injection uses the ``REPRO_SHARD_CHAOS`` hook
(:mod:`repro.shard.boundary`): the targeted shard's first incarnation
SIGKILLs itself (or sleeps) right before a chosen live barrier
exchange, exactly the mid-protocol death the supervisor must absorb.
"""

import dataclasses

import pytest

from repro import units
from repro.experiments.fabric_scale import fabric_incast_scenario
from repro.invariants import InvariantConfig
from repro.runner import cache
from repro.runner.resilience import RESUME_ENV
from repro.runner.scenario import run_scenario_inline
from repro.shard import ShardingSpec
from repro.shard import runner as shard_runner
from repro.shard.boundary import SHARD_CHAOS_ENV
from repro.shard.checkpoint import SHARD_CHECKPOINT_ENV
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


def _sharded_json(monkeypatch, tmp_path, spec, chaos=None, seed=SEED):
    """One sharded run in an isolated results dir; returns
    (stripped result json, shard_report)."""
    monkeypatch.setenv(cache.RESULTS_ENV, str(tmp_path))
    if chaos is not None:
        monkeypatch.setenv(SHARD_CHAOS_ENV, chaos)
    else:
        monkeypatch.delenv(SHARD_CHAOS_ENV, raising=False)
    scenario = dataclasses.replace(_scenario(), sharding=spec)
    try:
        result, _ = run_scenario_inline(scenario, seed)
    finally:
        monkeypatch.delenv(SHARD_CHAOS_ENV, raising=False)
    data = result.to_json()
    report = data.pop("shard_report", {})
    for gauge in ("shard.count", "shard.stall_fraction"):
        data["metrics"]["gauges"].pop(gauge, None)
    return data, report


class TestWorkerKill:
    def test_sigkill_mid_run_restarts_bit_identical(
        self, monkeypatch, tmp_path, serial_json
    ):
        data, report = _sharded_json(
            monkeypatch,
            tmp_path,
            ShardingSpec(shards=2, max_restarts=2),
            chaos="kill:1:2",
        )
        assert data == serial_json
        assert report["mode"] == "sharded"
        assert report["restarts"] == 1
        (failure,) = report["failures"]
        assert failure["shard_id"] == 1
        assert failure["kind"] == "death"
        assert failure["action"] == "restart"

    def test_sigkill_at_four_shards(self, monkeypatch, tmp_path, serial_json):
        data, report = _sharded_json(
            monkeypatch,
            tmp_path,
            ShardingSpec(shards=4, max_restarts=1),
            chaos="kill:3:1",
        )
        assert data == serial_json
        assert report["restarts"] == 1
        assert report["failures"][0]["shard_id"] == 3

    def test_restart_works_without_disk_checkpointing(
        self, monkeypatch, tmp_path, serial_json
    ):
        # the replay log lives in parent memory: restarts must not
        # depend on the on-disk journal being enabled
        monkeypatch.setenv(SHARD_CHECKPOINT_ENV, "off")
        data, report = _sharded_json(
            monkeypatch,
            tmp_path,
            ShardingSpec(shards=2, max_restarts=1),
            chaos="kill:0:3",
        )
        assert data == serial_json
        assert report["restarts"] == 1


class TestDegradationLadder:
    def test_exhausted_budget_degrades_to_serial_same_answer(
        self, monkeypatch, tmp_path, serial_json
    ):
        data, report = _sharded_json(
            monkeypatch,
            tmp_path,
            ShardingSpec(shards=2, max_restarts=0),
            chaos="kill:0:2",
        )
        assert data == serial_json
        assert report["mode"] == "serial-degraded"
        assert report["failures"][0]["action"] == "degrade"
        assert shard_runner.LAST_STATS["degraded"] is True

    def test_degradation_disabled_raises_structured_error(
        self, monkeypatch, tmp_path
    ):
        monkeypatch.setenv(cache.RESULTS_ENV, str(tmp_path))
        monkeypatch.setenv(SHARD_CHAOS_ENV, "kill:0:1")
        scenario = dataclasses.replace(
            _scenario(),
            sharding=ShardingSpec(shards=2, max_restarts=0, degrade=False),
        )
        with pytest.raises(ShardRunError) as excinfo:
            run_scenario_inline(scenario, SEED)
        failure = excinfo.value.failure
        assert failure.kind == "death"
        assert failure.action == "abort"
        assert failure.shard_id == 0

    def test_stall_detection_recycles_the_silent_worker(
        self, monkeypatch, tmp_path, serial_json
    ):
        # shard 0 sleeps 60s mid-protocol; a 2s deadline must catch it
        data, report = _sharded_json(
            monkeypatch,
            tmp_path,
            ShardingSpec(shards=2, max_restarts=1, stall_timeout_s=2.0),
            chaos="stall:0:2:60",
        )
        assert data == serial_json
        assert report["failures"][0]["kind"] == "stall"
        assert report["restarts"] == 1


class TestInterruptAndResume:
    @pytest.mark.parametrize("shards", [2, 4])
    def test_parent_interrupt_then_resume_bit_identical(
        self, monkeypatch, tmp_path, serial_json, shards
    ):
        monkeypatch.setenv(cache.RESULTS_ENV, str(tmp_path))
        scenario = dataclasses.replace(
            _scenario(),
            sharding=ShardingSpec(shards=shards, checkpoint_every=2),
        )
        # ctrl-C stand-in: the parent aborts after three routed rounds
        monkeypatch.setattr(shard_runner, "_TEST_ABORT_AFTER_ROUNDS", 3)
        with pytest.raises(KeyboardInterrupt):
            run_scenario_inline(scenario, SEED)
        monkeypatch.setattr(shard_runner, "_TEST_ABORT_AFTER_ROUNDS", None)
        journals = list((tmp_path / ".checkpoints" / "shard").iterdir())
        assert len(journals) == 1  # the interrupted run left its journal

        monkeypatch.setenv(RESUME_ENV, "on")
        result, _ = run_scenario_inline(scenario, SEED)
        data = result.to_json()
        report = data.pop("shard_report")
        for gauge in ("shard.count", "shard.stall_fraction"):
            data["metrics"]["gauges"].pop(gauge, None)
        assert data == serial_json
        assert report["resumed_barriers"] == 3
        assert not journals[0].exists()  # consumed on success

    def test_without_resume_flag_the_journal_is_ignored(
        self, monkeypatch, tmp_path, serial_json
    ):
        monkeypatch.setenv(cache.RESULTS_ENV, str(tmp_path))
        scenario = dataclasses.replace(
            _scenario(), sharding=ShardingSpec(shards=2)
        )
        monkeypatch.setattr(shard_runner, "_TEST_ABORT_AFTER_ROUNDS", 2)
        with pytest.raises(KeyboardInterrupt):
            run_scenario_inline(scenario, SEED)
        monkeypatch.setattr(shard_runner, "_TEST_ABORT_AFTER_ROUNDS", None)
        monkeypatch.delenv(RESUME_ENV, raising=False)
        result, _ = run_scenario_inline(scenario, SEED)
        data = result.to_json()
        assert "shard_report" not in data  # a fresh, undisturbed run
        for gauge in ("shard.count", "shard.stall_fraction"):
            data["metrics"]["gauges"].pop(gauge, None)
        assert data == serial_json

    def test_clean_run_leaves_no_journal(self, monkeypatch, tmp_path):
        monkeypatch.setenv(cache.RESULTS_ENV, str(tmp_path))
        scenario = dataclasses.replace(
            _scenario(), sharding=ShardingSpec(shards=2)
        )
        result, _ = run_scenario_inline(scenario, SEED)
        assert result.shard_report == {}
        shard_dir = tmp_path / ".checkpoints" / "shard"
        assert not shard_dir.exists() or not list(shard_dir.iterdir())


class TestSpecKnobs:
    def test_validation(self):
        with pytest.raises(ValueError):
            ShardingSpec(shards=2, checkpoint_every=0)
        with pytest.raises(ValueError):
            ShardingSpec(shards=2, max_restarts=-1)
        with pytest.raises(ValueError):
            ShardingSpec(shards=2, stall_timeout_s=0.0)

    def test_knobs_participate_in_cache_identity(self):
        base = _scenario()
        plain = dataclasses.replace(base, sharding=ShardingSpec(shards=2))
        tuned = dataclasses.replace(
            base,
            sharding=ShardingSpec(shards=2, max_restarts=3, checkpoint=False),
        )
        assert cache.cell_key(
            "run_scenario_cell", {"spec": plain.spec(), "seed": SEED}
        ) != cache.cell_key(
            "run_scenario_cell", {"spec": tuned.spec(), "seed": SEED}
        )
