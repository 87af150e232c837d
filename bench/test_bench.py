"""Self-test of the benchmark harness (not collected by tier-1).

    PYTHONPATH=src python -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import child  # noqa: E402
import compare  # noqa: E402
import probes  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


# --- canonical form ----------------------------------------------------------


def result_json():
    return {
        "label": "x",
        "seed": 3,
        "counters": {"drops": 0.0},
        "metrics": {
            "counters": {"link.tx_packets": 10.0, "shard.fake_counter": 1},
            "gauges": {
                "shard.count": 2.0,
                "shard.stall_fraction": 0.4,
                "switch.peak_occupancy_bytes": 2316000.0,
                "rp.alpha": 0.5,
            },
            "histograms": {},
        },
        "flow_stats": [{"fct_ns": 12.0}],
        "shard_report": {"restarts": 1},
    }


def test_canonical_drops_exactly_the_host_time_fields():
    original = result_json()
    before = copy.deepcopy(original)
    out = child.canonical(original)
    assert original == before, "canonical() must not edit the result"
    assert "shard_report" not in out
    assert out["metrics"]["gauges"] == {
        "switch.peak_occupancy_bytes": 2316000,
        "rp.alpha": 0.5,
    }
    # everything else survives untouched, shard-named counters included
    expected = copy.deepcopy(before)
    del expected["shard_report"]
    expected["metrics"]["gauges"] = out["metrics"]["gauges"]
    assert out == expected


def test_serial_and_sharded_forms_hash_equal():
    sharded = result_json()
    serial = result_json()
    del serial["shard_report"]
    serial["metrics"]["gauges"] = {
        "switch.peak_occupancy_bytes": 2316000,
        "rp.alpha": 0.5,
    }
    assert child.canonical_json(sharded) == child.canonical_json(serial)
    serial["counters"]["drops"] = 1.0
    assert child.canonical_json(sharded) != child.canonical_json(serial)


# --- compare.py verdicts ------------------------------------------------------


def stat(values, rel=0.07, floor=0.0):
    return {**run.summarize(list(values)), "bound": {"rel": rel, "abs": floor}}


def test_verdict_ok_worse_unresolved():
    a = stat([1.00, 1.01, 0.99, 1.00, 1.02])
    assert compare.verdict(a, stat([1.03, 1.04, 1.02, 1.03, 1.05]), 0.07, 0.0) == "ok"
    assert compare.verdict(a, stat([1.10, 1.11, 1.09, 1.10, 1.12]), 0.07, 0.0) == "worse"
    noisy = stat([1.0, 1.3, 0.8, 1.1, 0.9])
    assert compare.verdict(a, noisy, 0.07, 0.0) == "unresolved"
    assert compare.verdict(noisy, a, 0.07, 0.0) == "unresolved"
    # spread wider than the bound, but every run of B beats every run of A
    fast = stat([0.5, 0.7, 0.4, 0.6, 0.5])
    assert compare.verdict(a, fast, 0.07, 0.0) == "ok"


def test_verdict_absolute_floors():
    # setup_s: +25% is inside the 10 ms floor, +75% is not
    a = stat([0.020, 0.020, 0.021, 0.019, 0.020])
    assert compare.verdict(a, stat([0.025, 0.025, 0.026, 0.024, 0.025]), 0.10, 0.010) == "ok"
    assert compare.verdict(a, stat([0.035, 0.035, 0.036, 0.034, 0.035]), 0.10, 0.010) == "worse"
    # peak_rss_mb: +1.9 MB on 27 MB is 7% but inside the 2 MB floor
    rss = stat([27.0, 27.1, 27.0, 26.9, 27.0])
    assert compare.verdict(rss, stat([28.9, 29.0, 28.9, 28.8, 28.9]), 0.05, 2.0) == "ok"
    assert compare.verdict(rss, stat([29.5, 29.6, 29.5, 29.4, 29.5]), 0.05, 2.0) == "worse"


def latest(values, nproc=2, comparable=True, events=100):
    return {
        "comparable": comparable,
        "host": {"nproc": nproc, "python": "3.11.7"},
        "workloads": {
            "w": {
                "attempted": 5,
                "failed": 0,
                "digests": {"run": "abc"},
                "exact": ["engine.events"],
                "per_layer": {"engine.events": events, "engine.loop_s": 1.0},
                "end_to_end": {"wall_s": stat(values)},
            }
        },
    }


def test_compare_rows_counts_and_host_guard():
    a = latest([1.0, 1.01, 0.99, 1.0, 1.02])
    rows, changed = compare.compare(a, copy.deepcopy(a))
    assert [r[-1] for r in rows] == ["ok"] and changed == []
    assert rows[0][:2] == ["w", "wall_s"]
    rows, changed = compare.compare(a, latest([1.0, 1.01, 0.99, 1.0, 1.02], events=55))
    assert changed == ["w: engine.events 100 -> 55"]
    for other in (
        latest([1.0, 1.01, 0.99, 1.0, 1.02], nproc=1),
        latest([1.0, 1.01, 0.99, 1.0, 1.02], comparable=False),
    ):
        rows, _ = compare.compare(a, other)
        assert [r[-1] for r in rows] == ["unresolved"]


# --- null on a missing target -------------------------------------------------


def test_missing_wrap_target_is_null_with_one_warning(capsys):
    rec = spans.Recorder("t")
    assert rec.wrap("json:no_such_function", "gone.fn") is False
    assert rec.wrap("no_such_package.module:fn", "gone.module") is False
    assert rec.total_s("gone.fn") is None and rec.self_s("gone.module") is None
    assert capsys.readouterr().err.count("warning") == 2
    # a target that resolves but is never called is 0, not null
    assert rec.wrap("json:dumps", "json.dumps") is True
    try:
        assert rec.total_s("json.dumps") == 0.0
        json.dumps({})
        assert rec.total_s("json.dumps") > 0.0 and len(rec.spans) == 1
    finally:
        json.dumps = json.dumps.__wrapped__


def test_span_self_time_excludes_children():
    rec = spans.Recorder("t")
    with rec.span("outer"):
        with rec.span("inner"):
            pass
    outer, inner = rec.spans
    assert inner["parent"] == outer["id"] and outer["parent"] is None
    assert rec.self_s("outer") == pytest.approx(
        rec.total_s("outer") - rec.total_s("inner")
    )


def test_probe_with_a_missing_target_reports_null(monkeypatch, capsys):
    asked = []
    monkeypatch.setattr(probes, "resolve_or_none", asked.append)
    assert probes.run_probe("engine.probe_ns_per_event", probes.engine_probe) is None
    assert asked == ["repro.engine:EventScheduler"]

    def broken():
        raise TypeError("schedule() takes 2 positional arguments")

    assert probes.run_probe("x", broken) is None
    assert "x: probe failed (TypeError" in capsys.readouterr().err


# --- the contract and the output schema ---------------------------------------


def test_contract_lists_what_run_py_measures():
    assert [m["name"] for m in CONTRACT["per_layer"]] == list(run.LAYERS)
    assert {m["name"] for m in CONTRACT["end_to_end"]} == set(run.BOUNDS)
    # the full run measures ALL; the contract leaves the sharded workload
    # to its serial twin
    assert sorted(w["name"] for w in CONTRACT["workloads"]) == sorted(run.CONTRACT)
    assert set(run.ALL) - set(run.CONTRACT) == {run.SHARD}
    pins = json.loads(run.PINS.read_text())
    for name in run.ALL:
        file = BENCH / "workloads" / f"{name}.json"
        assert run.sha256_file(file) == pins["workloads"][name]["spec_sha256"]
    assert (
        pins["workloads"]["fabric_storage_k8"]["cells"]
        == pins["workloads"]["fabric_storage_k8_2shard"]["cells"]
    )


def test_sharded_layers_fold_into_the_serial_twin():
    record = {"per_layer": {"engine.events": 5, "shard.barriers": None},
              "attempted": 6, "failed": 0, "correct": True}
    sharded = {"per_layer": {"engine.events": 9, "shard.barriers": 1600},
               "attempted": 11, "failed": 1, "correct": False}
    run.fold_sharded(record, sharded)
    assert record == {"per_layer": {"engine.events": 5, "shard.barriers": 1600},
                      "attempted": 17, "failed": 1, "correct": False}


def test_without_the_program_there_is_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "clos_victim_pfc",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0 and done.stdout.strip() == ""


def test_smoke_run_schema():
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke", "--seed", "0",
         "--workloads", f"{run.VICTIM},{run.SHARD},{run.SWEEP}"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads((run.OUT / "smoke.json").read_text())
    assert result["comparable"] is False and result["schema"] == 1
    assert set(result["host"]) == {
        "nproc", "python", "platform", "cpu_model", "loadavg_at_start", "git_commit",
    }
    e2e_names = {m["name"] for m in CONTRACT["end_to_end"]}
    for name in (run.VICTIM, run.SHARD, run.SWEEP):
        record = result["workloads"][name]
        assert record["failed"] == 0 and record["correct"] is True
        assert record["attempted"] >= 2 + 2 + 2
        assert set(record["end_to_end"]) == e2e_names
        for metric in e2e_names:
            stat_ = record["end_to_end"][metric]
            assert set(stat_) == {"median", "q1", "q3", "n", "values", "bound"}
            assert stat_["n"] == 2 and stat_["median"] > 0
        assert list(record["per_layer"]) == list(run.LAYERS)
        for metric, (_, assigned) in run.LAYERS.items():
            if name in assigned:
                assert record["per_layer"][metric] is not None, (name, metric)
        assert (run.OUT / f"trace-{name}.json").is_file()
        # the contract line carries a number for every listed metric
        line = json.loads(run.contract_line(record, CONTRACT, trace=True))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert set(line["metrics"]) == set(run.LAYERS)
        line = json.loads(run.contract_line(record, CONTRACT, trace=False))
        assert set(line["metrics"]) == e2e_names
    trace = json.loads((run.OUT / f"trace-{run.VICTIM}.json").read_text())
    assert {"id", "name", "parent", "run", "start_s", "end_s"} == set(trace["spans"][0])
