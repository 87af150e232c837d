"""The repo benchmark: one command, every metric, every digest.

Full run (writes ``bench/out/latest.json``, or ``smoke.json`` with
``--smoke``, and one span file per workload; prints every metric by
name and unit)::

    python bench/run.py [--seed 0] [--repeats 5] [--workloads a,b]
        [--no-trace] [--smoke] [--pin]

One workload, as the benchmark contract in ``BENCHMARK.json`` calls it
(prints one JSON object as the last line)::

    python bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The full run measures six workloads.  ``BENCHMARK.json`` lists five:
the wall of ``fabric_storage_k8_2shard`` is set by the wake-up latency
of 1600 barrier rounds and is too unsteady on a shared host to carry a
bound, so under the contract it rides on ``fabric_storage_k8``, as a
sharded == serial digest check and as the ``shard.*`` per-layer metrics.

Every run of a workload is a fresh ``child.py`` process, one at a time,
with every ``REPRO_*`` variable cleared and ``REPRO_RESULTS_DIR`` set
to a fresh directory under ``bench/out/tmp``.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
PINS = BENCH / "digests.json"

VICTIM = "clos_victim_pfc"
SHARD = "fabric_storage_k8_2shard"
SWEEP = "victim_sweep_dcqcn"
GUARDED = "fabric_1024_guarded"
#: the serial twin of SHARD: under the contract it carries SHARD's checks
TWIN = "fabric_storage_k8"
SERIAL = (VICTIM, "clos_storage_dcqcn", TWIN, GUARDED)
ALL = SERIAL + (SHARD, SWEEP)
#: the workloads BENCHMARK.json lists
CONTRACT = tuple(name for name in ALL if name != SHARD)

#: per-layer metric -> (exact count?, workloads it must be non-null on).
#: Names, units and directions live in BENCHMARK.json; test_bench.py
#: holds the two lists equal.
LAYERS: Dict[str, tuple] = {
    "engine.events": (True, SERIAL + (SHARD,)),
    "engine.loop_s": (False, SERIAL),
    "engine.callback_s": (False, SERIAL),
    "engine.dispatch_overhead_s": (False, SERIAL),
    "engine.sim_us_per_wall_s": (False, SERIAL),
    "engine.events_per_pkt_hop": (True, SERIAL + (SHARD,)),
    "engine.probe_ns_per_event": (False, (VICTIM,)),
    "sim.switch.receive_s": (False, SERIAL),
    "sim.switch.receive_calls": (True, SERIAL),
    "sim.switch.forwarded": (True, ALL),
    "sim.switch.ecn_marked": (True, ALL),
    "sim.switch.probe_ns_per_pkt": (False, (VICTIM,)),
    "sim.link.tx_done_s": (False, SERIAL),
    "sim.link.tx_done_calls": (True, SERIAL),
    "sim.link.tx_packets": (True, ALL),
    "sim.link.pause_tx": (True, ALL),
    "sim.nic.kick_s": (False, SERIAL),
    "sim.nic.kick_calls": (True, SERIAL),
    "sim.nic.receive_s": (False, SERIAL),
    "sim.nic.receive_calls": (True, SERIAL),
    "sim.nic.cnp_tx": (True, ALL),
    "sim.nic.data_rx": (True, ALL),
    "cc.timer_s": (False, SERIAL),
    "cc.timer_calls": (True, SERIAL),
    "sim.other_s": (False, SERIAL),
    "fabric.build_s": (False, SERIAL),
    "fabric.route_install_s": (False, SERIAL),
    "fabric.devices": (True, SERIAL),
    "invariants.install_s": (False, (GUARDED,)),
    "invariants.sweep_s": (False, (GUARDED,)),
    "invariants.finalize_s": (False, (GUARDED,)),
    "invariants.checks": (True, (GUARDED,)),
    "telemetry.collect_s": (False, SERIAL),
    "telemetry.flow_rows": (True, ALL),
    "runner.scenario.self_s": (False, SERIAL),
    "runner.serialise_s": (False, ALL),
    "runner.result_bytes": (True, ALL),
    "runner.execute_s": (False, (SWEEP,)),
    "runner.cells_computed": (True, (SWEEP,)),
    "runner.cells_cached": (True, (SWEEP,)),
    "runner.cache_store_s": (False, (SWEEP,)),
    "runner.cache_hit_wall_s": (False, (SWEEP,)),
    "shard.run_s": (False, (SHARD,)),
    "shard.merge_s": (False, (SHARD,)),
    "shard.stall_fraction": (False, (SHARD,)),
    "shard.barriers": (True, (SHARD,)),
    "shard.messages": (True, (SHARD,)),
    "shard.busy_max_s": (False, (SHARD,)),
    "shard.checkpoint_s": (False, (SHARD,)),
    "shard.speedup_vs_serial": (False, (SHARD,)),
    "shard.speedup_compute_bound": (False, (SHARD,)),
    "shard.codec_ns_per_pkt": (False, (SHARD,)),
    "shard.idle_barrier_us": (False, (SHARD,)),
    "trace.overhead_frac": (False, ALL),
}

#: probes.py probe names, reported under this workload only
PROBES = {VICTIM: ("engine", "switch"), SHARD: ("codec",)}

#: compare.py's regression bounds: metric -> (relative, absolute floor),
#: first for single-process workloads, then for the two that spawn
BOUNDS = {
    "wall_s": ((0.07, 0.0), (0.10, 0.0)),
    "setup_s": ((0.10, 0.010), (0.20, 0.050)),
    "peak_rss_mb": ((0.05, 2.0), (0.05, 2.0)),
}

#: a recorded result needs at least this many timed runs
MIN_REPEATS = 5
#: untraced runs behind trace.overhead_frac / shard.speedup_vs_serial
#: when the invocation measures no end-to-end metric
BASE_RUNS = 3
SMOKE_SCALE_DOWN = 20


class RunFailed(Exception):
    """One child run that raised, hung, or printed no result."""


def summarize(values: List[float]) -> Dict[str, Any]:
    """Median, both quartiles and the sample count: nothing further is
    supported by five to fifteen samples."""
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "values": values,
    }


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def host_facts() -> Dict[str, Any]:
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.lower().startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True,
        )
        commit = done.stdout.strip() or None
    load = os.getloadavg()
    nproc = os.cpu_count() or 1
    if load[0] > 0.5 * nproc:
        print(
            f"bench: warning: 1-min load {load[0]:.2f} exceeds 0.5 per core "
            f"({nproc} cores); timings will be noisy",
            file=sys.stderr,
        )
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_model": cpu,
        "loadavg_at_start": list(load),
        "git_commit": commit,
    }


class Harness:
    """Runs children for one workload and keeps the books.

    Timed, set-up and traced runs use the pinned simulation seed, so
    their host times compare across invocations and every one of them
    is held to the pinned digest.  ``check_seed`` (``--seed``) is the
    simulation seed of the check run that opens the invocation.
    """

    def __init__(self, name: str, check_seed: int, smoke: bool, pins: Dict[str, Any]):
        self.name = name
        self.check_seed = check_seed
        self.smoke = smoke
        self.file = BENCH / "workloads" / f"{name}.json"
        self.spec_sha256 = sha256_file(self.file)
        self.workload = json.loads(self.file.read_text())
        self.timed_seed = pins.get("seed", 0)
        self.pin = None if smoke else pins.get("workloads", {}).get(name)
        self.attempted = 0
        self.failures: List[str] = []
        #: simulation seed -> the digests every full-horizon run at that
        #: seed must show: the pin where there is one, else the first run
        self.references: Dict[int, Dict[str, str]] = {}
        if self.pin is not None:
            self.references[self.timed_seed] = self.pin["cells"]
            if self.spec_sha256 != self.pin["spec_sha256"]:
                self.fail("workload file differs from the pinned spec: re-pin")
        #: the two walls behind shard.speedup_vs_serial
        self.speedup_base: Optional[Dict[str, float]] = None
        self.tmp_root = OUT / "tmp"

    def fail(self, message: str) -> None:
        self.failures.append(message)
        print(f"bench: {self.name}: FAILED: {message}", file=sys.stderr)

    # --- one child --------------------------------------------------------

    def _spawn(self, argv: List[str], results_dir: Path, timeout: float) -> Dict[str, Any]:
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env["REPRO_RESULTS_DIR"] = str(results_dir)
        env["PYTHONPATH"] = str(SRC)
        # hash randomisation reorders sets of strings between processes,
        # which moves timings, never results
        env["PYTHONHASHSEED"] = "0"
        # its own process group, so that a child that hangs is stopped
        # together with the pool or shard workers it started
        proc = subprocess.Popen(
            [sys.executable] + argv, env=env, cwd=str(ROOT), text=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True,
        )
        try:
            stdout, stderr = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise RunFailed(f"no result within {timeout:.0f} s") from None
        if proc.returncode != 0:
            tail = stderr.strip().splitlines()[-1:] or ["no stderr"]
            raise RunFailed(f"exit code {proc.returncode}: {tail[0]}")
        sys.stderr.write(stderr)
        try:
            return json.loads(stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            raise RunFailed("child printed no JSON result") from None

    def run(self, *flags: str, seed: Optional[int] = None, file: Optional[Path] = None,
            results_dir: Optional[Path] = None, check: bool = True) -> Optional[Dict[str, Any]]:
        """One counted child run; ``None`` (and a failure line) if it failed.

        ``check`` applies the result rules: no invariant violation, no
        failed sweep cell, the digests of this seed's reference, and a
        wall within 10x the pinned median.
        """
        self.attempted += 1
        seed = self.timed_seed if seed is None else seed
        self.tmp_root.mkdir(parents=True, exist_ok=True)
        own_dir = results_dir is None
        if own_dir:
            results_dir = Path(tempfile.mkdtemp(dir=self.tmp_root, prefix="results-"))
        argv = [str(BENCH / "child.py"), str(file or self.file), "--seed", str(seed)]
        if self.smoke:
            argv += ["--scale-down", str(SMOKE_SCALE_DOWN)]
        limit = 10 * self.pin["wall_s"] if self.pin else None
        try:
            out = self._spawn(argv + list(flags), results_dir, (limit or 120) + 30)
            if check:
                if out["violations"] or out["cell_failures"]:
                    raise RunFailed(
                        f"{out['violations']} invariant violations, "
                        f"{out['cell_failures']} failed cells"
                    )
                if limit is not None and out["wall_s"] > limit:
                    raise RunFailed(f"wall {out['wall_s']:.2f} s exceeds 10x the pinned median")
                if out["digests"] != self.references.setdefault(seed, out["digests"]):
                    pinned = self.pin is not None and seed == self.timed_seed
                    raise RunFailed(
                        f"DIGEST MISMATCH at seed {seed}: result differs from "
                        + ("bench/digests.json" if pinned else "the first run at this seed")
                    )
            return out
        except RunFailed as exc:
            self.fail(f"{' '.join(flags) or 'run'}: {exc}")
            return None
        finally:
            if own_dir:
                shutil.rmtree(results_dir, ignore_errors=True)

    def probes(self, names) -> Dict[str, Any]:
        try:
            return self._spawn([str(BENCH / "probes.py"), *names], self.tmp_root, 120)
        except RunFailed as exc:
            print(f"bench: warning: probes {names}: {exc}", file=sys.stderr)
            return {}

    # --- phases -----------------------------------------------------------

    def check_run(self) -> None:
        """The discarded first run, at ``--seed``.

        Serial; a workload with a ShardingSpec, and its serial twin, then
        run sharded at the same seed and must reproduce the serial digests.
        """
        self.run("--serial", seed=self.check_seed)
        if "sharding" in self.workload.get("scenario", {}):
            self.run(seed=self.check_seed)
        elif self.name == TWIN:
            self.run(seed=self.check_seed, file=BENCH / "workloads" / f"{SHARD}.json")

    def repeat(self, flags, repeats: Optional[int], seconds: float, check=True) -> List[Dict]:
        """``repeats`` runs, or at least MIN_REPEATS runs and ``seconds``."""
        outs = []
        started = time.monotonic()
        while (
            len(outs) < repeats
            if repeats is not None
            else len(outs) < MIN_REPEATS or time.monotonic() - started < seconds
        ):
            out = self.run(*flags, check=check)
            if out is None:
                if len(self.failures) >= 3:
                    break  # a broken workload, not noise: stop burning time
                continue
            outs.append(out)
        return outs

    def end_to_end(self, repeats: Optional[int], seconds: float) -> Dict[str, Any]:
        timed = self.repeat((), repeats, 0.8 * seconds)
        setups = self.repeat(("--zero-horizon",), len(timed), 0, check=False)
        if not timed or not setups:
            return {}
        multi = bool(self.workload.get("multiprocess"))
        values = {
            "wall_s": [o["wall_s"] for o in timed],
            "setup_s": [o["wall_s"] for o in setups],
            "peak_rss_mb": [o["peak_rss_mb"] for o in timed],
        }
        return {
            metric: {
                **summarize(samples),
                "bound": dict(zip(("rel", "abs"), BOUNDS[metric][multi])),
            }
            for metric, samples in values.items()
        }

    def per_layer(self, base_wall: Optional[float]) -> Dict[str, Any]:
        """One traced run, the probes, and the runs they are read against."""
        layers: Dict[str, Any] = dict.fromkeys(LAYERS)
        if base_wall is None:
            base = self.repeat((), BASE_RUNS, 0)
            base_wall = statistics.median(o["wall_s"] for o in base) if base else None
        OUT.mkdir(parents=True, exist_ok=True)
        spans = OUT / f"trace-{self.name}.json"
        results_dir = Path(tempfile.mkdtemp(dir=self.tmp_root, prefix="results-"))
        try:
            traced = self.run("--trace", str(spans), results_dir=results_dir)
            if traced is not None:
                layers.update(
                    {k: v for k, v in traced["layers"].items() if k in LAYERS}
                )
                if base_wall:
                    layers["trace.overhead_frac"] = traced["wall_s"] / base_wall - 1
            if self.name == SWEEP and traced is not None:
                warm = self.run(results_dir=results_dir)  # same cache, fresh process
                layers["runner.cache_hit_wall_s"] = warm and warm["wall_s"]
        finally:
            shutil.rmtree(results_dir, ignore_errors=True)
        if self.name in PROBES:
            layers.update(self.probes(PROBES[self.name]))
        if self.name == SHARD:
            serial = self.repeat(("--serial",), BASE_RUNS, 0)
            if serial and base_wall:
                serial_wall = statistics.median(o["wall_s"] for o in serial)
                layers["shard.speedup_vs_serial"] = serial_wall / base_wall
                if layers["shard.busy_max_s"]:
                    layers["shard.speedup_compute_bound"] = (
                        serial_wall / layers["shard.busy_max_s"]
                    )
                self.speedup_base = {"serial_wall_s": serial_wall, "shard_wall_s": base_wall}
            idle = BENCH / "workloads" / "probe_idle_barrier.json"
            full = self.run(file=idle, check=False)
            zero = self.run("--zero-horizon", file=idle, check=False)
            if full and zero and full["shard_barriers"]:
                layers["shard.idle_barrier_us"] = (
                    1e6 * (full["wall_s"] - zero["wall_s"]) / full["shard_barriers"]
                )
        return layers

    def measure(self, repeats, seconds, want_e2e: bool, want_trace: bool) -> Dict[str, Any]:
        record: Dict[str, Any] = {"spec_sha256": self.spec_sha256}
        if not self.failures:
            self.check_run()
        if want_e2e and not self.failures:
            record["end_to_end"] = self.end_to_end(repeats, seconds)
        if want_trace and not self.failures:
            e2e = record.get("end_to_end") or {}
            record["per_layer"] = self.per_layer(e2e.get("wall_s", {}).get("median"))
            record["exact"] = sorted(k for k, (exact, _) in LAYERS.items() if exact)
            if self.speedup_base is not None:
                record["speedup_base"] = self.speedup_base
            for metric, (_, assigned) in LAYERS.items():
                if self.name in assigned and record["per_layer"][metric] is None:
                    print(f"bench: warning: {self.name}: {metric} is null", file=sys.stderr)
        record.update(
            attempted=self.attempted,
            failed=len(self.failures),
            failures=self.failures,
            check_seed=self.check_seed,
            digests=self.references.get(self.timed_seed),
            correct=not self.failures and self.timed_seed in self.references,
        )
        return record


# --- output -------------------------------------------------------------------


def fmt(value: Any) -> str:
    if value is None:
        return "null"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def print_record(name: str, record: Dict[str, Any], contract: Dict[str, Any]) -> None:
    units = {m["name"]: m["unit"] for m in contract["end_to_end"] + contract["per_layer"]}
    print(
        f"\n== {name}  attempted {record['attempted']}  failed {record['failed']}  "
        f"digests {'ok' if record['correct'] else 'FAILED'}\n"
        f"   spec sha256 {record['spec_sha256']}"
    )
    for cell, digest in (record["digests"] or {}).items():
        print(f"   result sha256 {digest}  {cell}")
    for metric, s in record.get("end_to_end", {}).items():
        print(
            f"   {metric:<26} {units[metric]:<6} median {fmt(s['median']):<10} "
            f"q1 {fmt(s['q1']):<10} q3 {fmt(s['q3']):<10} n {s['n']}"
        )
    for metric, value in record.get("per_layer", {}).items():
        mark = " (=)" if LAYERS[metric][0] else ""
        print(f"   {metric:<30} {units[metric]:<6} {fmt(value)}{mark}")
    if "speedup_base" in record:
        base = record["speedup_base"]
        print(
            f"   shard.speedup_vs_serial base: serial {base['serial_wall_s']:.3f} s "
            f"/ 2-shard {base['shard_wall_s']:.3f} s"
        )


def fold_sharded(record: Dict[str, Any], sharded: Dict[str, Any]) -> None:
    """Under the contract the ``shard.*`` layer metrics of SHARD, and the
    runs behind them, are reported with its serial twin."""
    record["per_layer"].update(
        {k: v for k, v in sharded.get("per_layer", {}).items() if k.startswith("shard.")}
    )
    record["attempted"] += sharded["attempted"]
    record["failed"] += sharded["failed"]
    record["correct"] = record["correct"] and sharded["correct"]


def contract_line(record: Dict[str, Any], contract: Dict[str, Any], trace: bool) -> str:
    """The benchmark contract's result object for one workload."""
    metrics = {}
    if trace:
        for m in contract["per_layer"]:
            # the contract wants a number: a metric that does not apply
            # to this workload, or whose target is gone, reads 0 here
            # and null in latest.json
            value = record["per_layer"][m["name"]]
            metrics[m["name"]] = {"value": value or 0, "unit": m["unit"]}
    else:
        for m in contract["end_to_end"]:
            metrics[m["name"]] = {
                "value": record["end_to_end"][m["name"]]["median"],
                "unit": m["unit"],
            }
    return json.dumps(
        {
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": metrics,
        }
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0], allow_abbrev=False
    )
    parser.add_argument("--seed", type=int, default=0,
                        help="simulation seed of the check run (timed runs use the pinned seed)")
    parser.add_argument("--repeats", type=int, default=None,
                        help=f"timed runs per workload (full run default {MIN_REPEATS})")
    parser.add_argument("--workloads", default=None, help="comma-separated subset")
    parser.add_argument("--no-trace", action="store_true")
    parser.add_argument("--smoke", action="store_true",
                        help="horizons cut 20x, no digest pins, comparable: false")
    parser.add_argument("--pin", action="store_true",
                        help="rewrite digests.json from this run (seed 0, full horizons)")
    parser.add_argument("--workload", default=None, help="contract mode: one workload")
    parser.add_argument("--seconds", type=float, default=None,
                        help="contract mode: how long to measure (default run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print("bench: src/repro or BENCHMARK.json is missing: nothing to measure",
              file=sys.stderr)
        return 2
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in contract["workloads"]]
    pins = json.loads(PINS.read_text()) if PINS.is_file() else {}

    if args.workload is not None:
        if args.workload not in names:
            parser.error(f"unknown workload {args.workload!r}; choose from {names}")
        harness = Harness(args.workload, args.seed, smoke=False, pins=pins)
        seconds = args.seconds or contract["run_seconds"]
        try:
            record = harness.measure(
                None, seconds, want_e2e=not args.trace, want_trace=bool(args.trace)
            )
            if args.trace and args.workload == TWIN and record.get("per_layer"):
                sharded = Harness(SHARD, args.seed, smoke=False, pins=pins)
                fold_sharded(record, sharded.measure(None, seconds, False, True))
        finally:
            shutil.rmtree(harness.tmp_root, ignore_errors=True)
        if not record.get("per_layer" if args.trace else "end_to_end"):
            print(f"bench: {args.workload}: no run produced a result", file=sys.stderr)
            return 1
        print(contract_line(record, contract, bool(args.trace)))
        return 0 if record["correct"] else 1

    if args.pin and args.smoke:
        parser.error("--pin records full horizons")
    chosen = args.workloads.split(",") if args.workloads else list(ALL)
    unknown = [n for n in chosen if n not in ALL]
    if unknown:
        parser.error(f"unknown workloads {unknown}; choose from {list(ALL)}")
    repeats = args.repeats or (2 if args.smoke else MIN_REPEATS)
    result = {
        "schema": 1,
        "comparable": not args.smoke and repeats >= MIN_REPEATS,
        "check_seed": args.seed,
        "timed_seed": pins.get("seed", 0),
        "repeats": repeats,
        "host": host_facts(),
        "workloads": {},
    }
    for name in chosen:
        harness = Harness(name, args.seed, args.smoke, {} if args.pin else pins)
        try:
            record = harness.measure(repeats, 0, True, not args.no_trace)
        finally:
            shutil.rmtree(harness.tmp_root, ignore_errors=True)
        result["workloads"][name] = record
        print_record(name, record, contract)
    OUT.mkdir(parents=True, exist_ok=True)
    # a smoke run must not replace the last real result
    out_file = OUT / ("smoke.json" if args.smoke else "latest.json")
    out_file.write_text(json.dumps(result, indent=1) + "\n")
    print(f"\nwrote {out_file.relative_to(ROOT)}"
          + ("" if result["comparable"] else "  (comparable: false)"))
    ok = all(record["correct"] for record in result["workloads"].values())
    if args.pin and ok:
        PINS.write_text(json.dumps({
            "seed": pins.get("seed", 0),
            "canonical": "RunResult JSON, sorted keys, without shard_report and "
                         "metrics.gauges['shard.*']; integral gauges as integers",
            "workloads": {
                **pins.get("workloads", {}),
                **{
                    name: {
                        "spec_sha256": record["spec_sha256"],
                        "cells": record["digests"],
                        "wall_s": round(record["end_to_end"]["wall_s"]["median"], 3),
                    }
                    for name, record in result["workloads"].items()
                },
            },
        }, indent=1) + "\n")
        print(f"pinned {len(result['workloads'])} workloads in {PINS.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
