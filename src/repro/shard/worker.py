"""The shard worker process: build everything, drive one shard.

:func:`shard_worker_main` is the target of every worker
``multiprocessing.Process``.  It rebuilds the scenario from its JSON
spec (the same transport the executor's workers use) and composes the
phases of :mod:`repro.runner.scenario` the way the serial run does,
``build(local_names=...) -> instrument -> run -> collect``, except that
the run is :meth:`ShardContext.run <repro.shard.boundary.ShardContext.run>`
over the cut network instead of two ``run_for`` calls.  The partial
:class:`~repro.runner.results.RunResult` goes back over the sync pipe,
plus the *extras* the merge step needs but no RunResult carries:

* ``boundary`` — per-channel tx/lost/rx byte counters, for the
  cross-shard half of the link byte-conservation invariant;
* ``cnp`` — this shard's partial CNP counters, for the fleet-wide
  conservation check that no single shard can evaluate;
* ``recovery`` — raw :class:`~repro.faults.recovery.RecoveryTracker`
  state (the gauges are folded exactly once, at merge);
* ``bytes_delivered`` — per-flow delivered bytes, to patch the
  receiver-side ``size_bytes`` of greedy ``flow_stats`` rows;
* ``sync`` / ``events`` / ``wall_s`` — sync-stall and throughput
  statistics, folded into ``shard.runner.LAST_STATS``.

Errors (including strict-mode :class:`InvariantViolation`) are pickled
back as ``("error", exc, traceback_text)`` so the parent can re-raise
with full context instead of diagnosing a dead pipe.
"""

from __future__ import annotations

import dataclasses
import time
import traceback


def shard_worker_main(conn, spec, seed, plan, shard_id, window_ns) -> None:
    """Run one shard to completion and report over ``conn``."""
    try:
        from repro.runner.scenario import build, collect, instrument
        from repro.runner.spec import Scenario
        from repro.shard.boundary import ShardContext
        from repro.telemetry import Telemetry

        scenario = Scenario.from_spec(spec)
        tspec = scenario.telemetry
        if tspec is not None and tspec.sink == "jsonl" and tspec.path:
            # every worker streams to its own file; a shared path would
            # interleave half-written JSON lines
            tspec = dataclasses.replace(
                tspec, path=f"{tspec.path}.shard{shard_id}"
            )
        telemetry = Telemetry.from_spec(tspec, seed=seed)
        ctx = ShardContext(plan, shard_id, window_ns, conn)
        started = time.perf_counter()
        run = build(
            scenario, seed, telemetry, local_names=ctx.local_names, fleet=shard_id == 0
        )
        instrument(run)
        net = run.net
        ctx.bind(net)
        if scenario.warmup_ns == 0:
            run.snapshot()  # no warmup barrier will fire
        ctx.run(scenario.warmup_ns, run.horizon_ns, on_warmup=run.snapshot)
        # no fault_runtime.finalize(): the raw recovery state goes out
        # below and the merge step folds the union exactly once
        result = collect(run)
        wall_s = time.perf_counter() - started
        telemetry.close()
        nics = [host.nic for host in net.hosts]
        extras = {
            "boundary": ctx.boundary_accounting(),
            "sync": ctx.sync_stats(),
            "wall_s": wall_s,
            "events": net.engine.events_processed,
            "bytes_delivered": {
                flow.flow_id: flow.bytes_delivered for flow in net.flows
            },
            "cnp": {
                "sent": sum(nic.cnps_sent for nic in nics)
                + sum(sw.cnps_sent for sw in net.switches),
                "received": sum(nic.cnps_received for nic in nics),
                "dropped": sum(nic.cnps_dropped for nic in nics),
            },
            "recovery": None,
        }
        runtime = run.fault_runtime
        if runtime is not None and runtime.recovery is not None:
            extras["recovery"] = runtime.recovery.export_state()
        conn.send(("done", result.to_json(), extras))
    except BaseException as exc:
        detail = traceback.format_exc()
        try:
            conn.send(("error", exc, detail))
        except Exception:
            # the exception itself would not pickle; ship its text
            conn.send(("error", RuntimeError(repr(exc)), detail))
    finally:
        conn.close()
