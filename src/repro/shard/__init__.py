"""repro.shard — sharded parallel simulation with conservative sync.

One fabric :class:`~repro.runner.scenario.Scenario` is partitioned
into pod-aligned shards (:mod:`repro.shard.partition`), each driven by
its own worker process (:mod:`repro.shard.worker`) in lockstep
windows bounded by the pod↔core propagation delay — the conservative
lookahead that makes rollback unnecessary (:mod:`repro.shard.boundary`).
The parent routes boundary messages and null-message time grants
(:mod:`repro.shard.runner`) and merges the partial results into one
RunResult that is identical to the serial run for metrics-only
telemetry (:mod:`repro.shard.merge`).  See DESIGN.md §14.

The parent is also a supervisor (DESIGN.md §15): routed barrier rounds
are journalled (:mod:`repro.shard.checkpoint`) so dead or stalled
workers restart by deterministic replay, an interrupted run resumes
with ``--resume``, and an unsalvageable fleet degrades to serial
re-execution — all bit-identical to the undisturbed run
(:mod:`repro.shard.supervise`).

Only the declarative half (:mod:`repro.shard.spec`: the spec, the env
var name and the serial-or-sharded dispatch) is re-exported here, so
importing the package costs a serial run nothing; everything else is
imported from its submodule by the code that needs it.
"""

from repro.shard.spec import (
    SHARDS_ENV,
    ShardingSpec,
    can_shard,
    effective_shards,
    maybe_run_sharded,
)

__all__ = [
    "SHARDS_ENV",
    "ShardingSpec",
    "can_shard",
    "effective_shards",
    "maybe_run_sharded",
]
