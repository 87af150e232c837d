"""repro.shard — sharded parallel simulation with conservative sync.

One fabric :class:`~repro.runner.spec.Scenario` is partitioned
into pod-aligned shards (:mod:`repro.shard.partition`), each driven by
its own worker process (:mod:`repro.shard.worker`) in lockstep
windows bounded by the pod↔core propagation delay — the conservative
lookahead that makes rollback unnecessary (:mod:`repro.shard.boundary`).
The parent routes boundary messages and null-message time grants
(:mod:`repro.shard.runner`) and merges the partial results into one
RunResult that is identical to the serial run for metrics-only
telemetry (:mod:`repro.shard.merge`).  See DESIGN.md §14.

The parent also watches its workers (:mod:`repro.shard.supervise`): a
dead, stalled or desynchronised worker becomes a recorded
``ShardFailure`` and the run degrades to one serial re-execution —
bit-identical to the undisturbed run — or, with degradation off,
raises ``ShardRunError``.

Only the declarative half (:mod:`repro.shard.spec`: the spec and the
serial-or-sharded dispatch) is re-exported here, so
importing the package costs a serial run nothing; everything else is
imported from its submodule by the code that needs it.
"""

from repro.shard.spec import (
    ShardingSpec,
    can_shard,
    effective_shards,
    maybe_run_sharded,
    serial_reason,
)

__all__ = [
    "ShardingSpec",
    "can_shard",
    "effective_shards",
    "maybe_run_sharded",
    "serial_reason",
]
