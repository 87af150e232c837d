"""Supervision vocabulary for sharded runs: failures, policy, errors.

The parent barrier loop (:mod:`repro.shard.runner`) watches its
workers instead of trusting them: a worker that dies mid-barrier
(``EOFError`` / ``BrokenPipeError`` / a silent nonzero exit), stalls
past the heartbeat deadline or breaks the sync protocol becomes a
structured :class:`ShardFailure` rather than a hang or a bare
``RuntimeError``.  What happens next is decided by
:class:`SupervisionPolicy`:

* *degrade* — tear the fleet down and re-execute the whole scenario
  serially (sharded == serial bit-for-bit, so the answer is unchanged
  — only slower);
* *abort* — with degradation disabled, raise :class:`ShardRunError`
  carrying the failure record.

Either way the failure is reported — in the merged result's
``shard_report`` or on the exception — so a survived fault is
visible, not silent.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, Optional

#: the failure taxonomy of the shard supervisor
FAILURE_KINDS = ("death", "stall", "protocol")

#: what the supervisor did about a failure
ACTIONS = ("degrade", "abort")


@dataclass(frozen=True)
class ShardFailure:
    """One supervised fault in a sharded run.

    ``barrier_ns`` is the last barrier the fleet had fully completed
    when the fault was handled (``None`` when the fleet had not
    reached its first barrier).
    """

    shard_id: int
    kind: str  # one of FAILURE_KINDS
    action: str  # one of ACTIONS
    barrier_ns: Optional[int] = None
    exitcode: Optional[int] = None
    detail: str = ""

    def __post_init__(self) -> None:
        if self.kind not in FAILURE_KINDS:
            raise ValueError(
                f"kind must be one of {FAILURE_KINDS}, got {self.kind!r}"
            )
        if self.action not in ACTIONS:
            raise ValueError(
                f"action must be one of {ACTIONS}, got {self.action!r}"
            )

    def to_json(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    def describe(self) -> str:
        where = (
            "before the first barrier"
            if self.barrier_ns is None
            else f"after barrier {self.barrier_ns}ns"
        )
        return (
            f"shard {self.shard_id} {self.kind} {where}"
            f" (exit {self.exitcode}): {self.detail} -> {self.action}"
        )


class ShardRunError(RuntimeError):
    """A sharded run failed in a way the policy does not absorb.

    Raised *instead of hanging* whenever a worker dies, stalls or
    breaks protocol and serial degradation is disabled.  ``failure``
    carries the structured record.
    """

    def __init__(self, failure: ShardFailure):
        super().__init__(failure.describe())
        self.failure = failure


@dataclass(frozen=True)
class SupervisionPolicy:
    """What one sharded run does about a lost worker.

    ``degrade`` selects serial re-execution; with it off the run
    raises :class:`ShardRunError` instead.  ``stall_timeout_s`` bounds
    how long the parent waits for a barrier message before declaring
    the silent workers stalled (``None`` disables stall detection;
    death detection is always on).  ``poll_s`` is the heartbeat
    granularity of the barrier wait loop.
    """

    degrade: bool = True
    stall_timeout_s: Optional[float] = None
    poll_s: float = 0.25

    def __post_init__(self) -> None:
        if self.stall_timeout_s is not None and self.stall_timeout_s <= 0:
            raise ValueError("stall_timeout_s must be positive or None")
        if self.poll_s <= 0:
            raise ValueError("poll_s must be positive")

    @classmethod
    def from_spec(cls, spec) -> "SupervisionPolicy":
        """Policy for one run: the spec's knobs over the run's defaults.

        A spec that leaves ``stall_timeout_s`` unset inherits the
        per-cell wall-clock budget: a barrier round that outlives a whole
        cell's
        budget is certainly stuck.
        """
        stall = spec.stall_timeout_s
        if stall is None:
            from repro.runner.resilience import default_timeout_s

            stall = default_timeout_s()
        return cls(degrade=spec.degrade, stall_timeout_s=stall)
