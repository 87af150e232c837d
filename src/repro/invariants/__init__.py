"""Simulation invariant guards (see DESIGN.md §10).

The simulator reproduces a paper whose claims rest on a handful of
conservation and safety properties: PFC keeps the fabric lossless,
ECN fires before PFC (§4), and the RP state machine keeps ``alpha``
and the flow rates inside their algebraic bounds (§3.1).  This package
turns those properties into declarative, always-cheap runtime checks:

* :class:`InvariantConfig` — the JSON-serializable request a
  :class:`~repro.runner.spec.Scenario` carries in its
  ``invariants`` field (so guarded and unguarded runs hash to
  different cache keys, exactly like fault plans).
* :class:`InvariantGuard` — the runtime: build-time configuration
  checks, a periodic sweep whose cost follows the traffic, and O(1)
  checks on the switch dequeue (inline) and RP update hot paths.
* :class:`InvariantViolation` — raised in ``strict`` mode; in
  ``report`` mode violations fold into telemetry metrics and
  ``RunResult.invariant_report`` instead.
"""

from repro.invariants.guard import (
    MODES,
    InvariantConfig,
    InvariantGuard,
    InvariantViolation,
    Violation,
    config_violations,
)

__all__ = [
    "MODES",
    "InvariantConfig",
    "InvariantGuard",
    "InvariantViolation",
    "Violation",
    "config_violations",
]
