"""Fault-injection & resilience subsystem (see DESIGN.md §9).

The pieces:

* :mod:`repro.faults.plan` — the declarative, JSON-serializable
  :class:`FaultPlan` and its injector vocabulary (:class:`LinkFlap`,
  :class:`ErrorBurst`, :class:`PauseStorm`, :class:`CnpImpairment`)
  plus :class:`WatchdogConfig`.
* :mod:`repro.faults.injectors` — :func:`install_plan`, the runtime
  that arms a plan on a freshly built network and returns a
  :class:`FaultRuntime`.
* :mod:`repro.faults.watchdog` — :class:`DeadlockWatchdog`, the pause
  wait-for graph scanner (cycles and global stalls).
* :mod:`repro.faults.recovery` — :class:`RecoveryTracker`, the
  time-to-recover / goodput-under-faults / victim-loss metrics.

A scenario opts in by carrying a plan in its ``faults`` field; the
runner installs it automatically, so fault-bearing runs cache, fan out
to workers, and stay serial==parallel deterministic exactly like clean
runs.
"""

from repro.faults.injectors import FaultRuntime, install_plan
from repro.faults.plan import (
    CnpImpairment,
    ErrorBurst,
    FaultPlan,
    INJECTOR_KINDS,
    LinkFlap,
    PauseStorm,
    WatchdogConfig,
)
from repro.faults.recovery import RecoveryTracker
from repro.faults.watchdog import DeadlockWatchdog

__all__ = [
    "CnpImpairment",
    "DeadlockWatchdog",
    "ErrorBurst",
    "FaultPlan",
    "FaultRuntime",
    "INJECTOR_KINDS",
    "LinkFlap",
    "PauseStorm",
    "RecoveryTracker",
    "WatchdogConfig",
    "install_plan",
]
