"""Execution-hardening policy: run timeouts and retries.

The two policies the hardened executor
(:func:`repro.runner.executor.execute`) runs under:

* **Run timeouts**: one wall-clock budget per cell, scaled by the run
  scale (a smoke cell that runs two minutes is hung; a quick cell
  legitimately runs much longer).  ``run_timeout`` in
  :mod:`repro.runtime` overrides it with seconds, or ``off``.
* **Retry**: a failed cell runs once more after a short backoff.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro import runtime

#: executions charged to one cell before it counts as failed
MAX_ATTEMPTS = 2

#: pause before a failed cell's second attempt (seconds)
RETRY_BACKOFF_S = 0.25

#: default per-cell timeout by run scale (seconds)
DEFAULT_TIMEOUT_S: Dict[str, float] = {
    "smoke": 120.0,
    "quick": 600.0,
}


def default_timeout_s() -> Optional[float]:
    """The per-cell timeout policy: the configured budget, else by scale."""
    config = runtime.current()
    if config.run_timeout is None:
        return DEFAULT_TIMEOUT_S[config.scale]
    return None if config.run_timeout == "off" else config.run_timeout
