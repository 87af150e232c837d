"""Execution-hardening policy: run timeouts and retries.

The two policies the hardened executor
(:func:`repro.runner.executor.execute`) runs under:

* **Run timeouts**: one wall-clock budget per cell, scaled by the run
  scale (a smoke cell that runs two minutes is hung; a quick cell
  legitimately runs much longer).  ``run_timeout`` in
  :mod:`repro.runtime` overrides it with seconds, or ``off``.
* **Retry policy**: bounded retry with exponential backoff per failed
  cell; two attempts unless the caller passes its own
  :class:`RetryPolicy`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro import runtime

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


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff.

    ``max_attempts`` counts executions charged to one cell (1 = never
    retry).  The delay before attempt ``n+1`` is
    ``backoff_s * backoff_factor**(n-1)``, capped at ``max_backoff_s``.
    """

    max_attempts: int = 2
    backoff_s: float = 0.25
    backoff_factor: float = 2.0
    max_backoff_s: float = 5.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_s < 0 or self.max_backoff_s < 0:
            raise ValueError("backoff delays cannot be negative")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")

    def delay_s(self, attempt: int) -> float:
        """Backoff before the next try, after ``attempt`` failures."""
        if attempt < 1:
            return 0.0
        return min(
            self.backoff_s * self.backoff_factor ** (attempt - 1),
            self.max_backoff_s,
        )
