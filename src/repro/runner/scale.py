"""Run-scale and seed policy.

Every experiment sizes its repetitions and simulated durations through
:func:`pick`, so one field of :mod:`repro.runtime` (``scale``, from
``REPRO_SCALE`` / ``--scale``) controls the whole suite:

* ``smoke`` — milliseconds-long runs, single repetitions; just enough
  to exercise every code path (CLI smoke tests, registry iteration).
* ``quick`` — the default, and the one verdict horizon: each figure
  runs long enough for its table to show the paper's effect.
"""

from __future__ import annotations

import hashlib
from typing import List

from repro import runtime


def pick(quick_value, smoke_value):
    """Choose a knob by run scale."""
    return smoke_value if runtime.current().scale == "smoke" else quick_value


def seeds_for(repetitions: int, base: int = 1000) -> List[int]:
    """Deterministic, well-spread seeds for repeated runs."""
    return [base + 7919 * rep for rep in range(repetitions)]


def derive_seed(seed: int, stream: str) -> int:
    """A deterministic sub-seed for one named RNG stream of a run.

    Every independent randomness consumer (link-error RNG, each fault
    injector) derives its own stream from the run seed plus a stable
    stream name, so streams never alias (the old ``seed + 1`` idiom
    collides with the next repetition's base seed) and the derivation
    is captured by the result-cache content hash via the code
    fingerprint.
    """
    digest = hashlib.sha256(f"{seed}:{stream}".encode()).digest()
    return int.from_bytes(digest[:8], "big")
