"""Run-scale and seed policy.

Every experiment sizes its repetitions and simulated durations through
:func:`pick`, so one field of :mod:`repro.runtime` (``scale``, from
``REPRO_SCALE`` / ``--scale``) controls the whole suite:

* ``smoke`` — milliseconds-long runs, single repetitions; just enough
  to exercise every code path (CLI smoke tests, registry iteration).
* ``quick`` — the default; small but meaningful runs whose tables show
  the paper's qualitative effects.
* ``full``  — longer runs and more repetitions, closest to the paper.
"""

from __future__ import annotations

import hashlib
from typing import List

from repro import runtime

_UNSET = object()


def pick(quick_value, full_value, smoke_value=_UNSET):
    """Choose a knob by run scale.

    ``smoke_value`` is optional: call sites that predate the smoke
    scale (or where quick is already tiny) fall back to ``quick_value``.
    """
    active = runtime.current().scale
    if active == "full":
        return full_value
    if active == "smoke" and smoke_value is not _UNSET:
        return smoke_value
    return quick_value


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
