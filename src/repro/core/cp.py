"""CP algorithm — RED-style ECN marking at the switch egress queue.

Paper §3.1: "At an egress queue, an arriving packet is ECN-marked if
the queue length exceeds a threshold.  This is accomplished using RED
functionality supported on all modern switches."  Figure 5 defines the
profile: probability 0 below ``Kmin``, rising linearly to ``Pmax`` at
``Kmax``, and 1 above ``Kmax``.  Marking uses the *instantaneous*
queue length, as DCTCP recommends (weighted averaging off).
"""

from __future__ import annotations

import random
from typing import Optional

from repro.core.params import DCQCNParams


def marking_probability(
    queue_bytes: float, kmin_bytes: float, kmax_bytes: float, pmax: float
) -> float:
    """Equation (5): RED marking probability for a given queue length.

    ``kmin == kmax`` yields DCTCP-style cut-off behaviour (0 below the
    threshold, 1 above — ``pmax`` is unreachable in the degenerate
    linear segment, matching "set Kmin = Kmax = K and Pmax = 1").
    """
    if queue_bytes <= kmin_bytes:
        return 0.0
    if queue_bytes > kmax_bytes:
        return 1.0
    # kmin < q <= kmax on a non-degenerate segment
    if kmax_bytes == kmin_bytes:
        return 1.0
    return (queue_bytes - kmin_bytes) / (kmax_bytes - kmin_bytes) * pmax


class RedEcnMarker:
    """Stateful marker bound to one egress queue.

    Keeps its own ``random.Random`` stream so that switch marking
    decisions are reproducible independently of any other randomness in
    the simulation.  The stream (2.5 KB of Mersenne Twister state) is
    built from the kept seed at the first probabilistic draw: the same
    seed gives the same draw sequence, and a queue that never sits
    between ``Kmin`` and ``Kmax`` never pays for one.

    ``seen`` counts the packets *offered to the marker*, not the
    packets the queue admitted: :meth:`repro.sim.switch.Switch.receive`
    does not call :meth:`should_mark` for a queue at or below ``Kmin``
    (the answer is False and no random number is drawn either way).
    """

    __slots__ = (
        "kmin_bytes", "kmax_bytes", "pmax", "_seed", "_stream", "marked", "seen",
    )

    def __init__(
        self,
        params: DCQCNParams,
        seed: Optional[int] = None,
    ):
        self.kmin_bytes = params.kmin_bytes
        self.kmax_bytes = params.kmax_bytes
        self.pmax = params.pmax
        self._seed = seed
        self._stream: Optional[random.Random] = None
        self.marked = 0
        self.seen = 0

    @property
    def _rng(self) -> random.Random:
        """The marking stream, built on first use."""
        stream = self._stream
        if stream is None:
            stream = self._stream = random.Random(self._seed)
        return stream

    def probability(self, queue_bytes: float) -> float:
        """Marking probability at the given instantaneous queue length."""
        return marking_probability(
            queue_bytes, self.kmin_bytes, self.kmax_bytes, self.pmax
        )

    def should_mark(self, queue_bytes: float) -> bool:
        """Roll the dice for one arriving packet.

        The common case, a queue at or below ``Kmin``, returns before
        the probability is computed; no random number is drawn for it.
        """
        self.seen += 1
        if queue_bytes <= self.kmin_bytes:
            return False
        p = self.probability(queue_bytes)
        if p <= 0.0:
            return False
        if p >= 1.0:
            self.marked += 1
            return True
        stream = self._stream
        if stream is None:
            stream = self._rng
        if stream.random() < p:
            self.marked += 1
            return True
        return False
