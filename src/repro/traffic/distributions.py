"""Flow-size distributions as piecewise inverse CDFs.

Distributions are defined by (size_bytes, cumulative_probability)
anchor points and sampled by inverting the CDF with log-linear
interpolation between anchors — the standard way datacenter traffic
studies publish and reuse flow-size distributions.

:func:`storage_cluster` is our stand-in for the paper's one-day trace
of a cloud-storage backend cluster (~48 machines, >1 million flows):
dominated by small metadata/control transfers with a heavy tail of
multi-megabyte chunk reads/writes.  :func:`web_search` and
:func:`data_mining` are the classic DCTCP/VL2 distributions, included
for sensitivity studies.
"""

from __future__ import annotations

import math
import random
from typing import List, Sequence, Tuple

from repro import units


class FlowSizeDistribution:
    """Inverse-CDF sampler over (size, cumulative probability) anchors."""

    def __init__(self, name: str, anchors: Sequence[Tuple[float, float]]):
        if len(anchors) < 2:
            raise ValueError("need at least two anchor points")
        sizes = [size for size, _ in anchors]
        probs = [prob for _, prob in anchors]
        if any(b <= a for a, b in zip(sizes, sizes[1:])):
            raise ValueError("anchor sizes must be strictly increasing")
        if any(b < a for a, b in zip(probs, probs[1:])):
            raise ValueError("anchor probabilities must be non-decreasing")
        if probs[-1] != 1.0:
            raise ValueError("final anchor must have cumulative probability 1")
        if probs[0] < 0.0:
            raise ValueError("probabilities must be non-negative")
        self.name = name
        self._anchors: List[Tuple[float, float]] = [
            (float(size), float(prob)) for size, prob in anchors
        ]

    def quantile(self, u: float) -> int:
        """Size at cumulative probability ``u`` (log-linear between anchors)."""
        if not 0.0 <= u <= 1.0:
            raise ValueError(f"quantile arg must be in [0, 1], got {u}")
        anchors = self._anchors
        if u <= anchors[0][1]:
            return int(round(anchors[0][0]))
        for (size_lo, p_lo), (size_hi, p_hi) in zip(anchors, anchors[1:]):
            if u <= p_hi:
                if p_hi == p_lo:
                    return int(round(size_hi))
                frac = (u - p_lo) / (p_hi - p_lo)
                log_size = math.log(size_lo) + frac * (
                    math.log(size_hi) - math.log(size_lo)
                )
                return max(1, int(round(math.exp(log_size))))
        return int(round(anchors[-1][0]))

    def sample(self, rng: random.Random) -> int:
        """Draw one flow size in bytes."""
        return self.quantile(rng.random())

    def mean(self, resolution: int = 10_000) -> float:
        """Numerical mean of the distribution (bytes)."""
        total = 0.0
        for index in range(resolution):
            total += self.quantile((index + 0.5) / resolution)
        return total / resolution

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FlowSizeDistribution({self.name}, {len(self._anchors)} anchors)"


def storage_cluster() -> FlowSizeDistribution:
    """Stand-in for the paper's cloud-storage backend trace.

    Mix of small metadata operations (K-scale), medium object I/O and
    a heavy tail of chunk-sized transfers; erasure-coded storage moves
    data in multi-MB extents, which is also why the paper models disk
    rebuild as incast of large transfers.
    """
    return FlowSizeDistribution(
        "storage_cluster",
        [
            (units.kb(1), 0.15),
            (units.kb(4), 0.35),
            (units.kb(16), 0.55),
            (units.kb(64), 0.70),
            (units.kb(256), 0.80),
            (units.mb(1), 0.90),
            (units.mb(4), 0.97),
            (units.mb(16), 1.00),
        ],
    )


def web_search() -> FlowSizeDistribution:
    """The DCTCP paper's web-search workload (query/response heavy)."""
    return FlowSizeDistribution(
        "web_search",
        [
            (units.kb(6), 0.15),
            (units.kb(13), 0.3),
            (units.kb(19), 0.4),
            (units.kb(33), 0.53),
            (units.kb(53), 0.6),
            (units.kb(133), 0.7),
            (units.kb(667), 0.8),
            (units.mb(1.333), 0.9),
            (units.mb(6.667), 0.97),
            (units.mb(20), 1.0),
        ],
    )


def data_mining() -> FlowSizeDistribution:
    """The VL2 data-mining workload (most bytes in elephant flows)."""
    return FlowSizeDistribution(
        "data_mining",
        [
            (units.kb(0.1), 0.1),
            (units.kb(0.18), 0.2),
            (units.kb(0.25), 0.3),
            (units.kb(0.57), 0.4),
            (units.kb(1.6), 0.5),
            (units.kb(4), 0.6),
            (units.kb(20), 0.7),
            (units.kb(100), 0.8),
            (units.mb(1), 0.9),
            (units.mb(10), 0.95),
            (units.mb(100), 1.0),
        ],
    )


#: name -> distribution, as ``FlowSpec.message_sizes`` names them
DISTRIBUTIONS = {f.__name__: f for f in (storage_cluster, web_search, data_mining)}
