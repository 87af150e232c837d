"""Small, dependency-light statistics used across the experiments.

The paper reports medians, 10th percentiles ("the tail end") and
fairness; these helpers centralize those computations so every
benchmark reports them identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100].

    Matches numpy's default ("linear") method but works on plain
    sequences without an import in hot experiment loops.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    data = sorted(values)
    if not data:
        raise ValueError("percentile of empty sequence")
    if len(data) == 1:
        return float(data[0])
    rank = (len(data) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(data) - 1)
    frac = rank - low
    if data[low] == data[high]:
        # skip interpolation: avoids float wiggle on equal neighbours
        return float(data[low])
    return data[low] * (1.0 - frac) + data[high] * frac


def jain_fairness(values: Sequence[float]) -> float:
    """Jain's fairness index: 1 means perfectly equal shares.

    ``(sum x)^2 / (n * sum x^2)``; an all-zero allocation counts as
    perfectly fair (everyone got the same nothing).
    """
    data = list(values)
    if not data:
        raise ValueError("fairness of empty sequence")
    total = sum(data)
    squares = sum(x * x for x in data)
    if squares == 0.0:
        return 1.0
    return total * total / (len(data) * squares)


@dataclass(frozen=True)
class Summary:
    """min / p10 / median / mean / p90 / max of a sample."""

    count: int
    minimum: float
    p10: float
    median: float
    mean: float
    p90: float
    maximum: float

    def row(self) -> str:
        return (
            f"n={self.count} min={self.minimum:.3g} p10={self.p10:.3g} "
            f"med={self.median:.3g} mean={self.mean:.3g} "
            f"p90={self.p90:.3g} max={self.maximum:.3g}"
        )


def summarize(values: Sequence[float]) -> Summary:
    """Summary statistics the paper's figures report."""
    data = list(values)
    if not data:
        raise ValueError("summary of empty sequence")
    return Summary(
        count=len(data),
        minimum=min(data),
        p10=percentile(data, 10),
        median=percentile(data, 50),
        mean=sum(data) / len(data),
        p90=percentile(data, 90),
        maximum=max(data),
    )
