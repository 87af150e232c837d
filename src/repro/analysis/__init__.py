"""Statistics helpers used by experiments and benchmarks."""

from repro.analysis.fct import (
    MICE_THRESHOLD_BYTES,
    SlowdownSummary,
    base_rtt_ns,
    bucket_of,
    ideal_fct_ns,
    records_from_runs,
    slowdown,
    slowdowns,
    summarize_slowdowns,
)
from repro.analysis.stats import (
    percentile,
    jain_fairness,
    summarize,
    Summary,
)

__all__ = [
    "MICE_THRESHOLD_BYTES",
    "SlowdownSummary",
    "base_rtt_ns",
    "bucket_of",
    "ideal_fct_ns",
    "records_from_runs",
    "slowdown",
    "slowdowns",
    "summarize_slowdowns",
    "percentile",
    "jain_fairness",
    "summarize",
    "Summary",
]
