"""Statistics and trace-analysis helpers used by experiments and benchmarks."""

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
    cdf_points,
    jain_fairness,
    summarize,
    Summary,
)
from repro.analysis.trace import (
    event_counts,
    pause_counts,
    queue_cdf,
    rate_cut_timeline,
    rate_timeline,
    read_events,
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
    "cdf_points",
    "jain_fairness",
    "summarize",
    "Summary",
    "event_counts",
    "pause_counts",
    "queue_cdf",
    "rate_cut_timeline",
    "rate_timeline",
    "read_events",
]
