"""Buffer-threshold analysis from paper §4.

Computes PFC trigger thresholds (static and dynamic) and
the ECN marking threshold bound that together guarantee ECN fires
before PFC on a shared-buffer switch.
"""

from repro.buffers.thresholds import (
    SwitchProfile,
    static_pfc_threshold_bound,
    dynamic_pfc_threshold,
    ecn_threshold_bound_static,
    ecn_threshold_bound_dynamic,
    ThresholdPlan,
    plan_thresholds,
)

__all__ = [
    "SwitchProfile",
    "static_pfc_threshold_bound",
    "dynamic_pfc_threshold",
    "ecn_threshold_bound_static",
    "ecn_threshold_bound_dynamic",
    "ThresholdPlan",
    "plan_thresholds",
]
