"""DCQCN vs QCN ablation (paper §2.3 rationale), plus the Pmax and
RP timer jitter ablations of DESIGN.md §6.

QCN works within one L2 domain: on a single switch it provides
flow-level control much like DCQCN.  The paper's complaint is not that
QCN's control law is broken but that it *cannot be deployed* on
IP-routed fabrics (flows are identified by L2 addresses, which
routing rewrites).  This ablation shows both halves:

* on a single switch, QCN and DCQCN both restore fairness relative to
  PFC-only;
* on the routed Clos, QCN's feedback cannot identify flows across the
  IP boundary, so it must be disabled — the PFC pathologies return
  (we model the restriction by simply not deploying QCN there).

The other two ablations drive a greedy N:1 DCQCN incast on one switch
and read the bottleneck queue: Table 14's OCR-ambiguous Pmax (1%) pins
the 16:1 queue near Kmax while Pmax = 10% recovers §6.1's "queue never
exceeds ~100 KB"; and without firmware timer skew, synchronized flows
cut and recover in phase, overstating the queue oscillation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, List

import numpy as np

from repro import units
from repro.analysis.stats import jain_fairness, percentile
from repro.core.params import DCQCNParams
from repro.experiments.microbench import incast_scenario
from repro.runner import RunResult, Scenario, run_arms, scale
from repro.sim.switch import SwitchConfig


@dataclass
class SingleSwitchFairnessResult:
    """N:1 incast fairness under one control scheme."""

    scheme: str
    per_flow_gbps: List[float]
    fairness: float
    total_gbps: float

    @classmethod
    def from_run(cls, scheme: str, run: RunResult) -> "SingleSwitchFairnessResult":
        rates = [bps / 1e9 for bps in run.flows_bps.values()]
        return cls(scheme, rates, jain_fairness(rates), sum(rates))

    def row(self) -> List[str]:
        return [
            self.scheme,
            f"{self.total_gbps:.1f}",
            f"{self.fairness:.3f}",
            f"{min(self.per_flow_gbps):.2f}",
            f"{max(self.per_flow_gbps):.2f}",
        ]


ABLATION_HEADERS = ["scheme", "total Gbps", "Jain", "min Gbps", "max Gbps"]

#: the control schemes of the 4:1 incast
SCHEMES = ("none", "qcn", "dcqcn")
#: Table 14's Pmax against §6.1's queue bound, on the 16:1 incast
PMAXES = (0.01, 0.10)
#: RP rate-increase timer jitter (ns), on the 8:1 incast
JITTERS_NS = (0, units.us(4))


def scheme_scenario(scheme: str, warmup_ns: int, duration_ns: int) -> Scenario:
    """The 4:1 incast under one scheme: the switch marks with, and DCQCN
    flows run, the deployed defaults; QCN's increase timers keep the
    strawman (802.1Qau) pace."""
    return incast_scenario(
        f"ablations/{scheme}", 4, warmup_ns, duration_ns, cc=scheme,
        params=DCQCNParams.strawman() if scheme == "qcn" else None,
    )


def queue_scenario(
    degree: int, warmup_ns: int, duration_ns: int, **overrides: Any
) -> Scenario:
    """A greedy ``degree``:1 DCQCN incast, switch and flows on the deployed
    parameters plus ``overrides``, its queue sampled every 10 us."""
    params = replace(DCQCNParams.deployed(), **overrides)
    label = ",".join(f"{name}={value}" for name, value in overrides.items())
    return incast_scenario(
        f"ablations/{label}", degree, warmup_ns, duration_ns,
        params=params, switch_config=SwitchConfig(marking=params),
        queue_sample_ns=units.us(10),
    )


def run_ablations() -> Dict[str, Any]:
    """The three ablations as one fan-out of seven cells.

    ``schemes``: the 4:1 single-switch incast under each scheme;
    ``pmax_q90_kb``: q90 (KB) of the 16:1 incast queue with Table 14's
    Pmax replaced; ``jitter_std_kb``: standard deviation (KB) of the
    8:1 incast queue under each RP timer jitter.
    """
    ms = units.ms
    scheme_horizon = (scale.pick(ms(15), ms(4)), scale.pick(ms(10), ms(2)))
    pmax_horizon = (scale.pick(ms(25), ms(3)), scale.pick(ms(15), ms(2)))
    jitter_horizon = (scale.pick(ms(20), ms(3)), scale.pick(ms(15), ms(2)))
    arms = {("scheme", s): (scheme_scenario(s, *scheme_horizon), 61) for s in SCHEMES}
    for p in PMAXES:
        arms["pmax", p] = (queue_scenario(16, *pmax_horizon, pmax=p), 71)
    for j in JITTERS_NS:
        jitter = {"rate_increase_timer_jitter_ns": j}
        arms["jitter", j] = (queue_scenario(8, *jitter_horizon, **jitter), 73)
    runs = run_arms("ablations", arms)

    def queue(*arm) -> List[float]:
        return runs[arm].samples["queue_bytes"]

    return {
        "schemes": {
            s: SingleSwitchFairnessResult.from_run(s, runs["scheme", s])
            for s in SCHEMES
        },
        "pmax_q90_kb": {p: percentile(queue("pmax", p), 90) / 1e3 for p in PMAXES},
        "jitter_std_kb": {
            j: float(np.std(queue("jitter", j))) / 1e3 for j in JITTERS_NS
        },
    }
