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
from repro.runner import Cell, execute
from repro.runner import scale


@dataclass
class SingleSwitchFairnessResult:
    """N:1 incast fairness under one control scheme."""

    scheme: str
    per_flow_gbps: List[float]
    fairness: float
    total_gbps: float

    def row(self) -> List[str]:
        return [
            self.scheme,
            f"{self.total_gbps:.1f}",
            f"{self.fairness:.3f}",
            f"{min(self.per_flow_gbps):.2f}",
            f"{max(self.per_flow_gbps):.2f}",
        ]


ABLATION_HEADERS = ["scheme", "total Gbps", "Jain", "min Gbps", "max Gbps"]


def fairness_cell(
    scheme: str,
    n_senders: int,
    warmup_ns: int,
    measure_ns: int,
    seed: int,
) -> Dict[str, Any]:
    """One scheme's incast run — the worker-side entry point."""
    from repro.core.params import DCQCNParams
    from repro.sim.topology import single_switch

    # switches mark with, and DCQCN flows run, the deployed defaults;
    # QCN's increase timers keep the strawman (802.1Qau) pace
    net, _, hosts = single_switch(n_senders + 1, seed=seed)
    flow_params = DCQCNParams.strawman() if scheme == "qcn" else None
    receiver = hosts[-1]
    flows = []
    for sender in hosts[:n_senders]:
        flow = net.add_flow(sender, receiver, cc=scheme, params=flow_params)
        flow.set_greedy()
        flows.append(flow)
    net.run_for(warmup_ns)
    before = [flow.bytes_delivered for flow in flows]
    net.run_for(measure_ns)
    rates = [
        (flow.bytes_delivered - b) * 8e9 / measure_ns / 1e9
        for flow, b in zip(flows, before)
    ]
    return {"scheme": scheme, "per_flow_gbps": rates}


_CELL_FN = "repro.experiments.qcn_ablation:fairness_cell"


def _from_cell(value: Dict[str, Any]) -> SingleSwitchFairnessResult:
    rates = list(value["per_flow_gbps"])
    return SingleSwitchFairnessResult(
        scheme=value["scheme"],
        per_flow_gbps=rates,
        fairness=jain_fairness(rates),
        total_gbps=sum(rates),
    )


def queue_cell(
    overrides: Dict[str, Any],
    degree: int,
    seed: int,
    warmup_ns: int,
    measure_ns: int,
) -> Dict[str, Any]:
    """Bottleneck queue every 10 us after ``warmup_ns`` of a greedy
    ``degree``:1 DCQCN incast whose switch marks, and whose flows react,
    with the deployed parameters plus ``overrides`` — the worker-side
    entry point."""
    from repro.core.params import DCQCNParams
    from repro.sim.monitor import QueueSampler
    from repro.sim.switch import SwitchConfig
    from repro.sim.topology import single_switch

    params = replace(DCQCNParams.deployed(), **overrides)
    net, switch, hosts = single_switch(
        degree + 1,
        switch_config=SwitchConfig(marking=params),
        seed=seed,
        dcqcn_params=params,
    )
    receiver = hosts[-1]
    for sender in hosts[:degree]:
        flow = net.add_flow(sender, receiver, cc="dcqcn")
        flow.set_greedy()
    net.run_for(warmup_ns)
    sampler = QueueSampler(
        net.engine, switch, switch.port_to(receiver.nic).index,
        interval_ns=units.us(10),
    )
    net.run_for(measure_ns)
    return {"samples_bytes": sampler.samples_bytes}


_QUEUE_CELL_FN = "repro.experiments.qcn_ablation:queue_cell"

#: Table 14's Pmax against §6.1's queue bound, on the 16:1 incast
PMAXES = (0.01, 0.10)
#: RP rate-increase timer jitter (ns), on the 8:1 incast
JITTERS_NS = (0, units.us(4))


def run_ablations() -> Dict[str, Any]:
    """The three ablations as one fan-out of seven cells.

    ``schemes``: the 4:1 single-switch incast under each scheme;
    ``pmax_q90_kb``: q90 (KB) of the 16:1 incast queue with Table 14's
    Pmax replaced; ``jitter_std_kb``: standard deviation (KB) of the
    8:1 incast queue under each RP timer jitter.
    """
    schemes = ("none", "qcn", "dcqcn")
    scheme_horizon = {
        "warmup_ns": scale.pick(units.ms(15), units.ms(4)),
        "measure_ns": scale.pick(units.ms(10), units.ms(2)),
    }
    pmax_horizon = {
        "warmup_ns": scale.pick(units.ms(25), units.ms(3)),
        "measure_ns": scale.pick(units.ms(15), units.ms(2)),
    }
    jitter_horizon = {
        "warmup_ns": scale.pick(units.ms(20), units.ms(3)),
        "measure_ns": scale.pick(units.ms(15), units.ms(2)),
    }
    cells = [
        Cell(_CELL_FN, dict(scheme=scheme, n_senders=4, seed=61, **scheme_horizon))
        for scheme in schemes
    ]
    cells += [
        Cell(_QUEUE_CELL_FN, dict(
            overrides={"pmax": pmax}, degree=16, seed=71, **pmax_horizon
        ))
        for pmax in PMAXES
    ]
    cells += [
        Cell(_QUEUE_CELL_FN, dict(
            overrides={"rate_increase_timer_jitter_ns": jitter},
            degree=8, seed=73, **jitter_horizon,
        ))
        for jitter in JITTERS_NS
    ]
    values = iter(execute(cells))  # consumed in the order cells was built
    return {
        "schemes": {s: _from_cell(next(values)) for s in schemes},
        "pmax_q90_kb": {
            p: percentile(next(values)["samples_bytes"], 90) / 1e3 for p in PMAXES
        },
        "jitter_std_kb": {
            j: float(np.std(next(values)["samples_bytes"])) / 1e3
            for j in JITTERS_NS
        },
    }
