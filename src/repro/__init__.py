"""repro — a reproduction of *Congestion Control for Large-Scale RDMA
Deployments* (DCQCN), SIGCOMM 2015.

The package provides:

* :mod:`repro.core` — the DCQCN algorithm (CP / NP / RP state machines
  and the deployed parameter set).
* :mod:`repro.sim` — a packet-level discrete-event simulator of
  lossless RoCEv2 fabrics: shared-buffer switches with PFC and
  RED/ECN, host NICs with hardware-style rate limiters, ECMP Clos
  topologies.
* :mod:`repro.fluid` — the paper's delay-differential fluid model,
  used for parameter tuning.
* :mod:`repro.buffers` — the §4 buffer-threshold analysis (headroom,
  t_PFC, t_ECN).
* :mod:`repro.cc` — every congestion controller behind one interface:
  DCQCN and the DCTCP, QCN, TIMELY-like and FNCC-style comparison points.
* :mod:`repro.traffic` — flow-size distributions for a scenario's
  message streams (``FlowSpec.message_sizes``).
* :mod:`repro.hoststack` — the TCP vs RDMA host-overhead model behind
  the paper's motivation figure.
* :mod:`repro.experiments` — one entry point per paper table/figure.
* :mod:`repro.telemetry` — structured event tracing, the metrics
  registry, and the scheduler profiler (DESIGN.md §8).
"""

from repro import units
from repro.core.params import DCQCNParams
from repro.sim.network import Network
from repro.telemetry import Telemetry, TelemetrySpec

__version__ = "1.0.0"

__all__ = [
    "DCQCNParams",
    "Network",
    "Telemetry",
    "TelemetrySpec",
    "units",
    "__version__",
]
