"""What a scenario *is*: the declarative spec language.

A :class:`Scenario` is a pure description of one simulation: which
topology to build (by registered name), which greedy/paced flows to
open between which hosts, and how long to warm up and measure.  It
serializes to a JSON spec, which makes a (scenario, seed) pair a
:class:`~repro.runner.executor.Cell` — cacheable by content hash and
shippable to worker processes.  How one runs is
:mod:`repro.runner.scenario`.

Host locators
-------------
``FlowSpec.src``/``dst`` are strings resolved against the built
topology:

* ``"<tor>:<index>"`` — host ``index`` under ToR ``tor`` on the
  three-tier Clos (e.g. ``"3:1"`` is the second host under T4); on a
  ``fabric`` topology the same form addresses host ``index`` under
  global edge switch ``tor``;
* ``"<pod>:<edge>:<index>"`` — pod-relative addressing on a
  ``fabric`` topology;
* a bare integer — position in the host list of ``single_switch``
  or in ``Fabric.all_hosts()`` (negative indices allowed, e.g.
  ``"-1"`` is the last host);
* otherwise — the host's name (``"H1"``, ``"R2"``, ...), which works
  on every topology.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

from repro import units
from repro.fabric import FabricSpec
from repro.invariants import InvariantConfig
from repro.telemetry import TelemetrySpec

#: config dataclasses that may appear in ``topology_kwargs``
_KIND_KEY = "__kind__"


def _config_types() -> Dict[str, type]:
    from repro.buffers.thresholds import SwitchProfile
    from repro.core.params import DCQCNParams
    from repro.faults.plan import (
        CnpImpairment,
        ErrorBurst,
        FaultPlan,
        LinkFlap,
        PauseStorm,
        WatchdogConfig,
    )
    from repro.shard.spec import ShardingSpec
    from repro.sim.nic import NicConfig
    from repro.sim.switch import SwitchConfig

    return {
        cls.__name__: cls
        for cls in (
            DCQCNParams,
            SwitchProfile,
            SwitchConfig,
            NicConfig,
            TelemetrySpec,
            FabricSpec,
            FaultPlan,
            LinkFlap,
            ErrorBurst,
            PauseStorm,
            CnpImpairment,
            WatchdogConfig,
            InvariantConfig,
            ShardingSpec,
        )
    }


def encode_value(value: Any) -> Any:
    """Recursively convert config objects / containers to JSON values."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        if type(value).__name__ not in _config_types():
            raise TypeError(
                f"cannot serialize {type(value).__name__} into a scenario spec"
            )
        encoded = {_KIND_KEY: type(value).__name__}
        for fld in dataclasses.fields(value):
            encoded[fld.name] = encode_value(getattr(value, fld.name))
        return encoded
    if isinstance(value, Mapping):
        return {str(k): encode_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [encode_value(v) for v in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(f"cannot serialize {type(value).__name__} into a scenario spec")


def decode_value(value: Any) -> Any:
    """Inverse of :func:`encode_value`."""
    if isinstance(value, Mapping):
        if _KIND_KEY in value:
            cls = _config_types()[value[_KIND_KEY]]
            retired = getattr(cls, "RETIRED_FIELDS", {})
            kwargs = {}
            for k, v in value.items():
                if k in retired:
                    # a spec frozen before the field went still loads,
                    # as long as it never asked for anything but the
                    # default; see ShardingSpec.RETIRED_FIELDS
                    if v != retired[k] or type(v) is not type(retired[k]):
                        raise ValueError(
                            f"{cls.__name__}.{k} was removed and only its "
                            f"old default {retired[k]!r} still loads, "
                            f"got {v!r}"
                        )
                elif k != _KIND_KEY:
                    kwargs[k] = decode_value(v)
            return cls(**kwargs)
        return {k: decode_value(v) for k, v in value.items()}
    if isinstance(value, list):
        return [decode_value(v) for v in value]
    return value


@dataclass(frozen=True)
class FlowSpec:
    """One flow of a scenario (see module docstring for locators).

    ``cc_params`` carries scalar per-controller overrides, forwarded
    verbatim to :meth:`~repro.sim.network.Network.add_flow` (each
    controller validates its own keys).  A non-greedy flow may instead
    be a *message probe*: ``message_bytes`` queues one message of that
    size at ``message_start_ns``, and the run records its completion
    time as the counter ``fct_ns.<name>`` (−1 if it did not finish
    inside the horizon).  ``message_count`` turns the probe into a
    closed-loop stream: each completion immediately queues the next
    transfer, back to back, the paper's Fig 16 benchmark-traffic shape;
    every transfer lands as its own row in ``RunResult.flow_stats``.
    ``message_sizes`` instead names a distribution in
    :mod:`repro.traffic.distributions`, and each transfer draws its size
    from the flow's own stream, ``derive_seed(seed, "sizes.<name>")``.
    ``fresh_qp`` runs each next transfer as a new queue pair, which
    forgets its congestion state and starts at line rate (paper §3.1).
    """

    name: str
    src: str
    dst: str
    cc: str = "none"
    mtu_bytes: int = 1000
    start_ns: int = 0
    initial_rate_bps: Optional[float] = None
    greedy: bool = True
    cc_params: Optional[Dict[str, Any]] = None
    message_bytes: Optional[int] = None
    message_start_ns: int = 0
    message_count: int = 1
    message_sizes: Optional[str] = None
    fresh_qp: bool = False

    def __post_init__(self) -> None:
        from repro.cc import available_cc

        if self.cc not in available_cc():
            raise ValueError(
                f"flow {self.name!r}: unknown congestion controller {self.cc!r}; "
                f"choose from {available_cc()}"
            )
        if self.cc_params is not None:
            for key, value in self.cc_params.items():
                if not isinstance(key, str):
                    raise TypeError(f"cc_params keys must be strings, got {key!r}")
                if not isinstance(value, (bool, int, float, str)):
                    raise TypeError(
                        f"cc_params[{key!r}] must be a scalar, "
                        f"got {type(value).__name__}"
                    )
        if self.message_bytes is not None and self.message_bytes <= 0:
            raise ValueError("message_bytes must be positive")
        if self.message_sizes is not None:
            from repro.traffic.distributions import DISTRIBUTIONS

            if self.message_sizes not in DISTRIBUTIONS:
                raise ValueError(
                    f"flow {self.name!r}: unknown message_sizes "
                    f"{self.message_sizes!r}; choose from {sorted(DISTRIBUTIONS)}"
                )
            if self.message_bytes is not None:
                raise ValueError("message_sizes draws every size; drop message_bytes")
        if self._sends_messages and self.greedy:
            raise ValueError("a message probe cannot also be greedy; set greedy=False")
        if self.message_start_ns < 0:
            raise ValueError("message_start_ns must be >= 0")
        if self.message_count < 1:
            raise ValueError("message_count must be >= 1")
        if self.message_count > 1 and not self._sends_messages:
            raise ValueError("message_count needs message_bytes or message_sizes")
        if self.fresh_qp and self.message_count == 1:
            raise ValueError("fresh_qp restarts the transfers of a stream; "
                             "set message_count > 1")

    @property
    def _sends_messages(self) -> bool:
        return self.message_bytes is not None or self.message_sizes is not None


#: topology name -> builder; extended via :func:`register_topology`
TOPOLOGIES = (
    "three_tier_clos",
    "single_switch",
    "parking_lot",
    "dumbbell",
    "fabric",
)


@dataclass(frozen=True)
class Scenario:
    """A declarative experiment: topology + flows + timing."""

    topology: str
    flows: Tuple[FlowSpec, ...]
    warmup_ns: int = 0
    duration_ns: int = units.ms(10)
    topology_kwargs: Mapping[str, Any] = field(default_factory=dict)
    label: str = ""
    #: optional telemetry request (trace level, sink, samplers); None
    #: means metrics-only — tracing off, no run-time samplers
    telemetry: Optional[TelemetrySpec] = None
    #: optional fault plan (:mod:`repro.faults`); installed after the
    #: network is built, so the plan is part of the cell spec — and
    #: therefore of the result-cache content hash
    faults: Optional[Any] = None
    #: the invariant guard (an :class:`~repro.invariants.InvariantConfig`):
    #: strict unless the scenario says otherwise, ``None`` runs unguarded.
    #: Part of the cell spec for the same cache-correctness reason as
    #: ``faults``: a strict run and an unguarded run are different cells
    invariants: Optional[InvariantConfig] = InvariantConfig(mode="strict")
    #: optional sharded-execution request (a
    #: :class:`~repro.shard.ShardingSpec`); only meaningful on
    #: ``fabric`` topologies — elsewhere the scenario runs serial.
    #: Sharded and serial results are identical by construction, but
    #: the spec still rides in the cell hash (an explicitly sharded
    #: scenario is a different cell)
    sharding: Optional[Any] = None

    def __post_init__(self) -> None:
        if self.topology not in TOPOLOGIES:
            raise ValueError(
                f"unknown topology {self.topology!r}; choose from {TOPOLOGIES}"
            )
        if not self.flows:
            raise ValueError("a scenario needs at least one flow")
        names = [flow.name for flow in self.flows]
        if len(set(names)) != len(names):
            raise ValueError(f"flow names must be unique, got {names}")
        if self.warmup_ns < 0 or self.duration_ns <= 0:
            raise ValueError("need warmup_ns >= 0 and duration_ns > 0")
        if self.faults is not None:
            from repro.faults.plan import FaultPlan

            if not isinstance(self.faults, FaultPlan):
                raise TypeError(
                    f"faults must be a FaultPlan, got {type(self.faults).__name__}"
                )
        if not isinstance(self.invariants, (InvariantConfig, type(None))):
            raise TypeError(
                "invariants must be an InvariantConfig, "
                f"got {type(self.invariants).__name__}"
            )
        if self.sharding is not None:
            from repro.shard.spec import ShardingSpec

            if not isinstance(self.sharding, ShardingSpec):
                raise TypeError(
                    "sharding must be a ShardingSpec, "
                    f"got {type(self.sharding).__name__}"
                )
            telemetry = self.telemetry
            if telemetry is not None and telemetry.watch is not None:
                raise ValueError(
                    "a watched port lives in one shard; "
                    "TelemetrySpec.watch needs a serial run"
                )
            if telemetry is not None and telemetry.rate_sample_ns is not None:
                raise ValueError(
                    "a flow's rate series is sampled where it is delivered; "
                    "TelemetrySpec.rate_sample_ns needs a serial run"
                )

    def spec(self) -> Dict[str, Any]:
        """The JSON-serializable form (cache key + worker transport)."""
        data = {
            "topology": self.topology,
            "label": self.label,
            "warmup_ns": self.warmup_ns,
            "duration_ns": self.duration_ns,
            "topology_kwargs": encode_value(dict(self.topology_kwargs)),
            "flows": [dataclasses.asdict(flow) for flow in self.flows],
            "telemetry": encode_value(self.telemetry),
            "faults": encode_value(self.faults),
            "invariants": encode_value(self.invariants),
        }
        # emitted only when set, so the content hashes — and therefore
        # the cached results — of every pre-existing scenario stand
        if self.sharding is not None:
            data["sharding"] = encode_value(self.sharding)
        return data

    @classmethod
    def from_spec(cls, data: Mapping[str, Any]) -> "Scenario":
        return cls(
            topology=data["topology"],
            label=data.get("label", ""),
            warmup_ns=data["warmup_ns"],
            duration_ns=data["duration_ns"],
            topology_kwargs=decode_value(data.get("topology_kwargs", {})),
            flows=tuple(FlowSpec(**flow) for flow in data["flows"]),
            telemetry=decode_value(data.get("telemetry")),
            faults=decode_value(data.get("faults")),
            # a missing key is the default guard; an explicit null is None
            invariants=decode_value(
                data.get("invariants", encode_value(cls.invariants))
            ),
            sharding=decode_value(data.get("sharding")),
        )

