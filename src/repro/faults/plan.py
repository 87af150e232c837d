"""Declarative fault plans: what goes wrong, where, and when.

A :class:`FaultPlan` is a pure description of the faults one run
suffers — a tuple of timed *injectors* plus an optional
:class:`WatchdogConfig`.  Like a :class:`~repro.runner.spec.Scenario`
(which carries a plan in its ``faults`` field), a plan is frozen,
JSON-serializable and free of simulator state, so it participates in
the result-cache content hash and ships to worker processes unchanged.

The injector vocabulary mirrors the paper's deployment war stories:

================  ==========================================================
injector          failure mode
================  ==========================================================
``LinkFlap``      a cable goes dark and comes back (down/up schedule)
``ErrorBurst``    a time-windowed CRC error-rate burst on a marginal link
                  (the §7 non-congestion losses, but transient)
``PauseStorm``    a malfunctioning NP asserts PFC PAUSE on its uplink —
                  the slow-receiver pathology that collateral-damages
                  victim flows sharing upstream ports
``CnpImpairment`` loss / delay / jitter on the reverse CNP path (the
                  feedback channel DCQCN's stability analysis assumes
                  is clean)
================  ==========================================================

Each injector exposes ``windows(horizon_ns)`` — the list of
``(start_ns, end_ns)`` intervals it is active, clamped to the run
horizon — and a ``kind`` name used in trace events and hand-written
plan files (:meth:`FaultPlan.to_json` / :meth:`FaultPlan.from_json`,
the format behind ``python -m repro run --faults plan.json``).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, ClassVar, Dict, List, Mapping, Optional, Tuple

from repro import units

#: friendly kind name -> injector class (for plan files / CLI listings)
INJECTOR_KINDS: Dict[str, type] = {}


def _register(cls: type) -> type:
    INJECTOR_KINDS[cls.kind] = cls
    return cls


def _schedule(
    start_ns: int, duration_ns: int, period_ns: int, count: int, horizon_ns: int
) -> List[Tuple[int, int]]:
    """Expand a (possibly repeating) schedule, clamped to the horizon."""
    out: List[Tuple[int, int]] = []
    for i in range(count):
        start = start_ns + i * period_ns
        if start >= horizon_ns:
            break
        out.append((start, min(start + duration_ns, horizon_ns)))
        if period_ns <= 0:
            break
    return out


def _check_repeat(name: str, duration_ns: int, period_ns: int, count: int) -> None:
    if duration_ns <= 0:
        raise ValueError(f"{name}: duration must be positive, got {duration_ns}")
    if count < 1:
        raise ValueError(f"{name}: count must be >= 1, got {count}")
    if count > 1 and period_ns <= duration_ns:
        raise ValueError(
            f"{name}: repeating windows need period_ns > duration "
            f"({period_ns} <= {duration_ns})"
        )


@_register
@dataclass(frozen=True)
class LinkFlap:
    """Take the ``a``--``b`` cable down for ``down_ns``, ``count`` times.

    Both directions go dark together: nothing new starts serializing,
    and frames finishing serialization while the link is down are lost
    (``link.down_drops``).  Endpoints are device names (``"T1"``,
    ``"L1"``) or host locators (``"3:0"``, ``"H1"``).
    """

    kind: ClassVar[str] = "link_flap"
    a: str
    b: str
    start_ns: int
    down_ns: int
    period_ns: int = 0
    count: int = 1

    def __post_init__(self) -> None:
        _check_repeat("link_flap", self.down_ns, self.period_ns, self.count)
        if self.start_ns < 0:
            raise ValueError(f"link_flap: start_ns must be >= 0, got {self.start_ns}")

    def windows(self, horizon_ns: int) -> List[Tuple[int, int]]:
        return _schedule(
            self.start_ns, self.down_ns, self.period_ns, self.count, horizon_ns
        )


@_register
@dataclass(frozen=True)
class ErrorBurst:
    """A windowed CRC error-rate burst on the ``a`` -> ``b`` direction.

    During each window the transmit port on ``a`` facing ``b`` drops
    frames with probability ``rate``; afterwards the port's previous
    error rate is restored.  The burst RNG stream is derived from the
    run seed, so the burst is deterministic and cache-keyed.
    """

    kind: ClassVar[str] = "error_burst"
    a: str
    b: str
    rate: float
    start_ns: int
    duration_ns: int
    period_ns: int = 0
    count: int = 1

    def __post_init__(self) -> None:
        if not 0.0 < self.rate < 1.0:
            raise ValueError(f"error_burst: rate must be in (0, 1), got {self.rate}")
        _check_repeat("error_burst", self.duration_ns, self.period_ns, self.count)

    def windows(self, horizon_ns: int) -> List[Tuple[int, int]]:
        return _schedule(
            self.start_ns, self.duration_ns, self.period_ns, self.count, horizon_ns
        )


@_register
@dataclass(frozen=True)
class PauseStorm:
    """A malfunctioning receiver NP asserts PAUSE on its uplink.

    During each window the host's NIC sends PFC PAUSE for ``priority``
    up to its ToR every ``refresh_ns`` (real storms are refresh trains;
    the cadence also shows up in ``pfc.pause_rx``), then a RESUME at
    the window end.  The paused ToR port backs traffic into the shared
    buffer and the cascade propagates upstream — the paper's
    slow-receiver / pause-storm pathology.
    """

    kind: ClassVar[str] = "pause_storm"
    host: str
    start_ns: int
    duration_ns: int
    priority: int = 0
    refresh_ns: int = units.us(65)
    period_ns: int = 0
    count: int = 1

    def __post_init__(self) -> None:
        _check_repeat("pause_storm", self.duration_ns, self.period_ns, self.count)
        if not 0 <= self.priority < 8:
            raise ValueError(f"pause_storm: priority must be 0..7, got {self.priority}")
        if self.refresh_ns <= 0:
            raise ValueError(
                f"pause_storm: refresh_ns must be positive, got {self.refresh_ns}"
            )

    def windows(self, horizon_ns: int) -> List[Tuple[int, int]]:
        return _schedule(
            self.start_ns, self.duration_ns, self.period_ns, self.count, horizon_ns
        )


@_register
@dataclass(frozen=True)
class CnpImpairment:
    """Loss / delay / jitter on the reverse CNP path into ``host``.

    ``host`` is the *sender* whose incoming CNPs are impaired: each CNP
    is dropped with ``drop_rate``, else delayed by ``delay_ns`` plus a
    uniform 0..``jitter_ns`` draw.  ``duration_ns=0`` means the rest of
    the run.
    """

    kind: ClassVar[str] = "cnp_impairment"
    host: str
    drop_rate: float = 0.0
    delay_ns: int = 0
    jitter_ns: int = 0
    start_ns: int = 0
    duration_ns: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.drop_rate < 1.0:
            raise ValueError(
                f"cnp_impairment: drop_rate must be in [0, 1), got {self.drop_rate}"
            )
        if self.delay_ns < 0 or self.jitter_ns < 0:
            raise ValueError("cnp_impairment: delay_ns and jitter_ns must be >= 0")
        if self.drop_rate == 0.0 and self.delay_ns == 0 and self.jitter_ns == 0:
            raise ValueError(
                "cnp_impairment: set at least one of drop_rate, delay_ns, jitter_ns"
            )
        if self.start_ns < 0 or self.duration_ns < 0:
            raise ValueError("cnp_impairment: start_ns and duration_ns must be >= 0")

    def windows(self, horizon_ns: int) -> List[Tuple[int, int]]:
        if self.start_ns >= horizon_ns:
            return []
        end = horizon_ns if self.duration_ns <= 0 else min(
            self.start_ns + self.duration_ns, horizon_ns
        )
        return [(self.start_ns, end)]


@dataclass(frozen=True)
class WatchdogConfig:
    """Deadlock-watchdog cadence: scan every ``scan_ns``; flag a global
    stall after ``stall_ticks`` consecutive no-progress scans."""

    scan_ns: int = units.us(100)
    stall_ticks: int = 5

    def __post_init__(self) -> None:
        if self.scan_ns <= 0:
            raise ValueError(f"watchdog: scan_ns must be positive, got {self.scan_ns}")
        if self.stall_ticks < 1:
            raise ValueError(
                f"watchdog: stall_ticks must be >= 1, got {self.stall_ticks}"
            )


@dataclass(frozen=True)
class FaultPlan:
    """The full fault story of one run.

    ``recovery_sample_ns`` paces the recovery tracker's goodput samples
    (0 = auto: the run horizon / 256, at least 1 µs).
    """

    injectors: Tuple[Any, ...] = ()
    watchdog: Optional[WatchdogConfig] = None
    recovery_sample_ns: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "injectors", tuple(self.injectors))
        kinds = tuple(INJECTOR_KINDS.values())
        for injector in self.injectors:
            if not isinstance(injector, kinds):
                raise TypeError(
                    f"not a fault injector: {injector!r}; "
                    f"choose from {sorted(INJECTOR_KINDS)}"
                )
        if self.recovery_sample_ns < 0:
            raise ValueError(
                f"recovery_sample_ns must be >= 0, got {self.recovery_sample_ns}"
            )

    def windows(self, horizon_ns: int) -> List[Tuple[int, int]]:
        """All fault windows merged into disjoint sorted intervals."""
        spans: List[Tuple[int, int]] = []
        for injector in self.injectors:
            spans.extend(injector.windows(horizon_ns))
        spans.sort()
        merged: List[Tuple[int, int]] = []
        for start, end in spans:
            if merged and start <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], end))
            else:
                merged.append((start, end))
        return merged

    def to_json(self) -> Dict[str, Any]:
        """The plan-file form (``kind``-tagged injector dicts)."""
        return {
            "injectors": [
                {
                    "kind": injector.kind,
                    **{
                        fld.name: getattr(injector, fld.name)
                        for fld in dataclasses.fields(injector)
                    },
                }
                for injector in self.injectors
            ],
            "watchdog": (
                dataclasses.asdict(self.watchdog)
                if self.watchdog is not None
                else None
            ),
            "recovery_sample_ns": self.recovery_sample_ns,
        }

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "FaultPlan":
        injectors = []
        for item in data.get("injectors", []):
            item = dict(item)
            kind = item.pop("kind", None)
            try:
                injector_cls = INJECTOR_KINDS[kind]
            except KeyError:
                raise ValueError(
                    f"unknown fault kind {kind!r}; choose from "
                    f"{sorted(INJECTOR_KINDS)}"
                ) from None
            injectors.append(injector_cls(**item))
        watchdog = data.get("watchdog")
        return cls(
            injectors=tuple(injectors),
            watchdog=WatchdogConfig(**watchdog) if watchdog is not None else None,
            recovery_sample_ns=data.get("recovery_sample_ns", 0),
        )
