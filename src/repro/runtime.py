"""The run-time configuration: every ``REPRO_*`` variable, read here.

:data:`VARS` is the one table of what can be set from outside a run
(field, variable, CLI flag, default, parser).  :func:`current` parses
all of it on every call (six dict lookups, reached per cell and per
experiment build, never per packet), so there is nothing to reset
between tests and a forked pool or shard child sees what its parent
exported.  The environment is only the transport: ``repro.cli``
writes it from the same table, and nothing else in ``repro`` reads
``os.environ``.

One rule for every variable: the value is stripped; empty means unset;
words and numbers match case-insensitively (a path keeps its case);
anything else raises ``ValueError`` naming the variable and what it
accepts, from the first :func:`current` of the process, whichever
field was wanted.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import (
    Any, Callable, Dict, Mapping, NamedTuple, Optional, Sequence, Tuple, Union,
)

#: recognised run scales, smallest first
SCALES = ("smoke", "quick")


def _one_of(words: Sequence[str]) -> Tuple[Callable[[str], str], str]:
    """``(parse, accepts)`` for a variable that takes one of ``words``."""

    def parse(text: str) -> str:
        if text.lower() not in words:
            raise ValueError(text)
        return text.lower()

    return parse, "one of " + ", ".join(words)


def _on_off(text: str) -> bool:
    if text.lower() not in ("on", "off"):
        raise ValueError(text)
    return text.lower() == "on"


def _count(text: str) -> int:
    count = int(text)
    if count < 1:
        raise ValueError(text)
    return count


def _jobs(text: str) -> int:
    return (os.cpu_count() or 1) if text.lower() == "auto" else _count(text)


def _budget(text: str) -> Union[float, str]:
    if text.lower() == "off":
        return "off"
    seconds = float(text)
    if not seconds > 0:
        raise ValueError(text)
    return seconds


class Var(NamedTuple):
    """One externally settable value: where it comes from, how it parses."""

    env: str
    flag: Optional[str]  # the CLI option that exports it, if any
    default: Any
    parse: Callable[[str], Any]
    accepts: str


#: RuntimeConfig field -> its variable, in DESIGN.md's table order
VARS: Dict[str, Var] = {
    "scale": Var("REPRO_SCALE", "--scale", "quick", *_one_of(SCALES)),
    "jobs": Var("REPRO_JOBS", "--jobs", 1, _jobs, "a positive integer or 'auto'"),
    "shards": Var("REPRO_SHARDS", "--shards", 1, _count, "a positive integer"),
    "cache": Var("REPRO_CACHE", "--no-cache", True, _on_off, "'on' or 'off'"),
    "results_dir": Var("REPRO_RESULTS_DIR", None, "results", str, "a directory path"),
    "run_timeout": Var(
        "REPRO_RUN_TIMEOUT", "--timeout", None, _budget, "positive seconds or 'off'"
    ),
}


@dataclass(frozen=True)
class RuntimeConfig:
    """What the environment asked of this run (see :data:`VARS`)."""

    #: run scale; :func:`repro.runner.scale.pick` and the per-scale
    #: timeout table derive from it
    scale: str
    #: worker processes for cell fan-out (``auto`` = one per core)
    jobs: int
    #: shard workers for a never-cached inline run (``repro run
    #: <scenario>``; a traced or profiled run stays serial); a cached
    #: cell shards only by the ``ShardingSpec`` in its own hash
    shards: int
    #: whether ``execute`` consults and fills ``<results_dir>/.cache/``
    cache: bool
    #: where tables and the result cache go
    results_dir: str
    #: per-cell wall-clock budget in seconds; ``"off"`` for none, ``None``
    #: for the per-scale default
    run_timeout: Union[float, str, None]

    @classmethod
    def from_env(cls, environ: Mapping[str, str] = os.environ) -> "RuntimeConfig":
        values = {}
        for name, var in VARS.items():
            text = environ.get(var.env, "").strip()
            if not text:
                values[name] = var.default
                continue
            try:
                values[name] = var.parse(text)
            except ValueError:
                raise ValueError(
                    f"{var.env} must be {var.accepts}, got {text!r}"
                ) from None
        return cls(**values)


def current() -> RuntimeConfig:
    """The configuration in force now: a fresh parse of the environment."""
    return RuntimeConfig.from_env()
