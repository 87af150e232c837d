"""The experiment and scenario registries: one source of truth for the CLI.

Every reproducible figure/table registers itself via the
:func:`experiment` decorator, as one definition in two parts: the
decorated function computes the result object, and ``table(result)``
renders the text.  ``python -m repro <id>`` prints
``table(entry.compute())``; the ``benchmarks/`` figure tests make the
same two calls and assert on the result.  ``python -m repro list`` and
the smoke tests iterate :data:`REGISTRY` instead of naming commands by
hand.

A simulated id also registers its *arms*: a zero-argument factory
``() -> {arm: (Scenario, seeds)}``, called at compute time (so it
reads the scale policy then, and its imports stay lazy).  For such an
entry the decorated function is the ``reduce({arm: [RunResult]})``
and ``compute()`` is ``reduce(run_arms(id, arms()))``: every cell of
the id in one batch, and a failed cell fails the id.  Any arm also
runs by name, ``<id>/<arm>`` (:func:`resolve`).

:data:`SCENARIOS` is a second instance of the same :class:`Registry`,
holding *named scenarios*: there ``compute()`` builds a declarative
:class:`~repro.runner.spec.Scenario` for the telemetry commands
(``python -m repro trace <name>`` / ``profile <name>``).  Factories,
not instances, so a scenario may consult the scale policy at build
time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: ``() -> {arm: (Scenario, seeds)}``
ArmsFactory = Callable[[], Dict[Any, Tuple[Any, List[int]]]]


def arm_name(key: Any) -> str:
    """How an arm key is written after ``<id>/``: ``("storm", "dcqcn")``
    is ``storm/dcqcn``, ``0.5`` is ``0.5``."""
    return "/".join(map(str, key)) if isinstance(key, tuple) else str(key)


@dataclass(frozen=True)
class Entry:
    """One registered id: what runs, and how its result is printed."""

    id: str
    description: str
    #: ``compute()`` itself, or with ``arms`` the reduce over their runs
    fn: Callable[..., Any]
    #: result -> text; the default prints a compute() that already
    #: returns its text
    table: Callable[[Any], str] = str
    arms: Optional[ArmsFactory] = None

    def compute(self) -> Any:
        if self.arms is None:
            return self.fn()
        from repro.runner.scenario import run_arms

        return self.fn(run_arms(self.id, self.arms()))

    def arm(self, name: str) -> Tuple[Any, List[int]]:
        """``(Scenario, seeds)`` of the arm written ``name``."""
        arms = {} if self.arms is None else self.arms()
        for key, arm in arms.items():
            if arm_name(key) == name:
                return arm
        raise KeyError(
            f"unknown arm {name!r} of {self.id!r}; known: "
            f"{', '.join(map(arm_name, arms)) or 'none'}"
        )

    def run(self) -> str:
        """The text ``python -m repro <id>`` prints."""
        return self.table(self.compute())


class Registry:
    """Ordered mapping of id -> :class:`Entry`."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._entries: Dict[str, Entry] = {}

    def register(
        self,
        entry_id: str,
        description: str,
        table: Callable[[Any], str] = str,
        arms: Optional[ArmsFactory] = None,
    ):
        """Decorator registering ``fn`` (see :class:`Entry`) under ``id``."""

        def decorate(fn: Callable[..., Any]) -> Callable[..., Any]:
            if entry_id in self._entries:
                raise ValueError(f"duplicate {self.kind} id {entry_id!r}")
            self._entries[entry_id] = Entry(entry_id, description, fn, table, arms)
            return fn

        return decorate

    def get(self, entry_id: str) -> Entry:
        try:
            return self._entries[entry_id]
        except KeyError:
            raise KeyError(
                f"unknown {self.kind} {entry_id!r}; "
                f"known: {', '.join(self.ids())}"
            ) from None

    def ids(self) -> List[str]:
        return sorted(self._entries)

    def __iter__(self) -> Iterator[Entry]:
        return iter(self._entries[i] for i in self.ids())

    def __contains__(self, entry_id: str) -> bool:
        return entry_id in self._entries

    def __len__(self) -> int:
        return len(self._entries)


#: the process-wide registry (populated by ``repro.experiments.catalog``)
REGISTRY = Registry("experiment")

#: decorator shorthand: ``@experiment("fig03", "PFC unfairness", table=...)``
experiment = REGISTRY.register

#: named scenarios for the telemetry commands (also in the catalog)
SCENARIOS = Registry("scenario")

#: decorator shorthand: ``@scenario("smoke", "2-to-1 incast ...")``
scenario = SCENARIOS.register


def resolve(target: str) -> Tuple[Any, List[int]]:
    """``(Scenario, seeds)`` of ``<id>/<arm>``, or of a named scenario,
    which runs at seed 0.  A ``KeyError`` lists what ``target`` could be."""
    experiment_id, slash, arm = target.partition("/")
    if slash:
        return REGISTRY.get(experiment_id).arm(arm)
    return SCENARIOS.get(target).compute(), [0]
