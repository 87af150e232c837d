"""The experiment and scenario registries: one source of truth for the CLI.

Every reproducible figure/table registers itself via the
:func:`experiment` decorator, as one definition in two parts: the
decorated zero-argument ``compute()`` returns the result object, and
``table(result)`` renders the text.  ``python -m repro <id>`` prints
``table(compute())``; the ``benchmarks/`` figure tests make the same
two calls and assert on the result.  ``python -m repro list`` and the
smoke tests iterate :data:`REGISTRY` instead of naming commands by hand.

:data:`SCENARIOS` is a second instance of the same :class:`Registry`,
holding *named scenarios*: there ``compute()`` builds a declarative
:class:`~repro.runner.spec.Scenario` for the telemetry commands
(``python -m repro trace <name>`` / ``profile <name>``).  Factories,
not instances, so a scenario may consult the scale policy at build
time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List


@dataclass(frozen=True)
class Entry:
    """One registered id: what runs, and how its result is printed."""

    id: str
    description: str
    compute: Callable[[], Any]
    #: result -> text; the default prints a compute() that already
    #: returns its text
    table: Callable[[Any], str] = str

    def run(self) -> str:
        """The text ``python -m repro <id>`` prints."""
        return self.table(self.compute())


class Registry:
    """Ordered mapping of id -> :class:`Entry`."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._entries: Dict[str, Entry] = {}

    def register(
        self, entry_id: str, description: str, table: Callable[[Any], str] = str
    ):
        """Decorator registering a zero-argument ``compute`` under ``id``."""

        def decorate(compute: Callable[[], Any]) -> Callable[[], Any]:
            if entry_id in self._entries:
                raise ValueError(f"duplicate {self.kind} id {entry_id!r}")
            self._entries[entry_id] = Entry(entry_id, description, compute, table)
            return compute

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
