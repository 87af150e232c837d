"""The checked-in result-digest manifest, ``tests/digests.json``.

The CLI smoke test and the strict named-scenario test hold what they
just ran to it (see :mod:`repro.runner.digest`).
"""

import json
from pathlib import Path

MANIFEST = json.loads(Path(__file__).with_name("digests.json").read_text())

#: how a meant move is recorded
REPIN = (
    "if the move is meant, regenerate with "
    "`python -m repro digest > tests/digests.json` "
    "and say in CHANGES.md why each entry moved"
)


def moved(pinned, fresh, path=""):
    """Where two parts of a manifest differ, as ``/``-joined key paths:
    a digest that changed, or one only the fresh (``new``) or the
    pinned (``gone``) side has."""
    if isinstance(pinned, dict) and isinstance(fresh, dict):
        return [
            name
            for key in sorted(set(pinned) | set(fresh))
            for name in moved(
                pinned.get(key), fresh.get(key), f"{path}/{key}" if path else key
            )
        ]
    path = path or "entry"
    if pinned == fresh:
        return []
    if pinned is None:
        return [f"{path} (new)"]
    if fresh is None:
        return [f"{path} (gone)"]
    return [path]


def assert_pinned(what: str, pinned, fresh) -> None:
    """``fresh`` equals the ``pinned`` part of :data:`MANIFEST`, or the
    failure names every digest that moved."""
    names = moved(pinned, fresh)
    assert not names, f"{what} moved: {', '.join(names)}; {REPIN}"
