"""Spans recorded by the benchmark's own wrappers (traced runs only).

A :class:`Recorder` patches wrappers around public callables of the
program, named as ``"package.module:attr.path"``.  Each name is
resolved when :meth:`Recorder.wrap` is called, in the module that looks
it up at run time, so an untraced run executes unpatched code.  A name
that no longer resolves is remembered in :attr:`Recorder.unresolved`
and costs one warning line, never a failed run: later PRs rename
internals and may not edit ``bench/``.

A span is ``{"id", "name", "parent", "run", "start_s", "end_s"}``;
spans are kept in memory and written out by the caller at exit.  Self
time is a span's duration minus the part its direct children cover
(the program is single-threaded inside one process, so children do not
overlap).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager
from typing import Any, Dict, List, Optional, Tuple


def resolve(target: str) -> Tuple[Any, str, Any]:
    """``"pkg.mod:a.b"`` -> ``(holder, "b", holder.b)``.

    Raises ``ImportError`` / ``AttributeError`` when the name is gone.
    """
    module_name, _, path = target.partition(":")
    holder = importlib.import_module(module_name)
    *parents, leaf = path.split(".")
    for name in parents:
        holder = getattr(holder, name)
    return holder, leaf, getattr(holder, leaf)


def resolve_or_none(target: str) -> Any:
    """The named object, or ``None`` plus one warning line."""
    try:
        return resolve(target)[2]
    except (ImportError, AttributeError) as exc:
        warn(f"{target} does not resolve ({exc})")
        return None


def warn(message: str) -> None:
    print(f"bench: warning: {message}", file=sys.stderr)


class Recorder:
    """In-memory span store plus the patching that feeds it."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[Dict[str, Any]] = []
        #: span names whose wrap target did not resolve
        self.unresolved: set = set()
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str):
        row = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
            "start_s": time.perf_counter(),
            "end_s": None,
        }
        self.spans.append(row)
        self._stack.append(row["id"])
        try:
            yield row
        finally:
            row["end_s"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, target: str, name: str) -> bool:
        """Patch ``target`` so every call records a span called ``name``."""
        try:
            holder, leaf, fn = resolve(target)
        except (ImportError, AttributeError) as exc:
            self.unresolved.add(name)
            warn(f"{name}: {target} does not resolve ({exc})")
            return False

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        setattr(holder, leaf, traced)
        return True

    # --- reading ----------------------------------------------------------

    def total_s(self, name: str) -> Optional[float]:
        """Summed duration of the spans called ``name``.

        ``None`` when the wrap target was missing; ``0.0`` when it
        resolved but the workload never called it.
        """
        if name in self.unresolved:
            return None
        return sum(
            s["end_s"] - s["start_s"] for s in self.spans if s["name"] == name
        )

    def self_s(self, name: str) -> Optional[float]:
        """Duration of the spans called ``name`` minus their children."""
        if name in self.unresolved:
            return None
        ids = {s["id"] for s in self.spans if s["name"] == name}
        covered = sum(
            s["end_s"] - s["start_s"] for s in self.spans if s["parent"] in ids
        )
        return self.total_s(name) - covered
