"""The names the benchmark harness wraps still resolve in the program.

``bench/child.py`` times the run by patching callables it names as
``"package.module:attr"``; a name that stops resolving turns its
per-layer metric into ``null`` without failing the benchmark.  This
test reads the harness's tables, and edits nothing under ``bench/``.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def bench(monkeypatch):
    """``(child, spans)`` loaded from ``bench/``, leaving ``sys.path``
    and ``sys.modules`` as they were."""
    monkeypatch.setattr(sys, "path", list(sys.path))  # child.py inserts bench/
    modules = {}
    for name in ("spans", "child"):
        spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
        modules[name] = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, name, modules[name])
        spec.loader.exec_module(modules[name])
    return modules["child"], modules["spans"]


def test_every_span_target_resolves(bench, capsys):
    child, spans = bench
    unresolved = [t for t in child.SPAN_TARGETS if spans.resolve_or_none(t) is None]
    assert unresolved == [], capsys.readouterr().err


def test_every_profiler_site_resolves(bench, capsys):
    child, spans = bench
    unresolved = [
        target
        for target, *_ in child.PROFILER_SITES
        if spans.resolve_or_none(target) is None
    ]
    assert unresolved == [], capsys.readouterr().err
