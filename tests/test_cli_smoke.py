"""Registry-driven CLI smoke tests.

Every registered experiment must run end-to-end at the tiny ``smoke``
scale, print a non-empty table, and reproduce its pinned digests in
``tests/digests.json``: the table's and every cell's it left in its own
fresh result cache.  Iterating the registry (instead of naming
commands) means a newly registered experiment is covered
automatically.  The figure tests in ``benchmarks/`` read the same
registry entries through their conftest's ``figure(id)``; the tests at
the bottom hold the two callers to one definition.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

from repro import runtime
from repro.cli import main
from repro.runner import REGISTRY, SCENARIOS, digest, executor
from tests.pins import MANIFEST, REPIN, assert_pinned

RESULTS_ENV = runtime.VARS["results_dir"].env
SCALE_ENV = runtime.VARS["scale"].env
CACHE_ENV = runtime.VARS["cache"].env

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def _load_benchmark_conftest():
    spec = importlib.util.spec_from_file_location(
        "benchmarks_conftest", BENCHMARKS / "conftest.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("experiment_id", REGISTRY.ids())
def test_experiment_smoke(experiment_id, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(SCALE_ENV, "smoke")
    monkeypatch.setenv(CACHE_ENV, "on")
    monkeypatch.setenv(RESULTS_ENV, str(tmp_path))  # only this id's cells
    monkeypatch.setattr(executor, "LAST_STATS", None)
    assert main([experiment_id]) == 0
    out = capsys.readouterr().out
    lines = [line for line in out.splitlines() if line.strip()]
    # header banner, column headers, separator, and at least one data row
    assert lines[0].startswith(f"=== {experiment_id}:")
    assert len(lines) >= 4, f"{experiment_id} printed no table:\n{out}"
    table = out.split("\n", 1)[1].removesuffix("\n")
    fresh = digest.of_experiment(table)
    assert_pinned(
        f"experiment {experiment_id}",
        MANIFEST["experiments"].get(experiment_id),
        fresh,
    )
    # all of an id's cells go through one executor batch
    batch = executor.LAST_STATS.total if executor.LAST_STATS else 0
    assert batch == len(fresh["cells"]), (
        f"{experiment_id}: its last executor batch held {batch} "
        f"of its {len(fresh['cells'])} cells"
    )


def test_the_manifest_covers_every_id_and_scenario():
    assert sorted(MANIFEST["experiments"]) == REGISTRY.ids(), REPIN
    assert sorted(MANIFEST["scenarios"]) == SCENARIOS.ids(), REPIN


def test_run_subcommand(monkeypatch, capsys, tmp_path):
    monkeypatch.setenv(SCALE_ENV, "smoke")
    monkeypatch.setenv(RESULTS_ENV, str(tmp_path))
    assert main(["run", "tab14"]) == 0
    assert "1/256" in capsys.readouterr().out
    assert main(["run"]) == 2
    assert "usage" in capsys.readouterr().err


def test_every_id_has_exactly_one_figure_test():
    callers = {}
    for path in sorted(BENCHMARKS.glob("test_*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "figure"
            ):
                (arg,) = node.args
                assert isinstance(arg, ast.Constant), path.name
                callers.setdefault(arg.value, set()).add(path.name)
    assert set(callers) - set(REGISTRY.ids()) == set(), "unregistered ids"
    assert sorted(callers) == REGISTRY.ids(), "ids no figure test judges"
    for experiment_id, files in callers.items():
        assert len(files) == 1, f"{experiment_id} is checked in {sorted(files)}"


@pytest.mark.parametrize("experiment_id", ["tab14", "sec4"])
def test_figure_writes_what_the_cli_prints(
    experiment_id, tmp_path, monkeypatch, capsys
):
    monkeypatch.setenv(SCALE_ENV, "smoke")
    monkeypatch.setenv(RESULTS_ENV, str(tmp_path))
    _load_benchmark_conftest().figure(experiment_id)
    capsys.readouterr()
    assert main([experiment_id]) == 0
    banner, printed = capsys.readouterr().out.split("\n", 1)
    assert banner.startswith(f"=== {experiment_id}:")
    assert (tmp_path / f"{experiment_id}.txt").read_text() == printed
