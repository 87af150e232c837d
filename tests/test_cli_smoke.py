"""Registry-driven CLI smoke tests.

Every registered experiment must run end-to-end at the tiny ``smoke``
scale and print a non-empty table.  Iterating the registry (instead of
naming commands) means a newly registered experiment is covered
automatically.
"""

import pytest

from repro import runtime
from repro.cli import main
from repro.runner import REGISTRY

RESULTS_ENV = runtime.VARS["results_dir"].env
SCALE_ENV = runtime.VARS["scale"].env


@pytest.fixture(scope="module")
def smoke_results_dir(tmp_path_factory):
    """One shared cache dir so repeated cells amortize within the module."""
    return tmp_path_factory.mktemp("smoke-results")


@pytest.mark.parametrize("experiment_id", REGISTRY.ids())
def test_experiment_smoke(experiment_id, smoke_results_dir, monkeypatch, capsys):
    monkeypatch.setenv(SCALE_ENV, "smoke")
    monkeypatch.setenv(RESULTS_ENV, str(smoke_results_dir))
    assert main([experiment_id]) == 0
    out = capsys.readouterr().out
    lines = [line for line in out.splitlines() if line.strip()]
    # header banner, column headers, separator, and at least one data row
    assert lines[0].startswith(f"=== {experiment_id}:")
    assert len(lines) >= 4, f"{experiment_id} printed no table:\n{out}"


def test_run_subcommand(monkeypatch, capsys, tmp_path):
    monkeypatch.setenv(SCALE_ENV, "smoke")
    monkeypatch.setenv(RESULTS_ENV, str(tmp_path))
    assert main(["run", "tab14"]) == 0
    assert "1/256" in capsys.readouterr().out
    assert main(["run"]) == 2
    assert "usage" in capsys.readouterr().err
