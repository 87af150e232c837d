"""repro.runtime: one table, one parsing rule, one reader of the environment."""

import dataclasses
import os
import re
from pathlib import Path

import pytest

from repro import runtime
from repro.cli import _export_env, build_parser
from repro.runner import Cell, execute
from repro.runtime import VARS, RuntimeConfig

HERE = "tests.test_runtime"

DEFAULTS = RuntimeConfig(
    scale="quick",
    jobs=1,
    shards=1,
    cache=True,
    results_dir="results",
    run_timeout=None,
)

#: field -> ({raw text: parsed value}, [texts that must be refused])
FORMS = {
    "scale": ({"smoke": "smoke", "quick": "quick"}, ["enormous", " FULL "]),
    "jobs": ({"3": 3, " Auto ": os.cpu_count() or 1}, ["0", "-2", "many", "1.5"]),
    "shards": ({"1": 1, " 4 ": 4}, ["0", "-3", "many"]),
    "cache": ({"on": True, " OFF ": False}, ["offf", "0", "maybe"]),
    # a path keeps its case and its inner spaces; nothing non-empty is refused
    "results_dir": ({" /tmp/Some Dir ": "/tmp/Some Dir"}, []),
    "run_timeout": (
        {"42.5": 42.5, "1E3": 1000.0, " Off ": "off"},
        ["soon", "-3", "0", "nan", "none"],
    ),
}


def config_cell(tag):
    """What a pool child's ``runtime.current()`` says (``tag`` keeps cells distinct)."""
    return dataclasses.asdict(runtime.current())


def test_the_table_and_the_dataclass_name_the_same_six_fields():
    assert [f.name for f in dataclasses.fields(RuntimeConfig)] == list(VARS)
    assert list(VARS) == list(FORMS)
    assert len({var.env for var in VARS.values()}) == 6


def test_an_empty_environment_gives_the_documented_defaults():
    assert RuntimeConfig.from_env({}) == DEFAULTS
    assert DEFAULTS == RuntimeConfig(**{name: var.default for name, var in VARS.items()})


@pytest.mark.parametrize("field", list(VARS))
@pytest.mark.parametrize("blank", ["", "   ", "\t\n"])
def test_empty_or_blank_means_unset(field, blank):
    assert RuntimeConfig.from_env({VARS[field].env: blank}) == DEFAULTS


@pytest.mark.parametrize(
    "field, raw, value",
    [(field, raw, value) for field, (valid, _) in FORMS.items() for raw, value in valid.items()],
)
def test_every_valid_form_parses_stripped_and_case_folded(field, raw, value):
    config = RuntimeConfig.from_env({VARS[field].env: raw})
    assert config == dataclasses.replace(DEFAULTS, **{field: value})


@pytest.mark.parametrize(
    "field, raw",
    [(field, raw) for field, (_, invalid) in FORMS.items() for raw in invalid],
)
def test_anything_else_is_refused_naming_the_variable(field, raw, monkeypatch):
    var = VARS[field]
    with pytest.raises(ValueError, match=re.escape(f"{var.env} must be {var.accepts}")):
        RuntimeConfig.from_env({var.env: raw})
    # one bad variable fails current() whichever field the caller wanted
    monkeypatch.setenv(var.env, raw)
    with pytest.raises(ValueError, match=var.env):
        runtime.current()


def test_current_is_a_fresh_parse_on_every_call(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "smoke")
    assert runtime.current().scale == "smoke"
    monkeypatch.setenv("REPRO_SCALE", "quick")
    assert runtime.current().scale == "quick"
    monkeypatch.setenv("REPRO_SCALE", "smoke")
    assert runtime.current().scale == "smoke"
    monkeypatch.delenv("REPRO_SCALE")
    assert runtime.current().scale == "quick"


def test_exported_options_come_back_here_and_in_a_pool_child(monkeypatch, tmp_path):
    for var in VARS.values():
        # blank is unset, and monkeypatch then undoes what _export_env writes
        monkeypatch.setenv(var.env, "")
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
    args = build_parser().parse_args(
        ["arena", "--scale", "smoke", "--jobs", "2", "--no-cache",
         "--timeout", "300", "--shards", "3"]
    )
    _export_env(args)
    expected = RuntimeConfig(
        scale="smoke", jobs=2, shards=3, cache=False,
        results_dir=str(tmp_path), run_timeout=300.0,
    )
    assert runtime.current() == expected
    cells = [Cell(f"{HERE}:config_cell", {"tag": tag}) for tag in (0, 1)]
    assert execute(cells, jobs=2, cache=False) == [dataclasses.asdict(expected)] * 2


def test_an_option_not_given_leaves_its_variable_alone(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "smoke")
    monkeypatch.setenv("REPRO_CACHE", "off")
    _export_env(build_parser().parse_args(["fig03"]))
    assert (runtime.current().scale, runtime.current().cache) == ("smoke", False)


def test_design_md_table_matches_the_code():
    """DESIGN.md's one table of variables is checked, not trusted."""
    design = (Path(__file__).parents[1] / "DESIGN.md").read_text()
    rows = [
        [cell.strip().strip("`") for cell in line.strip().strip("|").split("|")]
        for line in design.splitlines()
        if line.startswith("| `REPRO_")
    ]

    def shown(default):
        if default is True:
            return "on"
        return "unset" if default is None else str(default)

    assert [row[:4] for row in rows] == [
        [var.env, var.flag or "none", name, shown(var.default)]
        for name, var in VARS.items()
    ]
