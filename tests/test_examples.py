"""The example scripts stay runnable.

Each example is imported, so a name it takes from ``repro`` that no
longer exists fails here; the cheapest (quickstart) is executed end to
end.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).parent.parent / "examples").glob("*.py"))


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_compiles(path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # main() runs only under __main__
    assert callable(module.main)


def test_examples_exist():
    names = {path.name for path in EXAMPLES}
    assert "quickstart.py" in names
    assert len(names) >= 3  # quickstart + at least two scenarios


def test_quickstart_runs_end_to_end(tmp_path):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES[0].parent / "quickstart.py")],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert "bottleneck queue peak" in result.stdout
    assert "PFC PAUSE frames sent by the switch: 0" in result.stdout
