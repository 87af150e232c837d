"""Figure 11: fluid-model parameter sweeps for convergence."""

import pytest
from conftest import figure

from repro.experiments.sweeps import FIG11_PANELS


@pytest.mark.parametrize("panel", sorted(FIG11_PANELS))
def test_fig11_sweep(panel):
    result = figure("fig11")[panel]
    diffs = result.final_diff_gbps()
    if panel == "byte_counter":
        # slowing the byte counter (150 KB -> 10 MB) shrinks the gap
        assert diffs[-1] < diffs[0]
    elif panel == "timer":
        # the 55 us timer converges; the 1.5 ms strawman does not
        assert diffs[-1] < diffs[0] / 3
    elif panel == "pmax":
        # probabilistic marking beats cut-off (Pmax = 1)
        assert min(diffs[1:]) < diffs[0]
    else:  # kmax: widening the RED segment changes convergence
        assert len(diffs) == len(result.values)
