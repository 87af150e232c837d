"""CC arena: DCQCN against every registered controller in three mazes."""

from conftest import figure


def test_arena_dcqcn_leads_the_league():
    # a failed or violating cell fails the id inside figure()
    result = figure("arena")
    # first in the standings, by a clear margin (mean rank 1.20 against
    # the next best's 2.73 at quick)
    (leader, leader_rank), (_, next_rank) = result.standings()[:2]
    assert leader == "dcqcn"
    assert leader_rank + 1.0 < next_rank
    # the fairest controller where a flow can be starved: the Figure 4
    # victim maze and the Figure 20 parking lot.  The incast maze is
    # not asserted: DCQCN and DCTCP both read 0.998 there.
    for maze in ("victim", "multibottleneck"):
        jain = {cc: result.score(maze, cc).fairness for cc in result.controllers}
        best_other = max(v for cc, v in jain.items() if cc != "dcqcn")
        assert jain["dcqcn"] > best_other, (maze, jain)
