"""Ablations of the design choices DESIGN.md calls out.

* DCQCN vs QCN vs PFC-only on a single L2 domain (§2.3: QCN's control
  law works — its problem is L3 deployability).
* Pmax sensitivity at 16:1 incast: Table 14's OCR-ambiguous Pmax (1%)
  pins the deep-incast queue near Kmax, while Pmax = 10% recovers the
  §6.1 "queue never exceeds ~100 KB" claim.
* Timer jitter: without firmware timer skew, N synchronized flows cut
  and recover in phase and queue oscillation is overstated.
"""

from conftest import figure

from repro import units


def test_ablation_qcn_vs_dcqcn():
    results = figure("ablations")["schemes"]
    # all three keep the single switch lossless and utilized
    for result in results.values():
        assert result.total_gbps > 30
    # DCQCN converges at least as fairly as QCN on its home turf
    assert results["dcqcn"].fairness > 0.9
    assert results["qcn"].fairness > 0.6


def test_ablation_pmax_queue_tail():
    tails = figure("ablations")["pmax_q90_kb"]
    assert tails[0.10] < tails[0.01]
    assert tails[0.10] < 120


def test_ablation_timer_jitter():
    stds = figure("ablations")["jitter_std_kb"]
    # jitter must not destabilize the queue (and typically calms it)
    assert stds[units.us(4)] < stds[0] * 1.5
