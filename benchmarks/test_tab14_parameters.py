"""Table 14: the deployed DCQCN parameter values."""

from conftest import figure

from repro import units


def test_tab14_deployed_parameters():
    params = figure("tab14")
    assert params.rate_increase_timer_ns == units.us(55)
    assert params.byte_counter_bytes == units.mb(10)
    assert params.kmax_bytes == units.kb(200)
    assert params.kmin_bytes == units.kb(5)
    assert params.pmax == 0.01
    assert params.g == 1 / 256
