"""Figure 1: TCP vs RDMA throughput, CPU utilization and latency."""

from conftest import figure


def test_fig01_throughput_and_cpu():
    stacks, _ = figure("fig01")
    values = list(stacks.values())
    # paper claims: TCP CPU-bound at small sizes, >20% CPU at line rate;
    # RDMA saturates everywhere with <3% client CPU and ~0 server CPU
    assert values[0].tcp_throughput_gbps < 40
    assert all(v.tcp_cpu_pct > 20 for v in values)
    assert all(v.rdma_throughput_gbps == 40 for v in values)
    assert all(v.rdma_client_cpu_pct < 3 for v in values)
    assert all(v.rdma_server_cpu_pct == 0 for v in values)


def test_fig01_latency():
    _, latency_us = figure("fig01")
    tcp_us = latency_us["TCP"]
    write_us = latency_us["RDMA read/write"]
    send_us = latency_us["RDMA send"]
    assert tcp_us > 10 * write_us  # an order of magnitude apart
    assert write_us < send_us < tcp_us
