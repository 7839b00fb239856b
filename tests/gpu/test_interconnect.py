"""Unit tests for the PCIe ring interconnect."""

import pytest

from repro.errors import SimulationError
from repro.gpu.config import MachineSpec
from repro.gpu.interconnect import HOST, Interconnect
from repro.gpu.stats import MachineStats


@pytest.fixture
def ring():
    stats = MachineStats()
    spec = MachineSpec(
        num_gpus=4, pcie_bandwidth_bytes_per_s=1e9, pcie_latency_s=1e-6
    )
    return Interconnect(spec, stats), stats


class TestRingTopology:
    def test_hops_forward(self, ring):
        ic, _ = ring
        assert ic.ring_hops(0, 1) == 1
        assert ic.ring_hops(0, 3) == 3
        assert ic.ring_hops(3, 0) == 1  # wraps

    def test_zero_hops_same_gpu(self, ring):
        ic, _ = ring
        assert ic.ring_hops(2, 2) == 0

    def test_invalid_endpoint(self, ring):
        ic, _ = ring
        with pytest.raises(SimulationError):
            ic.transfer(0, 9, 10)
        with pytest.raises(SimulationError):
            ic.transfer("gpu0", 1, 10)


class TestTransferAccounting:
    def test_h2d_counted(self, ring):
        ic, stats = ring
        ic.transfer(HOST, 0, 1000)
        assert stats.h2d_bytes == 1000
        assert stats.d2h_bytes == 0

    def test_d2h_counted(self, ring):
        ic, stats = ring
        ic.transfer(2, HOST, 500)
        assert stats.d2h_bytes == 500

    def test_p2p_counts_per_hop(self, ring):
        ic, stats = ring
        ic.transfer(0, 2, 100)  # 2 hops
        assert stats.p2p_bytes == 200

    def test_same_endpoint_free(self, ring):
        ic, stats = ring
        assert ic.transfer(1, 1, 999) == 0.0
        assert stats.traffic_bytes == 0

    def test_transfer_time_model(self, ring):
        ic, _ = ring
        # latency + bytes/bandwidth per hop
        assert ic.transfer_time(1000, hops=1) == pytest.approx(
            1e-6 + 1000 / 1e9
        )
        assert ic.transfer_time(1000, hops=3) == pytest.approx(
            3 * (1e-6 + 1000 / 1e9)
        )

    def test_negative_bytes(self, ring):
        ic, _ = ring
        with pytest.raises(SimulationError):
            ic.transfer(HOST, 0, -5)


class TestBatching:
    def test_batched_transfer_splits(self, ring):
        ic, stats = ring
        ic.batched_transfer(HOST, 0, 2500, batch_bytes=1000)
        assert stats.h2d_bytes == 2500
        assert len(ic.records) == 3  # 1000 + 1000 + 500

    def test_batch_latency_amortization(self):
        spec = MachineSpec(
            num_gpus=4, pcie_bandwidth_bytes_per_s=1e9, pcie_latency_s=1e-6
        )
        many = Interconnect(spec, MachineStats()).batched_transfer(
            HOST, 1, 10000, batch_bytes=100
        )
        one = Interconnect(spec, MachineStats()).batched_transfer(
            HOST, 1, 10000, batch_bytes=10000
        )
        assert many > one  # more batches -> more latency charges
