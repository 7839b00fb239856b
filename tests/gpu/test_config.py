"""Unit tests for machine/GPU specifications."""

import pytest

from repro.errors import ConfigurationError
from repro.gpu.config import SCALED_MACHINE, GPUSpec, MachineSpec


class TestGPUSpec:
    def test_paper_defaults(self):
        spec = GPUSpec()
        assert spec.num_smxs == 26          # K80
        assert spec.global_memory_bytes == 24 * 1024 ** 3

    def test_threads_per_smx(self):
        spec = GPUSpec(threads_per_warp=32, warp_slots_per_smx=4)
        assert spec.threads_per_smx == 128

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_smxs": 0},
            {"threads_per_warp": 0},
            {"warp_slots_per_smx": 0},
            {"global_memory_bytes": 0},
            {"clock_hz": 0},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigurationError):
            GPUSpec(**kwargs)


class TestMachineSpec:
    def test_paper_machine_is_4_gpus(self):
        assert MachineSpec().num_gpus == 4

    def test_num_streams_formula(self):
        # N_m = M_G / S_b (Section 3.2.2)
        spec = MachineSpec(
            gpu=GPUSpec(global_memory_bytes=64 * 1024 ** 2),
            transfer_batch_bytes=16 * 1024 ** 2,
        )
        assert spec.num_streams == 4

    def test_scaled_copy(self):
        two = SCALED_MACHINE.scaled(2)
        assert two.num_gpus == 2
        assert two == MachineSpec(
            num_gpus=2,
            gpu=SCALED_MACHINE.gpu,
            pcie_latency_s=SCALED_MACHINE.pcie_latency_s,
            transfer_batch_bytes=SCALED_MACHINE.transfer_batch_bytes,
        )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_gpus": 0},
            {"pcie_bandwidth_bytes_per_s": 0},
            {"pcie_latency_s": -1},
            {"transfer_batch_bytes": 0},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigurationError):
            MachineSpec(**kwargs)

    def test_presets_valid(self):
        for spec in (MachineSpec(), SCALED_MACHINE):
            assert spec.num_gpus >= 1
