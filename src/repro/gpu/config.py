"""Hardware specifications for the simulated machine.

Defaults mirror the paper's testbed (Section 4): four NVIDIA TESLA K80
boards — 26 SMXs and 24 GB on-board memory each — on a host with 64 GB of
RAM and PCIe 3.0 x16 links. Capacities are kept in real units; only the
graph sizes are scaled down, so occupancy-style effects stay meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.errors import ConfigurationError

GIB = 1024 ** 3
MIB = 1024 ** 2


@dataclass(frozen=True)
class GPUSpec:
    """Static description of one simulated GPU.

    Attributes
    ----------
    num_smxs:
        Streaming multiprocessors per GPU (K80: 26).
    threads_per_warp:
        SIMT width; warps execute in lock-step (cost = max over members).
    warp_slots_per_smx:
        Warps an SMX can keep in flight concurrently; additional warps are
        serialized by the warp scheduler.
    global_memory_bytes:
        On-board memory capacity (K80: 24 GB).
    shared_memory_per_smx_bytes:
        Shared memory per SMX, used for proxy vertices (K80: 112 KB usable).
    clock_hz:
        Core clock used to convert cycles to model seconds.
    cycles_per_edge:
        Model cost of one gather+apply edge step on a thread.
    cycles_per_atomic:
        Extra cost of one atomic (contended) state update.
    """

    num_smxs: int = 26
    threads_per_warp: int = 32
    warp_slots_per_smx: int = 6
    #: Work items larger than this many edge-steps are split across
    #: threads (load-balanced advance / virtual-warp technique): real GPU
    #: graph kernels never let one thread serially gather a hub's whole
    #: neighborhood.
    work_split_threshold: int = 64
    global_memory_bytes: int = 24 * GIB
    shared_memory_per_smx_bytes: int = 112 * 1024
    clock_hz: float = 824e6
    cycles_per_edge: int = 24
    cycles_per_atomic: int = 40

    def __post_init__(self) -> None:
        if self.num_smxs < 1:
            raise ConfigurationError("num_smxs must be >= 1")
        if self.threads_per_warp < 1:
            raise ConfigurationError("threads_per_warp must be >= 1")
        if self.warp_slots_per_smx < 1:
            raise ConfigurationError("warp_slots_per_smx must be >= 1")
        if self.global_memory_bytes <= 0:
            raise ConfigurationError("global_memory_bytes must be positive")
        if self.clock_hz <= 0:
            raise ConfigurationError("clock_hz must be positive")

    @property
    def threads_per_smx(self) -> int:
        """Concurrent hardware threads per SMX."""
        return self.threads_per_warp * self.warp_slots_per_smx


@dataclass(frozen=True)
class MachineSpec:
    """Static description of the whole simulated machine.

    Attributes
    ----------
    num_gpus:
        GPUs on the PCIe ring (paper: 4).
    gpu:
        Per-GPU specification.
    pcie_bandwidth_bytes_per_s:
        Effective host<->GPU and GPU<->GPU link bandwidth (PCIe 3.0 x16
        ~12 GB/s effective).
    pcie_latency_s:
        Fixed per-transfer-batch latency.
    transfer_batch_bytes:
        Batch size `S_b` used for Hyper-Q batched path transfer
        (Section 3.2.2); also determines the stream count
        ``N_m = M_G / S_b``.
    """

    num_gpus: int = 4
    gpu: GPUSpec = field(default_factory=GPUSpec)
    pcie_bandwidth_bytes_per_s: float = 12e9
    pcie_latency_s: float = 10e-6
    transfer_batch_bytes: int = 64 * MIB

    def __post_init__(self) -> None:
        if self.num_gpus < 1:
            raise ConfigurationError("num_gpus must be >= 1")
        if self.pcie_bandwidth_bytes_per_s <= 0:
            raise ConfigurationError("pcie bandwidth must be positive")
        if self.pcie_latency_s < 0:
            raise ConfigurationError("pcie latency must be non-negative")
        if self.transfer_batch_bytes <= 0:
            raise ConfigurationError("transfer_batch_bytes must be positive")

    @property
    def num_streams(self) -> int:
        """Hyper-Q stream count ``N_m = M_G / S_b`` (Section 3.2.2)."""
        return max(1, self.gpu.global_memory_bytes // self.transfer_batch_bytes)

    def scaled(self, num_gpus: int) -> "MachineSpec":
        """Copy of this spec with a different GPU count (Fig. 16 sweeps)."""
        return replace(self, num_gpus=num_gpus)


#: The experiment default: the paper's 4-GPU topology with each GPU scaled
#: down (4 SMXs instead of 26) to match the ~500x-scaled-down datasets, so
#: occupancy and utilization figures stay meaningful. PCIe latency is
#: scaled down with the datasets too — at real latency a fixed 10 us per
#: message batch would dominate the (500x smaller) compute intervals and
#: distort every time figure toward pure message counting.
SCALED_MACHINE = MachineSpec(
    num_gpus=4,
    gpu=GPUSpec(
        num_smxs=2,
        warp_slots_per_smx=4,
        # Iterative graph processing is memory-bound: a gather step is a
        # dependent random access, ~200 core cycles effective on a K80.
        cycles_per_edge=200,
        cycles_per_atomic=400,
    ),
    pcie_latency_s=2e-7,
    transfer_batch_bytes=1 * MIB,
)
