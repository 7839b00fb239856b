"""PCIe ring interconnect with NCCL-style batched transfers.

The paper (Section 3.2) uses NCCL to build a ring topology over the PCIe
bus; GPU<->GPU messages traverse ring hops, and host<->GPU transfers cross
one link. Costs are ``latency + bytes / bandwidth`` per hop; batching
amortizes the latency term, which is why the paper sends replica-update
messages "in batches" per destination partition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Union

from repro.errors import (
    PermanentInterconnectFault,
    SimulationError,
    TransientInterconnectFault,
)
from repro.gpu.config import MachineSpec
from repro.gpu.stats import MachineStats

if TYPE_CHECKING:  # pragma: no cover - annotation only, avoids a cycle
    from repro.faults.injector import FaultInjector
    from repro.faults.recovery import RecoveryPolicy

#: Endpoint constant for the host.
HOST = "host"

Endpoint = Union[str, int]


@dataclass
class TransferRecord:
    """One completed transfer, for inspection in tests."""

    src: Endpoint
    dst: Endpoint
    nbytes: int
    hops: int
    time_s: float


class Interconnect:
    """Ring of ``num_gpus`` GPUs, each also linked to the host.

    All traffic is recorded into the shared :class:`MachineStats`:
    host->GPU as ``h2d``, GPU->host as ``d2h``, GPU->GPU as ``p2p``
    (counted once per ring hop, matching measured bus traffic).

    A :class:`~repro.faults.FaultInjector` can degrade or fail
    individual transfers — the robustness tests drive engines through
    flaky links and assert either clean failure or unchanged results
    with inflated time.
    """

    def __init__(
        self,
        spec: MachineSpec,
        stats: MachineStats,
        fault_injector: Optional["FaultInjector"] = None,
        recovery: Optional["RecoveryPolicy"] = None,
    ) -> None:
        self._spec = spec
        self._stats = stats
        self.fault_injector = fault_injector
        #: When set, transient faults are retried with exponential
        #: backoff up to ``recovery.max_transfer_retries`` before
        #: escalating to :class:`PermanentInterconnectFault`. When None,
        #: faults surface raw.
        self.recovery = recovery
        self.faults_injected = 0
        self.records: list[TransferRecord] = []

    def _consult_injector(
        self, src: Endpoint, dst: Endpoint, nbytes: int
    ) -> float:
        """Ask the injector about one attempt; returns the delay factor.

        May raise an :class:`~repro.errors.InterconnectFault` (the
        injector failing the attempt).
        """
        injector = self.fault_injector
        if injector is None:
            return 1.0
        outcome = injector.on_transfer(src, dst, nbytes)
        if outcome is None:
            return 1.0
        self.faults_injected += 1
        return outcome

    def _check_endpoint(self, endpoint: Endpoint) -> None:
        if endpoint == HOST:
            return
        if isinstance(endpoint, int) and 0 <= endpoint < self._spec.num_gpus:
            return
        raise SimulationError(f"invalid endpoint {endpoint!r}")

    def ring_hops(self, src: int, dst: int) -> int:
        """Ring hops between two GPUs (unidirectional NCCL ring)."""
        self._check_endpoint(src)
        self._check_endpoint(dst)
        if src == dst:
            return 0
        return (dst - src) % self._spec.num_gpus

    def transfer_time(self, nbytes: int, hops: int = 1) -> float:
        """Model time for one transfer across ``hops`` links."""
        if nbytes < 0:
            raise SimulationError("nbytes must be non-negative")
        per_hop = (
            self._spec.pcie_latency_s
            + nbytes / self._spec.pcie_bandwidth_bytes_per_s
        )
        return per_hop * max(hops, 0)

    def transfer(self, src: Endpoint, dst: Endpoint, nbytes: int) -> float:
        """Perform a transfer; records traffic and returns the model time.

        With a :attr:`recovery` policy, transient injected faults are
        retried in place: each failed attempt charges its wasted wire
        time plus an exponential backoff wait to the recovery ledgers,
        and the returned model time covers every attempt. Retries are
        bounded — exhaustion escalates to
        :class:`PermanentInterconnectFault`. Fig.-12 traffic counters
        record the payload once (resent bytes land in
        ``retransferred_bytes`` instead).
        """
        self._check_endpoint(src)
        self._check_endpoint(dst)
        if nbytes < 0:
            raise SimulationError("nbytes must be non-negative")
        if src == dst:
            return 0.0
        if src == HOST:
            hops = 1
        elif dst == HOST:
            hops = 1
        else:
            hops = self.ring_hops(int(src), int(dst))
        total_time = 0.0
        failures = 0
        while True:
            try:
                delay_factor = self._consult_injector(src, dst, nbytes)
            except TransientInterconnectFault:
                if self.recovery is None:
                    raise
                failures += 1
                wasted = self.transfer_time(nbytes, hops)
                if failures > self.recovery.max_transfer_retries:
                    self._stats.recovery_time_s += wasted
                    total_time += wasted
                    raise PermanentInterconnectFault(
                        f"transfer {src!r}->{dst!r} still failing after "
                        f"{failures} attempts",
                        src=src,
                        dst=dst,
                    )
                backoff = self.recovery.backoff_s(failures)
                self._stats.transfer_retries += 1
                self._stats.retransferred_bytes += nbytes
                self._stats.backoff_time_s += backoff
                self._stats.recovery_time_s += wasted + backoff
                total_time += wasted + backoff
                continue
            break
        if src == HOST:
            self._stats.h2d_bytes += nbytes
        elif dst == HOST:
            self._stats.d2h_bytes += nbytes
        else:
            self._stats.p2p_bytes += nbytes * hops
        total_time += self.transfer_time(nbytes, hops) * delay_factor
        self.records.append(
            TransferRecord(src, dst, nbytes, hops, total_time)
        )
        return total_time

    def batched_transfer(
        self, src: Endpoint, dst: Endpoint, nbytes: int, batch_bytes: int
    ) -> float:
        """Transfer in fixed-size batches (one latency charge per batch)."""
        if batch_bytes <= 0:
            raise SimulationError("batch_bytes must be positive")
        total = 0.0
        remaining = nbytes
        while remaining > 0:
            chunk = min(batch_bytes, remaining)
            total += self.transfer(src, dst, chunk)
            remaining -= chunk
        return total

    def spill_transfer(
        self, src: Endpoint, dst: Endpoint, nbytes: int, batch_bytes: int
    ) -> float:
        """Host<->GPU checkpoint spill over the PCIe link.

        Same per-hop cost model and Fig.-12 traffic accounting as
        :meth:`batched_transfer`, but routed around the fault injector:
        checkpoint DMA rides a reserved channel whose failures are out of
        the modeled fault surface (a half-taken checkpoint would leave
        nothing to roll back to), and consuming injector indices here
        would shift every planned fault whenever the checkpoint interval
        changes, breaking seed-for-seed comparability across intervals.
        """
        self._check_endpoint(src)
        self._check_endpoint(dst)
        if batch_bytes <= 0:
            raise SimulationError("batch_bytes must be positive")
        if nbytes < 0:
            raise SimulationError("nbytes must be non-negative")
        if src != HOST and dst != HOST:
            raise SimulationError("checkpoint spill must touch the host")
        total = 0.0
        remaining = nbytes
        while remaining > 0:
            chunk = min(batch_bytes, remaining)
            total += self.transfer_time(chunk, hops=1)
            remaining -= chunk
        if src == HOST:
            self._stats.h2d_bytes += nbytes
        else:
            self._stats.d2h_bytes += nbytes
        self.records.append(TransferRecord(src, dst, nbytes, 1, total))
        return total
