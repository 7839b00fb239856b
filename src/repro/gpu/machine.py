"""The simulated machine: host + GPUs + ring interconnect.

Engines drive the machine with four verbs:

- :meth:`Machine.transfer` — move bytes between the host and GPUs (or GPU
  to GPU over the ring), optionally overlapped with upcoming compute via a
  GPU's Hyper-Q streams;
- :meth:`Machine.deliver_replica_batch` — push one engine's batched
  updates GPU -> GPU, on the channel its schedule picks (barriered or
  overlapped) and through the fault injector's replica hook;
- :meth:`Machine.compute_round` — run one parallel kernel wave: per-GPU
  lists of per-thread work items, executed concurrently across GPUs (wall
  time = the slowest GPU);
- :meth:`Machine.load_global` — account global-memory loads into GPU cores
  (the "volume of data loaded into GPU core" half of Fig. 12's traffic).

All counters land in one shared :class:`~repro.gpu.stats.MachineStats`.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import median
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import (
    GPULostError,
    InjectedCrashError,
    PermanentInterconnectFault,
    SimulationError,
)
from repro.gpu.config import GPUSpec, MachineSpec
from repro.gpu.interconnect import HOST, Endpoint, Interconnect
from repro.gpu.memory import BoundedMemory
from repro.gpu.smx import price_launches, thread_costs
from repro.gpu.stats import MachineStats
from repro.gpu.stream import StreamPool

if TYPE_CHECKING:  # pragma: no cover - annotation only, avoids a cycle
    from repro.faults.recovery import RecoveryPolicy

#: Per-thread work: (edge_steps, atomic_updates).
WorkItem = Tuple[int, int]


@dataclass
class DeliveryOutcome:
    """Result of one replica-batch delivery (:meth:`Machine.deliver_replica_batch`).

    ``status`` is ``"delivered"``, ``"dropped"`` (batch lost, receiver
    never sees it), or ``"corrupted"`` (batch arrived garbled; ``poison``
    is the garbage value the receiver would apply). The latter two only
    occur without a recovery policy — with one, drops and corruptions
    are detected and resent until delivered or retries run out.
    """

    status: str
    time_s: float
    poison: float = 0.0


def balanced_cycles(
    spec: GPUSpec,
    launches: Sequence[Tuple[Sequence[int], Optional[Sequence[int]]]],
) -> Tuple[List[int], int, int]:
    """Price one kernel per GPU, all GPUs in one integer array pass:
    each launch's slowest-SMX cycles, and the busy and total
    thread-cycles of all. ``launches`` holds each GPU's per-thread
    edge-steps and atomics (lists or arrays; atomics ``None`` for
    none), no launch empty.

    Load-balanced advance: oversized items are split across threads (a
    hub's gather is processed by many lanes, not one), then each GPU's
    threads are sorted by cost so warps are cost-homogeneous (lock-step
    warps pay their max member). All engines get this — it models the
    standard load-balancing of GPU graph kernels. An item over the
    threshold becomes ``ceil(item / threshold) - 1`` full pieces and
    then its remainder, which carries the item's atomics.
    """
    sizes = [len(work) for work, _ in launches]
    if any(a is not None and len(a) != n for (_, a), n in zip(launches, sizes)):
        raise SimulationError("atomic_counts must parallel work_items")
    work = np.concatenate([w for w, _ in launches], dtype=np.int64)
    atomics = np.concatenate(
        [np.zeros(n, np.int64) if a is None else a
         for (_, a), n in zip(launches, sizes)],
        dtype=np.int64,
    )
    launch = np.repeat(np.arange(len(sizes)), sizes)
    threshold = spec.work_split_threshold
    if work.max() > threshold:
        full = np.maximum(-(-work // threshold) - 1, 0)
        last = np.cumsum(full + 1) - 1
        pieces = np.full(last[-1] + 1, threshold, dtype=np.int64)
        pieces[last] = work - full * threshold
        piece_atomics = np.zeros_like(pieces)
        piece_atomics[last] = atomics
        work, atomics = pieces, piece_atomics
        launch = np.repeat(launch, full + 1)
        sizes = np.bincount(launch, minlength=len(sizes)).tolist()
    # Per launch, heaviest first; stable, so equal pieces keep the
    # caller's thread order (one sort key: launch major, work minor —
    # no piece exceeds the threshold now).
    order = (launch * (threshold + 1) - work).argsort(kind="stable")
    costs = thread_costs(spec, work[order], atomics[order])

    # Threads go to SMXs in contiguous blocks, at least one warp wide:
    # scattering a handful of threads across many SMXs would fragment
    # them into near-empty warps, which no real block scheduler does.
    bounds: List[int] = []
    first_block: List[int] = []
    start = 0
    for size in sizes:
        block = max(spec.threads_per_warp, -(-size // spec.num_smxs))
        first_block.append(len(bounds))
        bounds.extend(range(start, start + size, block))
        start += size
    cycles, total = price_launches(spec, costs, bounds + [start])
    first_block.append(len(cycles))
    return (
        [max(cycles[lo:hi]) for lo, hi in zip(first_block, first_block[1:])],
        int(costs.sum()),
        total,
    )


class GPU:
    """One simulated GPU: global memory and a Hyper-Q stream pool; its
    SMXs are priced by :func:`balanced_cycles`."""

    def __init__(
        self,
        spec: GPUSpec,
        gpu_id: int,
        stats: MachineStats,
        num_streams: int,
    ) -> None:
        self.spec = spec
        self.gpu_id = gpu_id
        self._stats = stats
        self.global_memory = BoundedMemory(
            spec.global_memory_bytes, name=f"gpu{gpu_id}.global"
        )
        self.streams = StreamPool(num_streams)

    def seconds(self, cycles: int) -> float:
        """Convert SMX cycles to model seconds."""
        return cycles / self.spec.clock_hz

    def execute_balanced(
        self,
        work_items: Sequence[int],
        atomic_counts: Optional[Sequence[int]] = None,
    ) -> float:
        """Run one kernel, spreading threads across SMXs evenly.

        Work items keep their relative order inside each SMX chunk so
        callers control warp composition (Section 3.2.2 assigns paths to
        threads so each thread's edge count is almost equal *before*
        launching). Returns the elapsed model seconds, with any queued
        stream transfers overlapped against the compute interval.
        """
        if not len(work_items):
            # Still resolve pending transfers (nothing hides them).
            return self.streams.flush()
        (cycles,), busy, total = balanced_cycles(
            self.spec, [(work_items, atomic_counts)]
        )
        self._stats.busy_thread_cycles += busy
        self._stats.total_thread_cycles += total
        return self.streams.overlap_with_compute(self.seconds(cycles)).elapsed_s


class Machine:
    """Host + ``spec.num_gpus`` GPUs + ring interconnect + shared stats."""

    def __init__(
        self,
        spec: MachineSpec,
        fault_injector=None,
        recovery: Optional["RecoveryPolicy"] = None,
    ) -> None:
        self.spec = spec
        self.stats = MachineStats()
        self.recovery = recovery
        self.interconnect = Interconnect(
            spec, self.stats, fault_injector=fault_injector,
            recovery=recovery,
        )
        self.gpus = [
            GPU(spec.gpu, gpu_id, self.stats, spec.num_streams)
            for gpu_id in range(spec.num_gpus)
        ]
        #: GPUs lost mid-execution (:meth:`kill_gpu`).
        self.dead_gpus: set = set()

    @property
    def num_gpus(self) -> int:
        return self.spec.num_gpus

    @property
    def _structured_injector(self):
        """The fault injector, if it speaks the structured hook protocol."""
        injector = self.interconnect.fault_injector
        if injector is not None and hasattr(injector, "on_compute_round"):
            return injector
        return None

    # ------------------------------------------------------------------
    # GPU liveness
    # ------------------------------------------------------------------
    def live_gpu_ids(self) -> List[int]:
        """Ids of GPUs still alive, ascending."""
        return [g for g in range(self.num_gpus) if g not in self.dead_gpus]

    def kill_gpu(self, gpu_id: int) -> None:
        """Mark a GPU dead: its memory and in-flight transfers are lost.

        Idempotent. The dead GPU's queued stream transfers are discarded
        (they must not surface later as phantom time) and its global
        memory is cleared — survivors re-load whatever they inherit.
        """
        if not 0 <= gpu_id < self.num_gpus:
            raise SimulationError(f"no GPU {gpu_id}")
        if gpu_id in self.dead_gpus:
            return
        self.dead_gpus.add(gpu_id)
        self.stats.gpu_failures += 1
        gpu = self.gpus[gpu_id]
        gpu.streams.drop_pending()
        gpu.global_memory.clear()

    def _check_alive(self, endpoint: Endpoint) -> None:
        if isinstance(endpoint, int) and endpoint in self.dead_gpus:
            raise GPULostError(
                f"GPU {endpoint} is dead", gpu_id=endpoint
            )

    # ------------------------------------------------------------------
    # transfers
    # ------------------------------------------------------------------
    def transfer(
        self,
        src: Endpoint,
        dst: Endpoint,
        nbytes: int,
        overlap_with: Optional[int] = None,
    ) -> float:
        """Move bytes between endpoints (``'host'`` or a GPU id).

        If ``overlap_with`` names a GPU, the transfer is queued on that
        GPU's streams and hidden behind its next kernel; otherwise its time
        is charged to :attr:`MachineStats.transfer_time_s` immediately.
        """
        self._check_alive(src)
        self._check_alive(dst)
        time_s = self.interconnect.transfer(src, dst, nbytes)
        if overlap_with is not None:
            self.gpus[overlap_with].streams.queue_transfer(time_s)
            return 0.0
        self.stats.transfer_time_s += time_s
        return time_s

    def deliver_replica_batch(
        self, src_gpu: int, dst_gpu: int, nbytes: int, barrier: bool = False
    ) -> DeliveryOutcome:
        """Deliver one batched replica-update message GPU -> GPU.

        Every engine's cross-GPU pushes come through here, routed
        through the fault injector's replica hook so the batch can be
        dropped or corrupted in flight. With a recovery policy, both are
        detected by the modeled ack/checksum protocol and resent with
        backoff, bounded by ``max_sync_retries``.

        ``barrier`` is the engine's schedule. A barriered
        (bulk-synchronous) push waits on the wire: every attempt and
        backoff is charged to ``transfer_time_s``, as :meth:`transfer`
        charges. Otherwise the time lands on the communication channel,
        which runs concurrently with compute (NCCL-style pipelined
        pushes), and the receive-side conservation ledger
        (``replica_pair_bytes``) is credited when the payload lands: a
        dropped batch leaves a send/receive mismatch for the
        conservation checker, a corrupted one that slips through
        undetected *does* land (garbled — the fixed-point oracle
        catches it instead).
        """
        self._check_alive(src_gpu)
        self._check_alive(dst_gpu)
        injector = self._structured_injector
        failures = 0
        total = 0.0

        def charge(seconds: float) -> None:
            if barrier:
                self.stats.transfer_time_s += seconds
            else:
                self.stats.async_comm_time_s += seconds

        def land() -> None:
            if not barrier:
                self.stats.note_pair_transfer(src_gpu, dst_gpu, nbytes)

        while True:
            fault = None
            if injector is not None:
                fault = injector.on_replica_flush(src_gpu, dst_gpu, nbytes)
            time_s = self.interconnect.transfer(src_gpu, dst_gpu, nbytes)
            charge(time_s)
            total += time_s
            if fault is None:
                land()
                return DeliveryOutcome("delivered", total)
            # Kinds are plain strings (repro.faults.plan.DROP / CORRUPT);
            # compared literally here to keep gpu/ import-free of faults/.
            if fault.kind == "drop":
                self.stats.dropped_replica_batches += 1
            else:
                self.stats.corrupted_replica_batches += 1
            if self.recovery is None:
                if fault.kind == "corrupt":
                    # The garbled payload still arrives on the wire, so
                    # conservation balances; the fixed-point check is
                    # what flags the poisoned state.
                    land()
                    return DeliveryOutcome(
                        "corrupted", total, poison=fault.poison
                    )
                return DeliveryOutcome("dropped", total)
            failures += 1
            if failures > self.recovery.max_sync_retries:
                raise PermanentInterconnectFault(
                    f"replica batch {src_gpu}->{dst_gpu} still failing "
                    f"after {failures} attempts",
                    src=src_gpu,
                    dst=dst_gpu,
                )
            backoff = self.recovery.backoff_s(failures)
            self.stats.sync_retries += 1
            self.stats.resent_sync_bytes += nbytes
            self.stats.backoff_time_s += backoff
            self.stats.recovery_time_s += time_s + backoff
            charge(backoff)
            total += backoff

    def checkpoint_spill(
        self, gpu_id: int, nbytes: int, overlap: bool = False
    ) -> float:
        """Spill one GPU's checkpoint delta to the host (GPU -> host).

        The bytes cross the PCIe link like any d2h transfer (serializing
        with compute), and are additionally attributed to the checkpoint
        ledgers so the overhead-vs-recovery tradeoff is measurable.

        With ``overlap=True`` (double-buffered spill) the transfer is
        issued asynchronously: the cost is *not* charged to the blocking
        ``transfer_time_s`` here — the caller (the checkpoint manager)
        later settles how much of it was hidden under compute and
        charges only the exposed remainder.
        """
        self._check_alive(gpu_id)
        time_s = self.interconnect.spill_transfer(
            gpu_id, HOST, nbytes, self.spec.transfer_batch_bytes
        )
        if not overlap:
            self.stats.transfer_time_s += time_s
        self.stats.checkpoint_bytes_spilled += nbytes
        self.stats.checkpoint_time_s += time_s
        return time_s

    def checkpoint_restore(self, gpu_id: int, nbytes: int) -> float:
        """Reload checkpointed state onto a GPU after a rollback.

        Host -> GPU on the same reserved DMA channel as the spill; the
        time is attributed to ``recovery_time_s`` (restores only happen
        while recovering) and the bytes to ``retransferred_bytes``.
        """
        self._check_alive(gpu_id)
        time_s = self.interconnect.spill_transfer(
            HOST, gpu_id, nbytes, self.spec.transfer_batch_bytes
        )
        self.stats.transfer_time_s += time_s
        self.stats.recovery_time_s += time_s
        self.stats.retransferred_bytes += nbytes
        return time_s

    def batched_transfer_to_gpu(self, gpu_id: int, nbytes: int) -> float:
        """Host->GPU transfer split into `S_b`-sized batches (Section 3.2.2)."""
        self._check_alive(gpu_id)
        time_s = self.interconnect.batched_transfer(
            HOST, gpu_id, nbytes, self.spec.transfer_batch_bytes
        )
        self.stats.transfer_time_s += time_s
        return time_s

    def flush_streams(self) -> float:
        """Resolve any still-pending stream transfers at full cost."""
        total = sum(
            gpu.streams.flush()
            for gpu in self.gpus
            if gpu.gpu_id not in self.dead_gpus
        )
        self.stats.transfer_time_s += total
        return total

    # ------------------------------------------------------------------
    # compute
    # ------------------------------------------------------------------
    def compute_round(
        self,
        work: Dict[int, Sequence[int]],
        atomics: Optional[Dict[int, Sequence[int]]] = None,
        barrier: bool = False,
    ) -> float:
        """Run one concurrent kernel wave across GPUs.

        ``work[gpu_id]`` is that GPU's per-thread edge-steps, a list or an
        integer array. Wall time is the slowest GPU's elapsed time and is
        charged to :attr:`MachineStats.compute_time_s`.

        With ``barrier`` (the bulk-synchronous engines), GPUs that finish
        early wait for the slowest one; their wait is charged as idle
        thread-cycles, which is what depresses Fig. 15's utilization for
        the synchronous baseline.

        A structured fault injector is consulted once per wave: it may
        kill a GPU (the wave aborts with :class:`GPULostError` — the
        engine's checkpoint/rollback replays the round on the survivors)
        or slow chosen GPUs down. With a recovery policy, a slowed GPU
        whose elapsed time exceeds ``straggler_timeout_factor`` times
        the median of its peers is treated as a straggler: its wave is
        re-dispatched, capping its cost at the timeout plus one nominal
        re-execution.
        """
        slowdowns: Dict[int, float] = {}
        injector = self._structured_injector
        if injector is not None:
            fault = injector.on_compute_round(self.live_gpu_ids())
            if fault is not None:
                # `crash` is duck-typed (getattr) so gpu/ keeps working
                # with legacy plans whose ComputeFault predates it.
                if getattr(fault, "crash", False):
                    raise InjectedCrashError(
                        "whole-job crash at a kernel-wave boundary",
                        crash_point="round-boundary",
                        round_index=injector.compute_calls - 1,
                    )
                if fault.kill_gpu is not None:
                    self.kill_gpu(fault.kill_gpu)
                    raise GPULostError(
                        f"GPU {fault.kill_gpu} died during a kernel wave",
                        gpu_id=fault.kill_gpu,
                    )
                slowdowns = dict(fault.slowdowns)
        # Every live GPU's share, as GPU.execute_balanced would price it,
        # in one pass.
        launches: Dict[int, Tuple[Sequence[int], Optional[Sequence[int]]]] = {}
        for gpu_id, items in work.items():
            if not 0 <= gpu_id < self.num_gpus:
                raise SimulationError(f"no GPU {gpu_id}")
            if gpu_id in self.dead_gpus:
                if len(items):
                    raise GPULostError(
                        f"work dispatched to dead GPU {gpu_id}",
                        gpu_id=gpu_id,
                    )
                continue
            launches[gpu_id] = (items, atomics.get(gpu_id) if atomics else None)
        busy = [g for g, (items, _) in launches.items() if len(items)]
        cycles: Dict[int, int] = {}
        if busy:
            priced, busy_cycles, total = balanced_cycles(
                self.spec.gpu, [launches[g] for g in busy]
            )
            self.stats.busy_thread_cycles += busy_cycles
            self.stats.total_thread_cycles += total
            cycles = dict(zip(busy, priced))
        # An idle GPU still resolves its pending transfers (nothing
        # hides them).
        base_by_gpu = {
            g: self.gpus[g].streams.flush()
            if g not in cycles
            else self.gpus[g].streams.overlap_with_compute(
                self.gpus[g].seconds(cycles[g])
            ).elapsed_s
            for g in launches
        }
        elapsed_by_gpu = {
            gpu_id: base * slowdowns.get(gpu_id, 1.0)
            for gpu_id, base in base_by_gpu.items()
        }
        if (
            self.recovery is not None
            and self.recovery.redispatch_stragglers
            and slowdowns
            and len(elapsed_by_gpu) > 1
        ):
            for gpu_id in sorted(slowdowns):
                if gpu_id not in elapsed_by_gpu:
                    continue
                elapsed = elapsed_by_gpu[gpu_id]
                peers = [
                    t for g, t in elapsed_by_gpu.items() if g != gpu_id
                ]
                timeout = (
                    self.recovery.straggler_timeout_factor * median(peers)
                )
                if timeout > 0 and elapsed > timeout:
                    self.stats.stragglers_detected += 1
                    # Give up on the straggler at the timeout and re-run
                    # its wave (modeled at nominal cost) elsewhere.
                    redone = timeout + base_by_gpu[gpu_id]
                    if redone < elapsed:
                        self.stats.straggler_redispatches += 1
                        self.stats.recovery_time_s += (
                            redone - base_by_gpu[gpu_id]
                        )
                        elapsed_by_gpu[gpu_id] = redone
        wall = max(elapsed_by_gpu.values(), default=0.0)
        if barrier and wall > 0:
            for gpu in self.gpus:
                if gpu.gpu_id in self.dead_gpus:
                    continue
                waited = wall - elapsed_by_gpu.get(gpu.gpu_id, 0.0)
                if waited > 0:
                    idle_cycles = int(waited * gpu.spec.clock_hz)
                    self.stats.total_thread_cycles += (
                        idle_cycles
                        * gpu.spec.threads_per_smx
                        * gpu.spec.num_smxs
                    )
        self.stats.compute_time_s += wall
        return wall

    # ------------------------------------------------------------------
    # memory-system accounting
    # ------------------------------------------------------------------
    def load_global(
        self, gpu_id: int, nbytes: int, vertices: int = 0
    ) -> None:
        """Account a global-memory load into GPU cores."""
        if not 0 <= gpu_id < self.num_gpus:
            raise SimulationError(f"no GPU {gpu_id}")
        self._check_alive(gpu_id)
        if nbytes < 0 or vertices < 0:
            raise SimulationError("load sizes must be non-negative")
        self.stats.global_load_bytes += nbytes
        self.stats.vertices_loaded += vertices

    def note_vertex_uses(self, count: int) -> None:
        """Account uses of already-loaded vertex records (Fig. 13)."""
        if count < 0:
            raise SimulationError("count must be non-negative")
        self.stats.vertex_uses += count
