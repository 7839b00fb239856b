"""Global / shared memory accounting with explicit eviction.

Section 3.2.2: path results are buffered in GPU global memory; when
capacity runs out, "the buffered results of the paths represented by a
SCC-vertex are swapped out of a GPU when this SCC-vertex has the least
number of active direct successors on this GPU". The *policy* lives in the
dispatcher (which knows successor activity); this module provides the
*mechanism*: bounded allocation keyed by region id, explicit eviction, and
residency queries. Shared memory per SMX is tracked the same way for proxy
vertices.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.errors import MemoryCapacityError, SimulationError


class BoundedMemory:
    """A capacity-limited memory holding named regions.

    Parameters
    ----------
    capacity_bytes:
        Total capacity.
    name:
        Human-readable name used in error messages
        (e.g. ``"gpu0.global"``).
    """

    def __init__(self, capacity_bytes: int, name: str = "memory") -> None:
        if capacity_bytes <= 0:
            raise SimulationError("capacity must be positive")
        self._capacity = capacity_bytes
        self._name = name
        self._regions: Dict[int, int] = {}
        self._used = 0

    @property
    def capacity_bytes(self) -> int:
        return self._capacity

    @property
    def used_bytes(self) -> int:
        return self._used

    @property
    def free_bytes(self) -> int:
        return self._capacity - self._used

    def is_resident(self, region_id: int) -> bool:
        """Whether a region is currently allocated."""
        return region_id in self._regions

    def region_size(self, region_id: int) -> int:
        """Size of a resident region."""
        if region_id not in self._regions:
            raise SimulationError(
                f"{self._name}: region {region_id} is not resident"
            )
        return self._regions[region_id]

    def allocate(
        self,
        region_id: int,
        nbytes: int,
        evict_order: Optional[Callable[[List[int]], List[int]]] = None,
    ) -> List[int]:
        """Allocate a region, evicting others if needed.

        Parameters
        ----------
        region_id:
            Key for the new region; re-allocating a resident id resizes it.
        nbytes:
            Region size.
        evict_order:
            Callback receiving the resident region ids and returning them in
            eviction-preference order (most evictable first). This is where
            the dispatcher's "least active direct successors" policy plugs
            in. Without it, insertion order (FIFO) is used.

        Returns
        -------
        list of evicted region ids.

        Raises
        ------
        MemoryCapacityError
            If the region cannot fit even after evicting everything else.
            Allocation is atomic: a failed call leaves ``used_bytes`` and
            the resident set exactly as they were (no partial eviction,
            no half-resized region).
        """
        if nbytes < 0:
            raise SimulationError("nbytes must be non-negative")
        if nbytes > self._capacity:
            raise MemoryCapacityError(
                f"{self._name}: region of {nbytes} bytes exceeds capacity "
                f"{self._capacity}"
            )
        # Plan first, mutate only once the allocation is known to fit: a
        # resize frees the old extent, then victims are chosen (the
        # ``evict_order`` callback runs at most once per allocation).
        old_size = self._regions.get(region_id, 0)
        available = self._capacity - self._used + old_size
        victims: List[int] = []
        if nbytes > available:
            candidates = [r for r in self._regions if r != region_id]
            if evict_order is not None:
                ordered = [
                    r for r in evict_order(candidates) if r in self._regions
                ]
                candidates = ordered
            for victim in candidates:
                if nbytes <= available:
                    break
                victims.append(victim)
                available += self._regions[victim]
            if nbytes > available:
                raise MemoryCapacityError(
                    f"{self._name}: cannot fit {nbytes} bytes "
                    f"(used {self._used} of {self._capacity})"
                )
        # Commit.
        for victim in victims:
            self._used -= self._regions.pop(victim)
        if region_id in self._regions:
            self._used -= self._regions.pop(region_id)
        self._regions[region_id] = nbytes
        self._used += nbytes
        return victims

    def release(self, region_id: int) -> int:
        """Free a region; returns its size."""
        if region_id not in self._regions:
            raise SimulationError(
                f"{self._name}: releasing non-resident region {region_id}"
            )
        size = self._regions.pop(region_id)
        self._used -= size
        return size

    def clear(self) -> None:
        """Free everything."""
        self._regions.clear()
        self._used = 0
