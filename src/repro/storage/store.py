"""The sharded on-disk graph store: manifest, shard pages, bounded cache.

On-disk layout (built by :func:`repro.storage.partition.partition_graph`)::

    <root>/
      GRAPH.json          versioned, self-checksummed manifest (commits last)
      node_map.page       int32 owner part per vertex
      edge_map.page       int32 owner part per CSR edge id
      part0000/
        vertex_ids.page   int64 sorted global ids of owned vertices
        indptr.page       int64 local CSR row pointers (len = owned + 1)
        indices.page      int64 GLOBAL destination ids, original row order
        weights.page      float64 parallel edge weights
      part0001/ ...

Shards keep **global** vertex ids and the original within-row edge
order, so scattering every shard's rows back into place reproduces the
in-RAM CSR arrays bit for bit (see
:meth:`repro.storage.sharded.ShardedGraph.materialize`).

:class:`ShardStore` opens shards lazily through a bounded, LRU-evicted,
mmap-backed cache — the execution side of the bounded-memory story: a
run over a store touches ``max_resident_bytes`` of shard data at most,
no matter how large the graph is. Pages and the manifest are read and
verified by :mod:`repro.storage.pages` (streamed, before the mmap is
handed out); all damage raises :class:`~repro.errors.StorageError` with
the file ``path``, the ``shard`` id, and the page store's ``kind`` —
never a raw traceback.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.errors import GraphError, StorageError
from repro.graph.io import validate_csr_arrays
from repro.storage import pages
from repro.storage.memory import ResidentTracker

#: On-disk format version; bumped on incompatible layout changes.
GRAPH_STORE_FORMAT = 1

#: Manifest filename (committed last — its presence implies a complete store).
GRAPH_MANIFEST_NAME = "GRAPH.json"

#: Page names every shard directory must hold.
SHARD_PAGE_NAMES = ("vertex_ids", "indptr", "indices", "weights")


def shard_dirname(part: int) -> str:
    """Relative directory name of one part's shard pages."""
    return f"part{part:04d}"


@contextmanager
def _damage(path: str, shard: Optional[int] = None):
    """Report a page-store integrity failure as a :class:`StorageError`."""
    try:
        yield
    except pages.PageIntegrityError as exc:
        raise StorageError(
            str(exc), path=path, shard=shard, kind=exc.reason
        ) from None


@dataclass
class Shard:
    """One loaded shard: a part's owned rows in global-id CSR form."""

    part: int
    #: Sorted global ids of the vertices this part owns.
    vertex_ids: np.ndarray
    #: Local row pointers over the owned vertices (len = owned + 1).
    indptr: np.ndarray
    #: Global destination ids, original within-row order.
    indices: np.ndarray
    weights: np.ndarray
    #: Modeled resident footprint while cached.
    nbytes: int

    @property
    def num_vertices(self) -> int:
        return int(self.vertex_ids.size)

    @property
    def num_edges(self) -> int:
        return int(self.indices.size)


class ShardStore:
    """Read side of the sharded store: verify, mmap, cache, evict.

    Parameters
    ----------
    root:
        Store directory holding ``GRAPH.json``.
    max_resident_bytes:
        Cache bound for loaded shards. ``None`` disables eviction
        entirely — the "cache disabled" configuration the CI must-fail
        self-test uses to prove the bound is load-bearing. The bound is
        a high-water target: the single most recently used shard is
        always kept even if it alone exceeds it.
    use_mmap:
        Map pages with :class:`numpy.memmap` (the default; the page is
        checksum-verified in a streamed pass first) instead of reading
        them into heap arrays (verified in memory). Either way the page
        is fully verified before use.
    tracker:
        Shared :class:`ResidentTracker` charged for cached shards; a
        private one is created when omitted.
    """

    def __init__(
        self,
        root: str,
        max_resident_bytes: Optional[int] = None,
        use_mmap: bool = True,
        tracker: Optional[ResidentTracker] = None,
    ) -> None:
        self.root = str(root)
        self.max_resident_bytes = max_resident_bytes
        self.use_mmap = use_mmap
        self.tracker = tracker if tracker is not None else ResidentTracker()
        self._cache: "OrderedDict[int, Shard]" = OrderedDict()
        self._node_map: Optional[np.ndarray] = None
        self._edge_map: Optional[np.ndarray] = None
        self.stats: Dict[str, int] = {
            "shard_loads": 0,
            "shard_evictions": 0,
            "cache_hits": 0,
        }
        self.manifest = self._load_manifest()

    # ------------------------------------------------------------------
    # manifest
    # ------------------------------------------------------------------
    def _load_manifest(self) -> Dict:
        path = os.path.join(self.root, GRAPH_MANIFEST_NAME)
        with _damage(path):
            payload = pages.read_document(path, "manifest")
        if not isinstance(payload, dict) or payload.get("kind") != "sharded-graph":
            raise StorageError(
                "manifest is not a sharded-graph manifest",
                path=path,
                kind="manifest-format",
            )
        if payload.get("format") != GRAPH_STORE_FORMAT:
            raise StorageError(
                f"unsupported store format {payload.get('format')!r} "
                f"(this build reads format {GRAPH_STORE_FORMAT})",
                path=path,
                kind="manifest-format",
            )
        for key in ("num_vertices", "num_edges", "num_parts", "parts",
                    "node_map", "edge_map"):
            if key not in payload:
                raise StorageError(
                    f"manifest missing required key {key!r}",
                    path=path,
                    kind="manifest-format",
                )
        if len(payload["parts"]) != payload["num_parts"]:
            raise StorageError(
                f"manifest lists {len(payload['parts'])} parts, "
                f"declares {payload['num_parts']}",
                path=path,
                kind="manifest-format",
            )
        # Stale-manifest check: every referenced shard directory must
        # exist. A manifest that survived while its parts were removed
        # (or that was copied without them) is stale, not merely torn.
        for entry in payload["parts"]:
            part_dir = os.path.join(self.root, entry["dir"])
            if not os.path.isdir(part_dir):
                raise StorageError(
                    "manifest references a shard directory that does "
                    "not exist (stale manifest?)",
                    path=part_dir,
                    shard=int(entry["part"]),
                    kind="stale-manifest",
                )
        return payload

    # ------------------------------------------------------------------
    # manifest-derived properties
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return int(self.manifest["num_vertices"])

    @property
    def num_edges(self) -> int:
        return int(self.manifest["num_edges"])

    @property
    def num_parts(self) -> int:
        return int(self.manifest["num_parts"])

    @property
    def policy(self) -> str:
        return str(self.manifest.get("policy", "unknown"))

    @property
    def edge_cut(self) -> int:
        return int(self.manifest.get("edge_cut", 0))

    # ------------------------------------------------------------------
    # page loading
    # ------------------------------------------------------------------
    def _load_page(
        self, path: str, entry: Dict, shard: Optional[int] = None
    ) -> np.ndarray:
        """Verify one page and map it (streamed check) or read it."""
        with _damage(path, shard):
            return pages.read_array_page(path, entry, mmap=self.use_mmap)

    def node_map(self) -> np.ndarray:
        """Owner part per vertex (int32, cached after first load)."""
        if self._node_map is None:
            entry = self.manifest["node_map"]
            self._node_map = self._load_page(
                os.path.join(self.root, entry["file"]), entry
            )
        return self._node_map

    def edge_map(self) -> np.ndarray:
        """Owner part per CSR edge id (int32, cached after first load)."""
        if self._edge_map is None:
            entry = self.manifest["edge_map"]
            self._edge_map = self._load_page(
                os.path.join(self.root, entry["file"]), entry
            )
        return self._edge_map

    # ------------------------------------------------------------------
    # shard cache
    # ------------------------------------------------------------------
    @property
    def resident_bytes(self) -> int:
        """Modeled bytes of currently cached shards."""
        return sum(shard.nbytes for shard in self._cache.values())

    def load_shard(self, part: int) -> Shard:
        """Load (or fetch from cache) one part's shard, verified.

        Raises :class:`~repro.errors.StorageError` with structured
        ``path``/``shard``/``kind`` on any damage: missing or torn
        pages, bit rot, manifest/page disagreement, or CSR-invariant
        violations (via the shared
        :func:`~repro.graph.io.validate_csr_arrays`).
        """
        part = int(part)
        if part < 0 or part >= self.num_parts:
            raise StorageError(
                f"part {part} out of range [0, {self.num_parts})",
                shard=part,
            )
        cached = self._cache.get(part)
        if cached is not None:
            self._cache.move_to_end(part)
            self.stats["cache_hits"] += 1
            return cached

        entry = self.manifest["parts"][part]
        part_dir = os.path.join(self.root, entry["dir"])
        arrays = {}
        for name in SHARD_PAGE_NAMES:
            page = entry["pages"][name]
            arrays[name] = self._load_page(
                os.path.join(part_dir, page["file"]), page, shard=part
            )
        vertex_ids = arrays["vertex_ids"]
        indptr = arrays["indptr"]
        try:
            indptr, indices, weights = validate_csr_arrays(
                indptr,
                arrays["indices"],
                arrays["weights"],
                num_vertices=self.num_vertices,
                source=part_dir,
            )
        except GraphError as exc:
            raise StorageError(
                f"shard CSR arrays inconsistent: {exc}",
                path=part_dir,
                shard=part,
                kind="inconsistent",
            ) from None
        if indptr.size != vertex_ids.size + 1:
            raise StorageError(
                f"indptr has {indptr.size} entries for "
                f"{vertex_ids.size} owned vertices",
                path=part_dir,
                shard=part,
                kind="inconsistent",
            )
        if vertex_ids.size and (
            int(vertex_ids.min()) < 0
            or int(vertex_ids.max()) >= self.num_vertices
            or np.any(np.diff(vertex_ids) <= 0)
        ):
            raise StorageError(
                "vertex_ids must be strictly increasing global ids",
                path=part_dir,
                shard=part,
                kind="inconsistent",
            )

        nbytes = sum(int(a.nbytes) for a in arrays.values())
        shard = Shard(
            part=part,
            vertex_ids=vertex_ids,
            indptr=indptr,
            indices=indices,
            weights=weights,
            nbytes=nbytes,
        )
        self._cache[part] = shard
        self.tracker.acquire(nbytes, "shard-cache")
        self.stats["shard_loads"] += 1
        self._evict_to_bound()
        return shard

    def _evict_to_bound(self) -> None:
        if self.max_resident_bytes is None:
            return
        while (
            len(self._cache) > 1
            and self.resident_bytes > self.max_resident_bytes
        ):
            _part, evicted = self._cache.popitem(last=False)
            self.tracker.release(evicted.nbytes, "shard-cache")
            self.stats["shard_evictions"] += 1

    def drop_cache(self) -> None:
        """Release every cached shard (and its tracked bytes)."""
        while self._cache:
            _part, evicted = self._cache.popitem(last=False)
            self.tracker.release(evicted.nbytes, "shard-cache")
            self.stats["shard_evictions"] += 1

    # ------------------------------------------------------------------
    # integrity
    # ------------------------------------------------------------------
    def scan(self) -> Dict[str, int]:
        """Verify every page through the bounded cache; returns stats.

        Loads each shard in turn (evicting under the cache bound as it
        goes); the O(V)/O(E) node/edge maps are checksum-verified in a
        streamed pass without mapping them, so a clean scan certifies
        every byte on disk while staying inside ``max_resident_bytes``
        of shard data.
        """
        for key in ("node_map", "edge_map"):
            path = os.path.join(self.root, self.manifest[key]["file"])
            with _damage(path):
                pages.verify_page_file(path, self.manifest[key])
        for part in range(self.num_parts):
            self.load_shard(part)
        return dict(self.stats)
