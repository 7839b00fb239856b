"""Durable crash-consistent checkpoint store (``repro resume`` / ``repro scrub``).

The checkpoint manager keeps every checkpoint in an in-memory host
shadow — good for in-run rollback, useless against whole-process death.
This module is the on-disk half of the checkpoint story: a run
directory holding per-checkpoint **array pages** plus a **write-ahead
JSON manifest** committed atomically, so a job killed at *any* instant
can be restarted from the last durable round (``repro resume``) and
certified bit-identical to the uninterrupted run. Pages and documents
are written, committed, read and verified by
:mod:`repro.storage.pages`, the page store the sharded graph store uses
too.

Layout under ``run_dir``::

    run.json           # workload header (how to rebuild the run)
    MANIFEST.json      # write-ahead manifest, the single commit point
    ckpt-000000/       # one directory per checkpoint
        values.page    # raw array bytes (zlib'd cold pages end in .z)
        active.page
        ...
        scalars.pkl    # pickled non-vertex state (ledgers, placement)

Crash-consistency rules:

- **Pages first, manifest last.** A checkpoint's pages are fully
  written before its manifest entry exists; the manifest is written to
  a temp file and ``os.replace``'d — the rename *is* the commit. A
  crash mid-spill or mid-commit leaves an orphan page directory and/or
  a stale temp file, never a manifest that references missing bytes.
- **Checksums everywhere.** Every page records the sha256 of its
  *uncompressed* payload; the manifest embeds a self-checksum over its
  canonical JSON payload. Torn writes (short file) and bit rot
  (flipped byte) are therefore always *detected* — silent acceptance
  of a corrupt page is a bug the storage-fault tests pin.
- **Copy-on-write compaction.** Cold pages (every checkpoint but the
  newest) are compressed to ``<page>.z`` *before* the manifest commit
  that starts referencing them; the uncompressed originals are removed
  only *after* the commit succeeds. A crash anywhere in between leaves
  both variants on disk and a manifest that references exactly one.
- **Retention/GC.** Only the newest ``retain`` checkpoints are kept,
  stretched back to the nearest full checkpoint so incremental delta
  chains stay restorable; superseded directories are deleted after the
  commit that un-references them.

Reads (:meth:`CheckpointStore.load_best`) walk checkpoints newest-first
and fall back to the previous intact one on any verification failure,
collecting structured findings; :meth:`CheckpointStore.scrub` audits a
whole run directory (orphan directories, stale manifest entries, torn/
rotten pages, stale temp files) and optionally repairs it by dropping
damaged checkpoints. Everything raises
:class:`~repro.errors.CheckpointStoreError` with structured fields —
never a bare ``KeyError``/``JSONDecodeError``/``ValueError``.

Storage faults are injected through
:meth:`~repro.faults.injector.FaultInjector.on_store_write`: every page
write and manifest commit hands the page store a fault hook that asks
the injector once the bytes are written, and the page store lands
whatever damage the plan scheduled (torn write, bit rot, loss, or a
mid-write whole-job crash).
"""

from __future__ import annotations

import functools
import json
import os
import pickle
import shutil
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import CheckpointStoreError
from repro.storage import pages as pagelib

#: Manifest format version (bumped on layout changes).
STORE_FORMAT = 1

MANIFEST_NAME = "MANIFEST.json"
HEADER_NAME = "run.json"
SCALARS_NAME = "scalars.pkl"

#: Serve-journal file (append-only, one JSON line per completed batch).
SERVE_JOURNAL_NAME = "serve_journal.jsonl"


def _ckpt_dirname(round_index: int) -> str:
    return f"ckpt-{round_index:06d}"


@dataclass
class LoadedCheckpoint:
    """One fully materialized (checksum-verified) durable checkpoint."""

    round_index: int
    kind: str
    rounds_mark: int
    dead_gpus: Tuple[int, ...]
    incrementals_since_full: int
    arrays: Dict[str, np.ndarray]
    scalars: Dict
    #: Structured findings for newer checkpoints that were skipped as
    #: damaged on the way to this one (empty when the newest was intact).
    findings: List[CheckpointStoreError] = field(default_factory=list)


@dataclass
class ScrubReport:
    """Result of walking a run directory for corruption."""

    run_dir: str
    #: Rounds whose full restore chain verified end to end.
    intact_rounds: List[int]
    #: Structured corruption findings (empty = clean store).
    findings: List[CheckpointStoreError]
    #: Rounds dropped from the manifest by a repair pass.
    dropped_rounds: List[int] = field(default_factory=list)
    repaired: bool = False

    @property
    def clean(self) -> bool:
        return not self.findings


class ServeJournal:
    """Append-only batch journal for crashed-``QueryServer`` resume.

    One JSON line per *completed* batch, each wrapped with a sha256 of
    its canonical payload. The admission/event loop is deterministic
    given (trace, config), so a restarted server replays journaled
    batches from here — byte-identical statuses, digests, and timing —
    and only re-executes the batches the crash cut short. A torn final
    line (the crash landed mid-append) is dropped silently; a bad
    checksum anywhere *else* is real corruption and raises a structured
    :class:`~repro.errors.CheckpointStoreError`.
    """

    def __init__(self, path: str) -> None:
        self.path = str(path)

    def load(self) -> Dict[int, Dict]:
        """Verified journal records keyed by ``batch_id``."""
        if not os.path.exists(self.path):
            return {}
        with open(self.path, "rb") as fh:
            lines = fh.read().split(b"\n")
        records: Dict[int, Dict] = {}
        payload_lines = [ln for ln in lines if ln.strip()]
        for i, line in enumerate(payload_lines):
            try:
                wrapper = json.loads(line.decode("utf-8"))
                record = wrapper["record"]
                recorded = wrapper["sha256"]
                ok = pagelib.sha256_hex(
                    pagelib.canonical_json(record)
                ) == recorded
            except (
                json.JSONDecodeError, KeyError, TypeError,
                UnicodeDecodeError,
            ):
                ok = False
                record = None
            if not ok:
                if i == len(payload_lines) - 1:
                    break  # torn tail: the crash landed mid-append
                raise CheckpointStoreError(
                    f"serve journal line {i} corrupt",
                    page=os.path.basename(self.path),
                    kind="journal-corrupt",
                )
            records[int(record["batch_id"])] = record
        return records

    def append(self, record: Dict) -> None:
        wrapper = {"record": record, "sha256": pagelib.sha256_hex(
            pagelib.canonical_json(record)
        )}
        line = json.dumps(wrapper, sort_keys=True) + "\n"
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(line)
            fh.flush()
            os.fsync(fh.fileno())


class CheckpointStore:
    """Durable page + write-ahead-manifest checkpoint store."""

    def __init__(
        self,
        run_dir: str,
        retain: int = 2,
        compact: bool = True,
        injector=None,
    ) -> None:
        if retain < 1:
            raise CheckpointStoreError(
                "retain must be >= 1", run_dir=run_dir
            )
        self.run_dir = str(run_dir)
        self.retain = int(retain)
        self.compact = bool(compact)
        self.injector = injector
        self.manifest_path = os.path.join(self.run_dir, MANIFEST_NAME)
        os.makedirs(self.run_dir, exist_ok=True)

    def _fault_hook(self, op: str, relpath: str) -> pagelib.FaultHook:
        """Ask the injector about one write once its bytes are down."""
        if self.injector is None:
            return None
        return functools.partial(self.injector.on_store_write, op, relpath)

    @contextmanager
    def _damage(self, page: str, checkpoint: Optional[int] = None):
        """Report a page-store integrity failure as a structured error."""
        try:
            yield
        except pagelib.PageIntegrityError as exc:
            raise CheckpointStoreError(
                str(exc),
                run_dir=self.run_dir,
                checkpoint=checkpoint,
                page=page,
                kind=exc.reason,
            ) from None

    # ------------------------------------------------------------------
    # header (how to rebuild the run for `repro resume`) and manifest
    # ------------------------------------------------------------------
    def write_header(self, header: Dict) -> None:
        """Commit the run header (workload metadata) atomically."""
        pagelib.commit_json(
            os.path.join(self.run_dir, HEADER_NAME), header
        )

    def read_header(self) -> Dict:
        with self._damage(HEADER_NAME):
            return pagelib.read_document(
                os.path.join(self.run_dir, HEADER_NAME), "header"
            )

    def load_manifest(self) -> Dict:
        """Read and verify the committed manifest payload."""
        with self._damage(MANIFEST_NAME):
            payload = pagelib.read_document(self.manifest_path, "manifest")
        if payload.get("format") != STORE_FORMAT:
            raise CheckpointStoreError(
                f"unsupported manifest format {payload.get('format')!r}",
                run_dir=self.run_dir,
                page=MANIFEST_NAME,
                kind="manifest-format",
            )
        return payload

    # ------------------------------------------------------------------
    # committing checkpoints
    # ------------------------------------------------------------------
    def commit_checkpoint(
        self,
        round_index: int,
        kind: str,
        arrays: Dict[str, np.ndarray],
        dirty_by_array: Optional[Dict[str, np.ndarray]],
        scalars: Dict,
        rounds_mark: int,
        dead_gpus,
        incrementals_since_full: int,
    ) -> Dict:
        """Write one checkpoint's pages, then commit the manifest.

        ``kind`` is ``"full"`` (pages hold whole arrays) or
        ``"incremental"`` (pages hold ``int64`` dirty indices followed
        by the dirty values, against the previous checkpoint in the
        chain). Retention, compaction, and GC of superseded checkpoints
        ride the same single manifest commit.
        """
        try:
            payload = self.load_manifest()
        except CheckpointStoreError as exc:
            if exc.kind != "manifest-lost":
                raise
            payload = {"format": STORE_FORMAT, "checkpoints": []}
        ckpt_dir = _ckpt_dirname(round_index)
        abs_dir = os.path.join(self.run_dir, ckpt_dir)
        if os.path.exists(abs_dir):
            # A crashed earlier attempt (or a replayed round) left a
            # stale directory; this commit fully replaces it.
            shutil.rmtree(abs_dir)
        os.makedirs(abs_dir)

        def hook(fname: str) -> pagelib.FaultHook:
            return self._fault_hook("page", os.path.join(ckpt_dir, fname))

        pages: Dict[str, Dict] = {}
        for name in sorted(arrays):
            index = None
            if kind != "full" and dirty_by_array is not None:
                index = np.flatnonzero(
                    np.asarray(dirty_by_array[name], dtype=bool)
                ).astype(np.int64)
            fname = f"{name}.page"
            page = pagelib.write_array_page(
                os.path.join(abs_dir, fname), arrays[name], index,
                hook(fname),
            )
            page.setdefault("count", page["shape"][0])
            page["page_kind"] = "full" if index is None else "delta"
            pages[name] = page
        scalars_page = pagelib.write_page(
            os.path.join(abs_dir, SCALARS_NAME),
            pickle.dumps(scalars, protocol=4),
            hook(SCALARS_NAME),
        )
        for page in [*pages.values(), scalars_page]:
            page.update(stored_bytes=page["raw_bytes"], compressed=False)
        entry = {
            "round": int(round_index),
            "kind": kind,
            "dir": ckpt_dir,
            "rounds_mark": int(rounds_mark),
            "dead_gpus": sorted(int(g) for g in dead_gpus),
            "incrementals_since_full": int(incrementals_since_full),
            "pages": pages,
            "scalars": scalars_page,
        }

        checkpoints = [
            e for e in payload["checkpoints"]
            if e["round"] != int(round_index)
        ]
        checkpoints.append(entry)
        checkpoints.sort(key=lambda e: e["round"])
        kept, dropped = self._apply_retention(checkpoints)
        compact_cleanup = (
            self._compact_cold(kept) if self.compact else []
        )
        payload["checkpoints"] = kept
        pagelib.commit_json(
            self.manifest_path, payload,
            self._fault_hook("manifest", MANIFEST_NAME),
        )

        # Post-commit cleanup: superseded checkpoint directories and
        # the uncompressed originals of freshly compacted pages. A
        # crash before this point leaves orphans (never dangling
        # references); `scrub` reports and removes them.
        for e in dropped:
            shutil.rmtree(
                os.path.join(self.run_dir, e["dir"]), ignore_errors=True
            )
        for relpath in compact_cleanup:
            try:
                os.unlink(os.path.join(self.run_dir, relpath))
            except OSError:
                pass
        return entry

    def _apply_retention(
        self, checkpoints: List[Dict]
    ) -> Tuple[List[Dict], List[Dict]]:
        """Split into (kept, dropped) under the retention window.

        The newest ``retain`` checkpoints survive; the window then
        stretches back to the nearest full checkpoint so every kept
        incremental still has its restore chain.
        """
        if len(checkpoints) <= self.retain:
            return checkpoints, []
        cut = len(checkpoints) - self.retain
        while cut > 0 and checkpoints[cut]["kind"] != "full":
            cut -= 1
        return checkpoints[cut:], checkpoints[:cut]

    def _compact_cold(self, checkpoints: List[Dict]) -> List[str]:
        """Compress cold pages copy-on-write; returns originals to GC.

        Every checkpoint except the newest is cold. Compressed variants
        are written *next to* the originals before the manifest commit
        references them; the caller unlinks the originals only after
        the commit succeeds.
        """
        cleanup: List[str] = []
        for entry in checkpoints[:-1]:
            for page in [*entry["pages"].values(), entry["scalars"]]:
                if page["compressed"]:
                    continue
                rel = os.path.join(entry["dir"], page["file"])
                path = os.path.join(self.run_dir, rel)
                try:
                    raw = pagelib.read_page_bytes(path, page)
                except (OSError, pagelib.PageIntegrityError):
                    # Never compact (and re-bless) a damaged page:
                    # that is scrub's problem.
                    continue
                packed = zlib.compress(raw, 6)
                pagelib.write_page(path + ".z", packed)
                page["file"] = page["file"] + ".z"
                page["stored_bytes"] = len(packed)
                page["compressed"] = True
                cleanup.append(rel)
        return cleanup

    # ------------------------------------------------------------------
    # reading back
    # ------------------------------------------------------------------
    def _restore_chain(
        self, payload: Dict, target: Dict
    ) -> List[Dict]:
        """Manifest entries from the last full checkpoint to ``target``."""
        chain: List[Dict] = []
        for entry in payload["checkpoints"]:
            if entry["round"] > target["round"]:
                continue
            chain.append(entry)
        chain.sort(key=lambda e: e["round"])
        # Trim to the last full checkpoint at or before the target.
        for i in range(len(chain) - 1, -1, -1):
            if chain[i]["kind"] == "full":
                return chain[i:]
        raise CheckpointStoreError(
            "no full checkpoint anchors this incremental chain",
            run_dir=self.run_dir,
            checkpoint=target["round"],
            kind="broken-chain",
        )

    def materialize(self, payload: Dict, target: Dict) -> LoadedCheckpoint:
        """Verify and rebuild the arrays/scalars of one checkpoint."""
        chain = self._restore_chain(payload, target)
        arrays: Dict[str, np.ndarray] = {}
        for entry in chain:
            for name in sorted(entry["pages"]):
                page = entry["pages"][name]
                base = None
                if page["page_kind"] != "full":
                    if name not in arrays:
                        raise CheckpointStoreError(
                            f"delta page {name!r} has no base array",
                            run_dir=self.run_dir,
                            checkpoint=entry["round"],
                            kind="broken-chain",
                        )
                    base = arrays[name]
                rel = os.path.join(entry["dir"], page["file"])
                with self._damage(rel, entry["round"]):
                    arrays[name] = pagelib.read_array_page(
                        os.path.join(self.run_dir, rel), page, base=base
                    )
        rel = os.path.join(target["dir"], target["scalars"]["file"])
        with self._damage(rel, target["round"]):
            scalars = pickle.loads(pagelib.read_page_bytes(
                os.path.join(self.run_dir, rel), target["scalars"]
            ))
        return LoadedCheckpoint(
            round_index=int(target["round"]),
            kind=target["kind"],
            rounds_mark=int(target["rounds_mark"]),
            dead_gpus=tuple(target["dead_gpus"]),
            incrementals_since_full=int(
                target["incrementals_since_full"]
            ),
            arrays=arrays,
            scalars=scalars,
        )

    def load_best(self) -> LoadedCheckpoint:
        """Newest checkpoint whose whole restore chain verifies.

        Damaged newer checkpoints are skipped (recorded as structured
        findings on the returned object); if nothing verifies the
        structured error names every casualty.
        """
        payload = self.load_manifest()
        findings: List[CheckpointStoreError] = []
        for entry in sorted(
            payload["checkpoints"],
            key=lambda e: e["round"],
            reverse=True,
        ):
            try:
                loaded = self.materialize(payload, entry)
            except CheckpointStoreError as exc:
                findings.append(exc)
                continue
            loaded.findings = findings
            return loaded
        raise CheckpointStoreError(
            "no intact checkpoint in store"
            + (
                f"; damage: {'; '.join(str(f) for f in findings)}"
                if findings
                else " (manifest lists none)"
            ),
            run_dir=self.run_dir,
            kind="no-intact-checkpoint",
        )

    # ------------------------------------------------------------------
    # scrub
    # ------------------------------------------------------------------
    def scrub(self, repair: bool = False) -> ScrubReport:
        """Audit the whole run directory; optionally repair it.

        Detects torn/rotten/missing pages, broken delta chains, stale
        manifest entries (directory gone), orphan checkpoint
        directories (on disk but unreferenced — the residue of a
        mid-spill crash), and a stale manifest temp file (mid-commit
        crash). ``repair=True`` drops damaged checkpoints from the
        manifest — falling back to the previous intact one — deletes
        orphans, and recommits; it raises when *nothing* intact
        remains (there is no state to fall back to).
        """
        findings: List[CheckpointStoreError] = []
        intact: List[Dict] = []
        dropped: List[Dict] = []
        try:
            payload = self.load_manifest()
        except CheckpointStoreError as exc:
            findings.append(exc)
            payload = None

        if payload is not None:
            for entry in payload["checkpoints"]:
                abs_dir = os.path.join(self.run_dir, entry["dir"])
                if not os.path.isdir(abs_dir):
                    findings.append(CheckpointStoreError(
                        "manifest references a missing checkpoint "
                        "directory (stale manifest)",
                        run_dir=self.run_dir,
                        checkpoint=entry["round"],
                        page=entry["dir"],
                        kind="stale-manifest",
                    ))
                    dropped.append(entry)
                    continue
                try:
                    self.materialize(payload, entry)
                except CheckpointStoreError as exc:
                    findings.append(exc)
                    dropped.append(entry)
                else:
                    intact.append(entry)

        referenced = {
            e["dir"] for e in (payload["checkpoints"] if payload else [])
        }
        orphans: List[str] = []
        for name in sorted(os.listdir(self.run_dir)):
            if name.startswith("ckpt-") and name not in referenced:
                orphans.append(name)
                findings.append(CheckpointStoreError(
                    "orphan checkpoint directory (unreferenced by the "
                    "manifest — a crashed mid-spill commit)",
                    run_dir=self.run_dir,
                    page=name,
                    kind="orphan",
                ))
        stale_tmp = pagelib.stale_tmp_path(self.manifest_path)
        if stale_tmp is not None:
            findings.append(CheckpointStoreError(
                "stale manifest temp file (crashed mid-commit; the "
                "rename never happened)",
                run_dir=self.run_dir,
                page=os.path.basename(stale_tmp),
                kind="stale-tmp",
            ))

        report = ScrubReport(
            run_dir=self.run_dir,
            intact_rounds=[e["round"] for e in intact],
            findings=findings,
            dropped_rounds=[e["round"] for e in dropped],
        )
        if not repair or not findings:
            return report

        if payload is None:
            raise CheckpointStoreError(
                "cannot repair: manifest itself is lost or corrupt",
                run_dir=self.run_dir,
                kind="unrepairable",
            )
        if not intact:
            raise CheckpointStoreError(
                "cannot repair: no intact checkpoint to fall back to",
                run_dir=self.run_dir,
                kind="unrepairable",
            )
        payload["checkpoints"] = intact
        pagelib.commit_json(
            self.manifest_path, payload,
            self._fault_hook("manifest", MANIFEST_NAME),
        )
        for entry in dropped:
            shutil.rmtree(
                os.path.join(self.run_dir, entry["dir"]),
                ignore_errors=True,
            )
        for name in orphans:
            shutil.rmtree(
                os.path.join(self.run_dir, name), ignore_errors=True
            )
        if stale_tmp is not None and os.path.exists(stale_tmp):
            os.unlink(stale_tmp)
        report.repaired = True
        return report
