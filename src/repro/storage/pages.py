"""The one on-disk page store: format, atomic commit, reads, damage names.

Everything this repo persists — durable checkpoints
(:mod:`repro.faults.store`) and sharded graph stores
(:mod:`repro.storage.partition` writes them, :mod:`repro.storage.store`
reads them) — is written, committed, read back and diagnosed here:

- **Checksummed array pages.** A page file holds an array's raw bytes,
  or for a *delta* page its int64 indices followed by the values there.
  The manifest entry ``{file, sha256, raw_bytes, dtype, shape}`` (plus
  ``compressed`` / ``stored_bytes`` for a zlib-compacted page and
  ``count`` for a delta page) records the sha256 of the uncompressed
  payload, so torn writes and bit rot are always *detected*.
- **Self-checksummed documents.** Manifests and headers are stored as
  ``{"payload": ..., "sha256": <hex of canonical payload JSON>}``
  wrappers, so a document that decodes but was altered in place still
  fails verification.
- **Atomic commit.** A document is written to ``<path>.tmp`` and
  ``os.replace``'d — the rename *is* the commit. A crash mid-write
  leaves a stale temp file, never a half-written document.
- **One damage model.** :func:`apply_file_fault` is the torn / bitrot /
  lost / crash damage the storage-fault injector schedules; every write
  takes an optional fault hook and lands the damage where the real
  failure would.

Every read failure raises :class:`PageIntegrityError` whose ``reason``
*is* the damage kind (the table in ``docs/storage.md``); a store only
wraps it in its own structured error
(:class:`~repro.errors.CheckpointStoreError`,
:class:`~repro.errors.StorageError`) with layout-specific context.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import zlib
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.errors import InjectedCrashError

#: Stream-hash chunk size.
HASH_CHUNK_BYTES = 1 << 20

#: A write's fault hook: called once the bytes are written, it returns
#: the storage fault to land on them (anything with a ``kind``) or None.
FaultHook = Optional[Callable[[], object]]


class PageIntegrityError(Exception):
    """A page or document failed verification.

    ``reason`` is the damage kind: ``missing-page``, ``torn``,
    ``bitrot`` or ``inconsistent`` for a page; ``<name>-lost``,
    ``<name>-torn``, ``<name>-corrupt`` or ``<name>-format`` for a
    document read as ``name``.
    """

    def __init__(self, reason: str, message: str) -> None:
        super().__init__(message)
        self.reason = reason


def sha256_hex(data: bytes) -> str:
    """Hex sha256 of an in-memory payload."""
    return hashlib.sha256(data).hexdigest()


def sha256_file(path: str, chunk_bytes: int = HASH_CHUNK_BYTES) -> Tuple[str, int]:
    """Streamed ``(hex sha256, size)`` of a file — never loads it whole."""
    digest = hashlib.sha256()
    size = 0
    with open(path, "rb") as fh:
        while True:
            chunk = fh.read(chunk_bytes)
            if not chunk:
                break
            digest.update(chunk)
            size += len(chunk)
    return digest.hexdigest(), size


def canonical_json(payload) -> bytes:
    """The canonical byte form a payload's self-checksum covers."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def apply_file_fault(path: str, fault) -> None:
    """Land one scheduled storage fault on a just-written file.

    The damage models what the disk ended up holding: ``torn`` (and
    ``crash``) truncates the file to half, ``bitrot`` flips one byte,
    ``lost`` unlinks it.
    """
    if fault.kind in ("torn", "crash"):
        size = os.path.getsize(path)
        with open(path, "r+b") as fh:
            fh.truncate(size // 2)
    elif fault.kind == "bitrot":
        with open(path, "r+b") as fh:
            data = bytearray(fh.read())
            if data:
                data[len(data) // 2] ^= 0xFF
            fh.seek(0)
            fh.write(bytes(data))
            fh.truncate(len(data))
    elif fault.kind == "lost":
        os.unlink(path)


# ----------------------------------------------------------------------
# documents
# ----------------------------------------------------------------------
def commit_json(path: str, payload, fault_hook: FaultHook = None) -> None:
    """Atomically commit a self-checksummed JSON document.

    Writes the wrapped payload to ``<path>.tmp`` and renames it over
    ``path``; the ``os.replace`` is the commit point. ``fault_hook``
    runs between the temp write and the rename: a ``crash`` leaves the
    temp file and raises :class:`~repro.errors.InjectedCrashError`
    (``mid-manifest``), ``torn`` / ``bitrot`` damage the temp file
    before it is committed, ``lost`` unlinks the committed document.
    """
    wrapper = {"payload": payload, "sha256": sha256_hex(canonical_json(payload))}
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(json.dumps(wrapper, sort_keys=True, indent=1).encode("utf-8"))
    fault = fault_hook() if fault_hook is not None else None
    if fault is not None and fault.kind == "crash":
        raise InjectedCrashError(
            "whole-job crash during a manifest commit",
            crash_point="mid-manifest",
        )
    if fault is not None and fault.kind != "lost":
        apply_file_fault(tmp, fault)
    os.replace(tmp, path)
    if fault is not None and fault.kind == "lost":
        os.unlink(path)


def read_document(path: str, name: str) -> Dict:
    """Read and verify a committed document; returns its payload.

    Raises :class:`PageIntegrityError` with reason ``<name>-lost`` (no
    file), ``<name>-torn`` (not complete JSON — a torn write leaves an
    ASCII prefix), ``<name>-corrupt`` (non-UTF-8 bytes, or the payload
    fails its self-checksum: bit rot) or ``<name>-format`` (JSON that
    is not a payload/sha256 wrapper).
    """
    fname = os.path.basename(path)
    try:
        with open(path, "rb") as fh:
            wrapper = json.loads(fh.read().decode("utf-8"))
    except FileNotFoundError:
        raise PageIntegrityError(f"{name}-lost", f"{fname} missing") from None
    except UnicodeDecodeError as exc:
        raise PageIntegrityError(
            f"{name}-corrupt", f"{fname} holds non-UTF-8 bytes: {exc}"
        ) from None
    except (json.JSONDecodeError, OSError) as exc:
        raise PageIntegrityError(
            f"{name}-torn", f"{fname} unreadable (torn write?): {exc}"
        ) from None
    try:
        payload = wrapper["payload"]
        recorded = wrapper["sha256"]
    except (KeyError, TypeError) as exc:
        raise PageIntegrityError(
            f"{name}-format", f"{fname} is not a payload/sha256 wrapper: {exc}"
        ) from None
    if sha256_hex(canonical_json(payload)) != recorded:
        raise PageIntegrityError(
            f"{name}-corrupt", f"{fname} checksum mismatch (bit rot)"
        )
    return payload


def stale_tmp_path(path: str) -> Optional[str]:
    """The stale ``.tmp`` sibling of a committed document, if present."""
    tmp = path + ".tmp"
    return tmp if os.path.exists(tmp) else None


# ----------------------------------------------------------------------
# pages
# ----------------------------------------------------------------------
def write_page(path: str, data: bytes, fault_hook: FaultHook = None) -> Dict:
    """Write one page file; returns its ``{file, sha256, raw_bytes}`` entry.

    ``fault_hook`` runs after the write and its fault lands on the file;
    a ``crash`` leaves the page torn and raises
    :class:`~repro.errors.InjectedCrashError` (``mid-spill``).
    """
    with open(path, "wb") as fh:
        fh.write(data)
    fault = fault_hook() if fault_hook is not None else None
    if fault is not None:
        apply_file_fault(path, fault)
        if fault.kind == "crash":
            raise InjectedCrashError(
                "whole-job crash during a checkpoint page spill",
                crash_point="mid-spill",
            )
    return {
        "file": os.path.basename(path),
        "sha256": sha256_hex(data),
        "raw_bytes": len(data),
    }


def write_array_page(
    path: str,
    array: np.ndarray,
    index: Optional[np.ndarray] = None,
    fault_hook: FaultHook = None,
) -> Dict:
    """Write one array page; returns its manifest entry.

    With ``index`` (int64 positions) the page is a delta: the indices
    followed by ``array[index]``, and the entry records their ``count``.
    """
    array = np.ascontiguousarray(array)
    if index is None:
        entry = write_page(path, array.tobytes(), fault_hook)
    else:
        data = index.tobytes() + array[index].tobytes()
        entry = write_page(path, data, fault_hook)
        entry["count"] = int(index.size)
    entry["dtype"] = str(array.dtype)
    entry["shape"] = [int(s) for s in array.shape]
    return entry


def _check_payload(path: str, size: int, sha256: str, entry: Dict) -> None:
    if size != entry["raw_bytes"]:
        raise PageIntegrityError(
            "torn",
            f"{os.path.basename(path)} torn "
            f"({size} of {entry['raw_bytes']} bytes)",
        )
    if sha256 != entry["sha256"]:
        raise PageIntegrityError(
            "bitrot", f"{os.path.basename(path)} checksum mismatch (bit rot)"
        )


def verify_page_file(path: str, entry: Dict) -> None:
    """Stream-verify a raw page file against its entry, never holding it."""
    if not os.path.exists(path):
        raise PageIntegrityError(
            "missing-page", f"{os.path.basename(path)} missing"
        )
    sha256, size = sha256_file(path)
    _check_payload(path, size, sha256, entry)


def read_page_bytes(path: str, entry: Dict) -> bytes:
    """Read one page whole and verify it in memory; returns the payload.

    A compacted page (``compressed``) is checked against
    ``stored_bytes`` and expanded before its payload is verified.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        raise PageIntegrityError(
            "missing-page", f"{os.path.basename(path)} missing"
        ) from None
    if entry.get("compressed"):
        if len(data) != entry["stored_bytes"]:
            raise PageIntegrityError(
                "torn",
                f"compressed {os.path.basename(path)} torn "
                f"({len(data)} of {entry['stored_bytes']} bytes)",
            )
        try:
            data = zlib.decompress(data)
        except zlib.error as exc:
            raise PageIntegrityError(
                "bitrot",
                f"compressed {os.path.basename(path)} undecodable: {exc}",
            ) from None
    _check_payload(path, len(data), sha256_hex(data), entry)
    return data


def read_array_page(
    path: str,
    entry: Dict,
    base: Optional[np.ndarray] = None,
    mmap: bool = False,
) -> np.ndarray:
    """Read and verify one array page against its manifest entry.

    By default the page is read once and hashed in memory and a fresh
    writable array comes back; a delta page (pass the array it patches
    as ``base``) scatters its values into ``base`` and returns it. With
    ``mmap=True`` a raw full page is stream-verified without being held
    and then mapped read-only.

    Raises :class:`PageIntegrityError`: ``missing-page``, ``torn``,
    ``bitrot``, or ``inconsistent`` when verified bytes disagree with
    the entry's dtype and ``shape`` (or delta ``count``).
    """
    dtype = np.dtype(entry["dtype"])
    shape = tuple(entry["shape"])
    if base is None:
        expected = math.prod(shape) * dtype.itemsize
    else:
        split = int(entry["count"]) * 8  # the int64 indices come first
        expected = split + int(entry["count"]) * dtype.itemsize
    if mmap:
        verify_page_file(path, entry)
    else:
        data = read_page_bytes(path, entry)
    if expected != entry["raw_bytes"]:
        raise PageIntegrityError(
            "inconsistent",
            f"{os.path.basename(path)}: manifest describes {expected} "
            f"bytes, the page holds {entry['raw_bytes']}",
        )
    if mmap:
        if not expected:
            return np.empty(shape, dtype=dtype)
        return np.memmap(path, dtype=dtype, mode="r", shape=shape)
    if base is None:
        return np.frombuffer(data, dtype=dtype).reshape(shape).copy()
    base[np.frombuffer(data[:split], dtype=np.int64)] = np.frombuffer(
        data[split:], dtype=dtype
    )
    return base
