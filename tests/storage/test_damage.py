"""Damage handling on the shard store (ISSUE-10 satellite).

Every way a store can rot on disk — torn shard page, flipped byte,
missing page, lost/torn/corrupt/stale manifest, manifest that
contradicts the pages — must surface as a structured
:class:`~repro.errors.StorageError` carrying the damaged ``path``, the
``shard`` id where one applies, and a machine-readable ``kind``. A raw
traceback (KeyError, ValueError, OSError) is a failure.
"""

import json
import os
import shutil

import numpy as np
import pytest

from repro.errors import CheckpointStoreError, StorageError
from repro.faults import CheckpointStore
from repro.faults.store import MANIFEST_NAME
from repro.storage import GRAPH_MANIFEST_NAME, ShardStore, shard_dirname
from repro.storage.pages import apply_file_fault, commit_json, read_document


def damage_truncate(path):
    with open(path, "r+b") as fh:
        fh.truncate(os.path.getsize(path) // 2)


def damage_flip_byte(path):
    with open(path, "r+b") as fh:
        data = bytearray(fh.read())
        data[len(data) // 2] ^= 0xFF
        fh.seek(0)
        fh.write(bytes(data))
        fh.truncate(len(data))


class TestShardPageDamage:
    def test_torn_shard_page(self, store_dir):
        path = os.path.join(store_dir, shard_dirname(1), "indices.page")
        damage_truncate(path)
        store = ShardStore(store_dir)
        with pytest.raises(StorageError) as err:
            store.load_shard(1)
        assert err.value.kind == "torn"
        assert err.value.shard == 1
        assert err.value.path == path
        # Undamaged shards still load.
        store.load_shard(0)

    def test_bitrot_shard_page(self, store_dir):
        path = os.path.join(store_dir, shard_dirname(2), "weights.page")
        damage_flip_byte(path)
        with pytest.raises(StorageError) as err:
            ShardStore(store_dir).load_shard(2)
        assert err.value.kind == "bitrot"
        assert err.value.shard == 2
        assert err.value.path == path

    def test_missing_shard_page(self, store_dir):
        path = os.path.join(store_dir, shard_dirname(0), "vertex_ids.page")
        os.unlink(path)
        with pytest.raises(StorageError) as err:
            ShardStore(store_dir).load_shard(0)
        assert err.value.kind == "missing-page"
        assert err.value.shard == 0
        assert err.value.path == path

    def test_scan_finds_damage_anywhere(self, store_dir):
        damage_flip_byte(
            os.path.join(store_dir, shard_dirname(3), "indptr.page")
        )
        with pytest.raises(StorageError) as err:
            ShardStore(store_dir).scan()
        assert err.value.kind == "bitrot"
        assert err.value.shard == 3


class TestMapPageDamage:
    def test_missing_node_map(self, store_dir):
        path = os.path.join(store_dir, "node_map.page")
        os.unlink(path)
        with pytest.raises(StorageError) as err:
            ShardStore(store_dir).node_map()
        assert err.value.kind == "missing-page"
        assert err.value.path == path

    def test_torn_edge_map_caught_by_scan(self, store_dir):
        damage_truncate(os.path.join(store_dir, "edge_map.page"))
        with pytest.raises(StorageError) as err:
            ShardStore(store_dir).scan()
        assert err.value.kind == "torn"


class TestManifestDamage:
    def test_manifest_lost(self, store_dir):
        os.unlink(os.path.join(store_dir, GRAPH_MANIFEST_NAME))
        with pytest.raises(StorageError) as err:
            ShardStore(store_dir)
        assert err.value.kind == "manifest-lost"

    def test_manifest_torn(self, store_dir):
        damage_truncate(os.path.join(store_dir, GRAPH_MANIFEST_NAME))
        with pytest.raises(StorageError) as err:
            ShardStore(store_dir)
        assert err.value.kind == "manifest-torn"

    def test_manifest_corrupted_in_place(self, store_dir):
        path = os.path.join(store_dir, GRAPH_MANIFEST_NAME)
        with open(path) as fh:
            doc = json.load(fh)
        doc["payload"]["num_edges"] += 1
        with open(path, "w") as fh:
            json.dump(doc, fh)
        with pytest.raises(StorageError) as err:
            ShardStore(store_dir)
        assert err.value.kind == "manifest-corrupt"

    def test_manifest_wrong_kind(self, store_dir):
        path = os.path.join(store_dir, GRAPH_MANIFEST_NAME)
        commit_json(path, {"kind": "checkpoint", "format": 1})
        with pytest.raises(StorageError) as err:
            ShardStore(store_dir)
        assert err.value.kind == "manifest-format"

    def test_manifest_future_format(self, store_dir):
        path = os.path.join(store_dir, GRAPH_MANIFEST_NAME)
        payload = read_document(path, "manifest")
        payload["format"] = 999
        commit_json(path, payload)
        with pytest.raises(StorageError, match="unsupported") as err:
            ShardStore(store_dir)
        assert err.value.kind == "manifest-format"

    def test_manifest_missing_key(self, store_dir):
        path = os.path.join(store_dir, GRAPH_MANIFEST_NAME)
        payload = read_document(path, "manifest")
        del payload["node_map"]
        commit_json(path, payload)
        with pytest.raises(StorageError, match="node_map") as err:
            ShardStore(store_dir)
        assert err.value.kind == "manifest-format"

    def test_malformed_wrapper_is_format(self, store_dir):
        path = os.path.join(store_dir, GRAPH_MANIFEST_NAME)
        with open(path) as fh:
            doc = json.load(fh)
        del doc["sha256"]
        with open(path, "w") as fh:
            json.dump(doc, fh)
        with pytest.raises(StorageError) as err:
            ShardStore(store_dir)
        assert err.value.kind == "manifest-format"

    def test_stale_manifest_names_the_missing_shard(self, store_dir):
        shutil.rmtree(os.path.join(store_dir, shard_dirname(2)))
        with pytest.raises(StorageError, match="stale") as err:
            ShardStore(store_dir)
        assert err.value.kind == "stale-manifest"
        assert err.value.shard == 2


class TestManifestPageDisagreement:
    def test_shape_size_mismatch(self, store_dir):
        path = os.path.join(store_dir, GRAPH_MANIFEST_NAME)
        payload = read_document(path, "manifest")
        entry = payload["parts"][1]["pages"]["indices"]
        entry["shape"] = [entry["shape"][0] + 1]
        commit_json(path, payload)
        with pytest.raises(StorageError) as err:
            ShardStore(store_dir).load_shard(1)
        assert err.value.kind == "inconsistent"
        assert err.value.shard == 1

    def test_swapped_pages_fail_csr_validation(self, store_dir):
        # Re-point indptr at the (intact, correctly checksummed)
        # vertex_ids page: every checksum passes, the CSR invariants
        # don't — validate_csr_arrays must catch it.
        path = os.path.join(store_dir, GRAPH_MANIFEST_NAME)
        payload = read_document(path, "manifest")
        pages_entry = payload["parts"][0]["pages"]
        pages_entry["indptr"] = dict(
            pages_entry["vertex_ids"], file="vertex_ids.page"
        )
        commit_json(path, payload)
        with pytest.raises(StorageError) as err:
            ShardStore(store_dir).load_shard(0)
        assert err.value.kind == "inconsistent"
        assert err.value.shard == 0

    def test_error_messages_carry_context(self, store_dir):
        damage_truncate(
            os.path.join(store_dir, shard_dirname(1), "indices.page")
        )
        with pytest.raises(StorageError) as err:
            ShardStore(store_dir).load_shard(1)
        text = str(err.value)
        assert "indices" in text
        assert err.value.path is not None
        assert err.value.shard == 1
        assert err.value.kind == "torn"


class _Fault:
    def __init__(self, kind):
        self.kind = kind


def _checkpoint_store(root):
    """A one-checkpoint durable store: (open/read it, page, manifest)."""
    store = CheckpointStore(root, compact=False)
    store.commit_checkpoint(
        0, "full", arrays={"values": np.arange(64.0)},
        dirty_by_array=None, scalars={}, rounds_mark=1, dead_gpus=(),
        incrementals_since_full=0,
    )

    def read():
        fresh = CheckpointStore(root, compact=False)
        payload = fresh.load_manifest()
        fresh.materialize(payload, payload["checkpoints"][0])

    return (
        read,
        os.path.join(root, "ckpt-000000", "values.page"),
        os.path.join(root, MANIFEST_NAME),
    )


def _shard_store(root):
    """The partitioned shard store: (open/read it, page, manifest)."""
    return (
        lambda: ShardStore(root).load_shard(1),
        os.path.join(root, shard_dirname(1), "indices.page"),
        os.path.join(root, GRAPH_MANIFEST_NAME),
    )


class TestOneDamageVocabulary:
    """Both stores read pages and manifests through the page store, so
    the same damage gets the same name from either of them."""

    @pytest.mark.parametrize("store", ["checkpoint", "shard"])
    @pytest.mark.parametrize(
        "target,damage,kind",
        [
            ("page", "torn", "torn"),
            ("page", "bitrot", "bitrot"),
            ("page", "lost", "missing-page"),
            ("manifest", "torn", "manifest-torn"),
            ("manifest", "bitrot", "manifest-corrupt"),
            ("manifest", "lost", "manifest-lost"),
        ],
    )
    def test_same_damage_same_kind(
        self, store_dir, tmp_path, store, target, damage, kind
    ):
        if store == "checkpoint":
            read, page, manifest = _checkpoint_store(str(tmp_path / "run"))
        else:
            read, page, manifest = _shard_store(store_dir)
        read()  # intact before the damage
        apply_file_fault(page if target == "page" else manifest,
                         _Fault(damage))
        with pytest.raises((CheckpointStoreError, StorageError)) as err:
            read()
        assert err.value.kind == kind
