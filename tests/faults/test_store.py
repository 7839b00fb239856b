"""Durable checkpoint store: crash-consistent commits, retention,
compaction, checksum verification, injected storage faults, scrub and
repair, and the serve-side batch journal.

The contract under test is the ISSUE-9 acceptance bar: every injected
storage fault must either be repaired (fallback to an older intact
checkpoint) or surface as a structured
:class:`~repro.errors.CheckpointStoreError` — silent acceptance of a
corrupted page is a failure.
"""

import json
import os

import numpy as np
import pytest

from repro.errors import CheckpointStoreError, InjectedCrashError
from repro.faults import (
    STORAGE_BITROT,
    STORAGE_CRASH,
    STORAGE_LOST,
    STORAGE_TORN,
    STORE_OP_MANIFEST,
    STORE_OP_PAGE,
    CheckpointStore,
    FaultInjector,
    FaultPlan,
    ServeJournal,
    StorageFault,
)
from repro.faults.store import MANIFEST_NAME
from repro.storage.pages import commit_json


def arrays(seed=0, n=64):
    rng = np.random.default_rng(seed)
    return {
        "values": rng.random(n),
        "active": rng.random(n) < 0.5,
    }


def commit(store, round_index, arrs, kind="full", dirty=None, rounds=None):
    return store.commit_checkpoint(
        round_index,
        kind,
        arrays=arrs,
        dirty_by_array=dirty,
        scalars={"round": round_index, "tag": "t"},
        rounds_mark=rounds if rounds is not None else round_index + 1,
        dead_gpus=(),
        incrementals_since_full=0,
    )


class TestCommitAndLoad:
    def test_roundtrip_bit_exact(self, tmp_path):
        store = CheckpointStore(tmp_path)
        arrs = arrays(1)
        commit(store, 0, arrs)
        loaded = store.load_best()
        assert loaded.round_index == 0
        assert loaded.kind == "full"
        assert loaded.scalars["round"] == 0
        for name, arr in arrs.items():
            np.testing.assert_array_equal(loaded.arrays[name], arr)
        assert loaded.findings == []

    def test_commit_leaves_no_temp_manifest(self, tmp_path):
        store = CheckpointStore(tmp_path)
        commit(store, 0, arrays())
        assert not os.path.exists(
            tmp_path / (MANIFEST_NAME + ".tmp")
        )
        assert os.path.exists(tmp_path / MANIFEST_NAME)

    def test_newest_intact_wins(self, tmp_path):
        store = CheckpointStore(tmp_path)
        commit(store, 0, arrays(1))
        newer = arrays(2)
        commit(store, 1, newer)
        loaded = store.load_best()
        assert loaded.round_index == 1
        np.testing.assert_array_equal(loaded.arrays["values"],
                                      newer["values"])

    def test_same_round_recommit_replaces(self, tmp_path):
        store = CheckpointStore(tmp_path)
        commit(store, 0, arrays(1))
        second = arrays(9)
        commit(store, 0, second)
        payload = store.load_manifest()
        assert len(payload["checkpoints"]) == 1
        np.testing.assert_array_equal(
            store.load_best().arrays["values"], second["values"]
        )

    def test_incremental_chain_restores_exactly(self, tmp_path):
        store = CheckpointStore(tmp_path, compact=False)
        arrs = arrays(3)
        commit(store, 0, arrs)
        dirty = {
            "values": np.zeros(64, dtype=bool),
            "active": np.zeros(64, dtype=bool),
        }
        arrs["values"][5] = 42.0
        arrs["values"][17] = -1.0
        dirty["values"][[5, 17]] = True
        commit(store, 1, arrs, kind="incremental", dirty=dirty)
        loaded = store.load_best()
        assert loaded.round_index == 1
        np.testing.assert_array_equal(loaded.arrays["values"],
                                      arrs["values"])

    def test_header_roundtrip(self, tmp_path):
        store = CheckpointStore(tmp_path)
        header = {"mode": "engine", "dataset": "cnr", "scale": 0.2}
        store.write_header(header)
        assert store.read_header() == header

    def test_header_corruption_detected(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.write_header({"mode": "engine"})
        path = tmp_path / "run.json"
        wrapper = json.loads(path.read_text())
        wrapper["payload"]["mode"] = "tampered"
        path.write_text(json.dumps(wrapper))
        with pytest.raises(CheckpointStoreError) as err:
            store.read_header()
        assert err.value.kind == "header-corrupt"


class TestRetentionAndCompaction:
    def test_retention_gcs_old_checkpoints(self, tmp_path):
        store = CheckpointStore(tmp_path, retain=2)
        for r in range(5):
            commit(store, r, arrays(r))
        payload = store.load_manifest()
        rounds = [e["round"] for e in payload["checkpoints"]]
        assert rounds == [3, 4]
        dirs = sorted(
            d for d in os.listdir(tmp_path) if d.startswith("ckpt-")
        )
        assert dirs == ["ckpt-000003", "ckpt-000004"]

    def test_retention_keeps_chain_to_full(self, tmp_path):
        store = CheckpointStore(tmp_path, retain=1, compact=False)
        arrs = arrays(4)
        commit(store, 0, arrs)
        for r in (1, 2):
            dirty = {k: np.zeros(64, dtype=bool) for k in arrs}
            arrs["values"][r] = float(r)
            dirty["values"][r] = True
            commit(store, r, arrs, kind="incremental", dirty=dirty)
        rounds = [
            e["round"] for e in store.load_manifest()["checkpoints"]
        ]
        # retain=1 would keep only round 2, but its delta chain needs
        # the full checkpoint at round 0 — the window stretches back.
        assert rounds == [0, 1, 2]
        np.testing.assert_array_equal(
            store.load_best().arrays["values"], arrs["values"]
        )

    def test_cold_pages_compress_and_still_verify(self, tmp_path):
        store = CheckpointStore(tmp_path, retain=2, compact=True)
        # Compressible payload: constant arrays.
        arrs = {"values": np.zeros(512), "active": np.ones(512) > 0}
        commit(store, 0, arrs)
        commit(store, 1, arrs)
        payload = store.load_manifest()
        cold, hot = payload["checkpoints"]
        assert all(p["compressed"] for p in cold["pages"].values())
        assert all(
            p["stored_bytes"] < p["raw_bytes"]
            for p in cold["pages"].values()
        )
        assert not any(p["compressed"] for p in hot["pages"].values())
        # The cold checkpoint still materializes bit-exact.
        loaded = store.materialize(payload, cold)
        np.testing.assert_array_equal(loaded.arrays["values"],
                                      arrs["values"])
        # Originals of compacted pages were GC'd post-commit.
        assert not os.path.exists(
            tmp_path / "ckpt-000000" / "values.page"
        )
        assert os.path.exists(
            tmp_path / "ckpt-000000" / "values.page.z"
        )


def damage(path, mode):
    if mode == "torn":
        size = os.path.getsize(path)
        with open(path, "r+b") as fh:
            fh.truncate(size // 2)
    elif mode == "bitrot":
        data = bytearray(open(path, "rb").read())
        data[len(data) // 2] ^= 0xFF
        open(path, "wb").write(bytes(data))
    elif mode == "lost":
        os.unlink(path)


class TestCorruptionSurfacesStructured:
    """No silent acceptance: every damaged artifact either falls back
    to an older intact checkpoint (recorded as findings) or raises a
    structured CheckpointStoreError with a specific ``kind``."""

    @pytest.mark.parametrize(
        "mode,kind",
        [("torn", "torn"), ("bitrot", "bitrot"),
         ("lost", "missing-page")],
    )
    def test_damaged_page_falls_back_with_finding(
        self, tmp_path, mode, kind
    ):
        store = CheckpointStore(tmp_path, compact=False)
        good = arrays(1)
        commit(store, 0, good)
        commit(store, 1, arrays(2))
        damage(tmp_path / "ckpt-000001" / "values.page", mode)
        loaded = store.load_best()
        assert loaded.round_index == 0
        np.testing.assert_array_equal(loaded.arrays["values"],
                                      good["values"])
        assert [f.kind for f in loaded.findings] == [kind]

    @pytest.mark.parametrize(
        "mode,kind",
        [("torn", "torn"), ("bitrot", "bitrot"),
         ("lost", "missing-page")],
    )
    def test_only_checkpoint_damaged_raises(self, tmp_path, mode, kind):
        store = CheckpointStore(tmp_path, compact=False)
        commit(store, 0, arrays(1))
        damage(tmp_path / "ckpt-000000" / "values.page", mode)
        with pytest.raises(CheckpointStoreError) as err:
            store.load_best()
        assert err.value.kind == "no-intact-checkpoint"
        assert kind in str(err.value)

    def test_manifest_lost_raises(self, tmp_path):
        store = CheckpointStore(tmp_path)
        commit(store, 0, arrays())
        os.unlink(tmp_path / MANIFEST_NAME)
        with pytest.raises(CheckpointStoreError) as err:
            store.load_best()
        assert err.value.kind == "manifest-lost"

    def test_manifest_bitrot_raises(self, tmp_path):
        store = CheckpointStore(tmp_path)
        commit(store, 0, arrays())
        damage(tmp_path / MANIFEST_NAME, "bitrot")
        with pytest.raises(CheckpointStoreError) as err:
            store.load_manifest()
        assert err.value.kind == "manifest-corrupt"

    @pytest.mark.parametrize(
        "name,page_kind",
        [(MANIFEST_NAME, "manifest-format"), ("run.json", "header-format")],
    )
    def test_wrapper_without_checksum_is_format(
        self, tmp_path, name, page_kind
    ):
        store = CheckpointStore(tmp_path)
        commit(store, 0, arrays())
        store.write_header({"mode": "engine"})
        path = tmp_path / name
        wrapper = json.loads(path.read_text())
        del wrapper["sha256"]
        path.write_text(json.dumps(wrapper))
        with pytest.raises(CheckpointStoreError) as err:
            store.read_header() if name == "run.json" else store.load_best()
        assert err.value.kind == page_kind

    @pytest.mark.parametrize(
        "field,value",
        [("shape", [65]), ("count", 3)],
        ids=["full-page-shape", "delta-page-count"],
    )
    def test_manifest_that_disagrees_with_page_bytes_is_inconsistent(
        self, tmp_path, field, value
    ):
        # The manifest is re-committed with a valid self-checksum, so
        # only the page reader's shape/count check can catch it: the
        # damaged checkpoint is a finding and an older one loads.
        store = CheckpointStore(tmp_path, compact=False)
        good = arrays(1)
        commit(store, 0, good)
        newer = arrays(2)
        if field == "shape":
            commit(store, 1, newer)
        else:
            dirty = {name: np.zeros(64, dtype=bool) for name in newer}
            dirty["values"][[4, 9]] = True
            commit(store, 1, newer, kind="incremental", dirty=dirty)
        payload = store.load_manifest()
        payload["checkpoints"][1]["pages"]["values"][field] = value
        commit_json(str(tmp_path / MANIFEST_NAME), payload)
        loaded = store.load_best()
        assert [f.kind for f in loaded.findings] == ["inconsistent"]
        assert loaded.round_index == 0
        np.testing.assert_array_equal(loaded.arrays["values"],
                                      good["values"])

    def test_compressed_page_bitrot_detected(self, tmp_path):
        store = CheckpointStore(tmp_path, retain=2, compact=True)
        arrs = {"values": np.zeros(512), "active": np.ones(512) > 0}
        commit(store, 0, arrs)
        commit(store, 1, arrs)
        damage(tmp_path / "ckpt-000000" / "values.page.z", "bitrot")
        payload = store.load_manifest()
        cold = payload["checkpoints"][0]
        with pytest.raises(CheckpointStoreError) as err:
            store.materialize(payload, cold)
        assert err.value.kind in ("bitrot", "torn")


class TestInjectedStorageFaults:
    def injected_store(self, tmp_path, plan):
        return CheckpointStore(
            tmp_path, compact=False, injector=FaultInjector(plan)
        )

    @pytest.mark.parametrize(
        "fault_kind,expect",
        [
            (STORAGE_TORN, "torn"),
            (STORAGE_BITROT, "bitrot"),
            (STORAGE_LOST, "missing-page"),
        ],
    )
    def test_page_fault_at_index_detected(
        self, tmp_path, fault_kind, expect
    ):
        # Page-write index 2 = first page of the second commit (two
        # arrays + scalars per commit here → indices 0,1,2 then 3,4,5).
        plan = FaultPlan(
            storage_faults={3: StorageFault(fault_kind, STORE_OP_PAGE)}
        )
        store = self.injected_store(tmp_path, plan)
        good = arrays(1)
        commit(store, 0, good)
        commit(store, 1, arrays(2))
        assert store.injector.faults_injected == 1
        loaded = store.load_best()
        assert loaded.round_index == 0
        assert [f.kind for f in loaded.findings] == [expect]

    def test_manifest_lost_fault(self, tmp_path):
        plan = FaultPlan(
            storage_faults={
                0: StorageFault(STORAGE_LOST, STORE_OP_MANIFEST)
            }
        )
        store = self.injected_store(tmp_path, plan)
        commit(store, 0, arrays())
        with pytest.raises(CheckpointStoreError) as err:
            store.load_best()
        assert err.value.kind == "manifest-lost"

    def test_crash_mid_spill_keeps_prior_commit(self, tmp_path):
        plan = FaultPlan(
            storage_faults={
                4: StorageFault(STORAGE_CRASH, STORE_OP_PAGE)
            }
        )
        store = self.injected_store(tmp_path, plan)
        good = arrays(1)
        commit(store, 0, good)
        with pytest.raises(InjectedCrashError) as err:
            commit(store, 1, arrays(2))
        assert err.value.crash_point == "mid-spill"
        # The manifest still only references the intact commit; the
        # half-written round-1 directory is an orphan, not corruption.
        fresh = CheckpointStore(tmp_path, compact=False)
        loaded = fresh.load_best()
        assert loaded.round_index == 0
        np.testing.assert_array_equal(loaded.arrays["values"],
                                      good["values"])
        report = fresh.scrub()
        assert [f.kind for f in report.findings] == ["orphan"]

    def test_crash_mid_manifest_preserves_old_manifest(self, tmp_path):
        plan = FaultPlan(
            storage_faults={
                1: StorageFault(STORAGE_CRASH, STORE_OP_MANIFEST)
            }
        )
        store = self.injected_store(tmp_path, plan)
        commit(store, 0, arrays(1))
        with pytest.raises(InjectedCrashError) as err:
            commit(store, 1, arrays(2))
        assert err.value.crash_point == "mid-manifest"
        assert os.path.exists(tmp_path / (MANIFEST_NAME + ".tmp"))
        fresh = CheckpointStore(tmp_path, compact=False)
        assert fresh.load_best().round_index == 0
        kinds = {f.kind for f in fresh.scrub().findings}
        assert kinds == {"orphan", "stale-tmp"}

    def test_crash_during_first_commit_leaves_nothing_durable(
        self, tmp_path
    ):
        plan = FaultPlan(
            storage_faults={
                0: StorageFault(STORAGE_CRASH, STORE_OP_PAGE)
            }
        )
        store = self.injected_store(tmp_path, plan)
        with pytest.raises(InjectedCrashError):
            commit(store, 0, arrays())
        with pytest.raises(CheckpointStoreError) as err:
            CheckpointStore(tmp_path).load_best()
        assert err.value.kind == "manifest-lost"

    def test_op_filter_keeps_page_and_manifest_counters_apart(
        self, tmp_path
    ):
        # Index 0 with op=manifest must NOT fire on page write 0.
        plan = FaultPlan(
            storage_faults={
                0: StorageFault(STORAGE_TORN, STORE_OP_MANIFEST)
            }
        )
        store = self.injected_store(tmp_path, plan)
        commit(store, 0, arrays())
        assert store.injector.faults_injected == 1
        with pytest.raises(CheckpointStoreError):
            store.load_manifest()


class TestScrubAndRepair:
    def test_clean_store_scrubs_clean(self, tmp_path):
        store = CheckpointStore(tmp_path)
        commit(store, 0, arrays())
        commit(store, 1, arrays(1))
        report = store.scrub()
        assert report.clean
        assert report.intact_rounds == [0, 1]

    def test_repair_drops_damaged_round(self, tmp_path):
        store = CheckpointStore(tmp_path, compact=False)
        commit(store, 0, arrays(1))
        commit(store, 1, arrays(2))
        damage(tmp_path / "ckpt-000001" / "values.page", "bitrot")
        report = store.scrub(repair=True)
        assert report.repaired
        assert report.dropped_rounds == [1]
        after = store.scrub()
        assert after.clean
        assert after.intact_rounds == [0]

    def test_repair_with_nothing_intact_is_unrepairable(self, tmp_path):
        store = CheckpointStore(tmp_path, compact=False)
        commit(store, 0, arrays())
        damage(tmp_path / "ckpt-000000" / "values.page", "lost")
        with pytest.raises(CheckpointStoreError) as err:
            store.scrub(repair=True)
        assert err.value.kind == "unrepairable"

    def test_scrub_reports_stale_manifest_entry(self, tmp_path):
        import shutil

        store = CheckpointStore(tmp_path, compact=False)
        commit(store, 0, arrays(1))
        commit(store, 1, arrays(2))
        shutil.rmtree(tmp_path / "ckpt-000001")
        report = store.scrub()
        assert [f.kind for f in report.findings] == ["stale-manifest"]
        assert report.intact_rounds == [0]


class TestServeJournal:
    def record(self, batch_id):
        return {
            "batch_id": batch_id,
            "query_ids": [f"q{batch_id}"],
            "start": 0.0,
            "completion": 1.0,
            "service": 1.0,
            "launches": 3,
            "edge_lane_work": 7,
            "replays": 0,
            "results": [],
        }

    def test_roundtrip(self, tmp_path):
        journal = ServeJournal(str(tmp_path / "j.jsonl"))
        journal.append(self.record(0))
        journal.append(self.record(1))
        loaded = journal.load()
        assert sorted(loaded) == [0, 1]
        assert loaded[1]["query_ids"] == ["q1"]

    def test_missing_file_is_empty(self, tmp_path):
        assert ServeJournal(str(tmp_path / "nope.jsonl")).load() == {}

    def test_torn_tail_dropped_silently(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = ServeJournal(str(path))
        journal.append(self.record(0))
        journal.append(self.record(1))
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 20])  # tear the last line
        loaded = journal.load()
        assert sorted(loaded) == [0]

    def test_mid_file_corruption_raises(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = ServeJournal(str(path))
        journal.append(self.record(0))
        journal.append(self.record(1))
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(lines[0][:-30] + b"garbage\n" + lines[1])
        with pytest.raises(CheckpointStoreError) as err:
            journal.load()
        assert err.value.kind == "journal-corrupt"
