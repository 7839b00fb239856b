"""The page store (``repro.storage.pages``).

These functions are the one on-disk discipline both the durable
checkpoint store and the sharded graph store build on, so their failure
semantics — detect every torn write, every flipped byte, every
malformed wrapper, and name it with one vocabulary — are tested here
once, at the primitive level.
"""

import json
import os

import numpy as np
import pytest

from repro.errors import InjectedCrashError
from repro.storage import pages


class TestChecksums:
    def test_sha256_hex_matches_file_hash(self, tmp_path):
        payload = b"abc" * 1000
        path = str(tmp_path / "page.bin")
        with open(path, "wb") as fh:
            fh.write(payload)
        hex_digest, size = pages.sha256_file(path)
        assert hex_digest == pages.sha256_hex(payload)
        assert size == len(payload)

    def test_sha256_file_streams_in_small_chunks(self, tmp_path):
        payload = os.urandom(10_000)
        path = str(tmp_path / "page.bin")
        with open(path, "wb") as fh:
            fh.write(payload)
        hex_small, size = pages.sha256_file(path, chunk_bytes=17)
        assert hex_small == pages.sha256_hex(payload)
        assert size == len(payload)

    def test_canonical_json_is_key_order_insensitive(self):
        a = pages.canonical_json({"x": 1, "y": [2, 3]})
        b = pages.canonical_json({"y": [2, 3], "x": 1})
        assert a == b


def read_reason(path, name="doc"):
    with pytest.raises(pages.PageIntegrityError) as err:
        pages.read_document(path, name)
    return err.value.reason


class TestWrappedJson:
    def test_wrap_unwrap_roundtrip(self, tmp_path):
        path = str(tmp_path / "doc.json")
        payload = {"format": 1, "values": [1, 2, 3]}
        pages.commit_json(path, payload)
        with open(path) as fh:
            wrapper = json.load(fh)
        assert wrapper["sha256"] == pages.sha256_hex(
            pages.canonical_json(payload)
        )
        assert pages.read_document(path, "doc") == payload

    def test_unwrap_rejects_malformed_wrapper(self, tmp_path):
        path = str(tmp_path / "doc.json")
        with open(path, "w") as fh:
            json.dump({"payload": {"k": 1}}, fh)
        assert read_reason(path, "manifest") == "manifest-format"

    def test_unwrap_rejects_tampered_payload(self, tmp_path):
        path = str(tmp_path / "doc.json")
        pages.commit_json(path, {"rounds": 5})
        with open(path) as fh:
            wrapper = json.load(fh)
        wrapper["payload"]["rounds"] = 6
        with open(path, "w") as fh:
            json.dump(wrapper, fh)
        assert read_reason(path, "header") == "header-corrupt"

    def test_commit_then_read(self, tmp_path):
        path = str(tmp_path / "doc.json")
        pages.commit_json(path, {"k": "v"})
        assert pages.read_document(path, "doc") == {"k": "v"}
        assert pages.stale_tmp_path(path) is None

    def test_read_missing_is_lost(self, tmp_path):
        assert read_reason(str(tmp_path / "absent.json")) == "doc-lost"

    def test_read_torn_document_is_unreadable(self, tmp_path):
        path = str(tmp_path / "doc.json")
        pages.commit_json(path, {"k": "v"})
        with open(path, "r+b") as fh:
            fh.truncate(os.path.getsize(path) // 2)
        assert read_reason(path) == "doc-torn"

    def test_read_corrupted_in_place_fails_checksum(self, tmp_path):
        path = str(tmp_path / "doc.json")
        pages.commit_json(path, {"count": 10})
        with open(path) as fh:
            doc = json.load(fh)
        doc["payload"]["count"] = 11
        with open(path, "w") as fh:
            json.dump(doc, fh)
        assert read_reason(path) == "doc-corrupt"

    def test_read_flipped_byte_is_corrupt(self, tmp_path):
        # Documents are ASCII JSON, so a flipped high bit can only be
        # rot — a torn write leaves a valid prefix.
        path = str(tmp_path / "doc.json")
        pages.commit_json(path, {"count": 10})
        pages.apply_file_fault(path, _Fault("bitrot"))
        assert read_reason(path) == "doc-corrupt"

    def test_commit_is_atomic_no_tmp_left_behind(self, tmp_path):
        path = str(tmp_path / "doc.json")
        pages.commit_json(path, {"v": 1})
        pages.commit_json(path, {"v": 2})
        assert pages.read_document(path, "doc") == {"v": 2}
        assert not os.path.exists(path + ".tmp")


class TestPageFiles:
    def test_write_page_entry_matches_content(self, tmp_path):
        path = str(tmp_path / "data.page")
        entry = pages.write_page(path, b"\x01\x02\x03\x04")
        assert entry == {
            "file": "data.page",
            "sha256": pages.sha256_hex(b"\x01\x02\x03\x04"),
            "raw_bytes": 4,
        }
        pages.verify_page_file(path, entry)

    def test_verify_missing_page(self, tmp_path):
        with pytest.raises(pages.PageIntegrityError) as err:
            pages.verify_page_file(
                str(tmp_path / "gone.page"), {"sha256": "00", "raw_bytes": 4}
            )
        assert err.value.reason == "missing-page"

    def test_verify_torn_page(self, tmp_path):
        path = str(tmp_path / "data.page")
        entry = pages.write_page(path, b"abcdefgh")
        with open(path, "r+b") as fh:
            fh.truncate(4)
        with pytest.raises(pages.PageIntegrityError) as err:
            pages.verify_page_file(path, entry)
        assert err.value.reason == "torn"

    def test_verify_bitrot_page(self, tmp_path):
        path = str(tmp_path / "data.page")
        entry = pages.write_page(path, b"abcdefgh")
        with open(path, "r+b") as fh:
            data = bytearray(fh.read())
            data[3] ^= 0xFF
            fh.seek(0)
            fh.write(bytes(data))
        with pytest.raises(pages.PageIntegrityError) as err:
            pages.verify_page_file(path, entry)
        assert err.value.reason == "bitrot"


class TestArrayPages:
    @pytest.mark.parametrize("mmap", [False, True])
    def test_full_page_roundtrip(self, tmp_path, mmap):
        path = str(tmp_path / "values.page")
        values = np.arange(12, dtype=np.float64).reshape(3, 4)
        entry = pages.write_array_page(path, values)
        assert entry["dtype"] == "float64" and entry["shape"] == [3, 4]
        assert "count" not in entry
        got = pages.read_array_page(path, entry, mmap=mmap)
        np.testing.assert_array_equal(got, values)

    def test_delta_page_patches_its_base(self, tmp_path):
        path = str(tmp_path / "values.page")
        values = np.arange(8, dtype=np.float64)
        index = np.array([1, 6], dtype=np.int64)
        entry = pages.write_array_page(path, values * 10, index=index)
        assert entry["count"] == 2
        assert entry["raw_bytes"] == 2 * 8 + 2 * 8
        got = pages.read_array_page(path, entry, base=values.copy())
        np.testing.assert_array_equal(got, [0, 10, 2, 3, 4, 5, 60, 7])

    @pytest.mark.parametrize("mmap", [False, True])
    def test_shape_that_disagrees_with_bytes_is_inconsistent(
        self, tmp_path, mmap
    ):
        path = str(tmp_path / "values.page")
        entry = pages.write_array_page(path, np.zeros(8))
        entry["shape"] = [9]
        with pytest.raises(pages.PageIntegrityError) as err:
            pages.read_array_page(path, entry, mmap=mmap)
        assert err.value.reason == "inconsistent"

    def test_delta_count_that_disagrees_with_bytes_is_inconsistent(
        self, tmp_path
    ):
        path = str(tmp_path / "values.page")
        entry = pages.write_array_page(
            path, np.zeros(8), index=np.array([0, 3], dtype=np.int64)
        )
        entry["count"] = 3
        with pytest.raises(pages.PageIntegrityError) as err:
            pages.read_array_page(path, entry, base=np.zeros(8))
        assert err.value.reason == "inconsistent"

    @pytest.mark.parametrize(
        "damage,reason",
        [("torn", "torn"), ("bitrot", "bitrot"), ("lost", "missing-page")],
    )
    def test_compressed_page_damage(self, tmp_path, damage, reason):
        import zlib

        path = str(tmp_path / "values.page.z")
        raw = np.zeros(512).tobytes()
        pages.write_page(path, zlib.compress(raw, 6))
        entry = {
            "sha256": pages.sha256_hex(raw),
            "raw_bytes": len(raw),
            "stored_bytes": os.path.getsize(path),
            "compressed": True,
        }
        assert pages.read_page_bytes(path, entry) == raw
        pages.apply_file_fault(path, _Fault(damage))
        with pytest.raises(pages.PageIntegrityError) as err:
            pages.read_page_bytes(path, entry)
        assert err.value.reason == reason


class _Fault:
    def __init__(self, kind):
        self.kind = kind


class TestFaultHooks:
    def test_page_hook_runs_after_the_write(self, tmp_path):
        path = str(tmp_path / "f.page")
        seen = []

        def hook():
            seen.append(os.path.getsize(path))
            return _Fault("torn")

        entry = pages.write_page(path, b"x" * 100, hook)
        assert seen == [100]
        assert os.path.getsize(path) == 50
        assert entry["raw_bytes"] == 100

    def test_page_crash_leaves_it_torn_and_raises(self, tmp_path):
        path = str(tmp_path / "f.page")
        with pytest.raises(InjectedCrashError) as err:
            pages.write_page(path, b"x" * 100, lambda: _Fault("crash"))
        assert err.value.crash_point == "mid-spill"
        assert os.path.getsize(path) == 50

    def test_document_crash_leaves_the_temp_file(self, tmp_path):
        path = str(tmp_path / "doc.json")
        pages.commit_json(path, {"v": 1})
        with pytest.raises(InjectedCrashError) as err:
            pages.commit_json(path, {"v": 2}, lambda: _Fault("crash"))
        assert err.value.crash_point == "mid-manifest"
        assert pages.read_document(path, "doc") == {"v": 1}
        assert pages.stale_tmp_path(path) == path + ".tmp"

    @pytest.mark.parametrize(
        "kind,reason",
        [("torn", "doc-torn"), ("bitrot", "doc-corrupt"), ("lost", "doc-lost")],
    )
    def test_document_damage_lands_on_the_commit(self, tmp_path, kind, reason):
        path = str(tmp_path / "doc.json")
        pages.commit_json(path, {"v": 1}, lambda: _Fault(kind))
        assert pages.stale_tmp_path(path) is None
        assert read_reason(path) == reason


class TestApplyFileFault:
    @pytest.mark.parametrize("kind", ["torn", "crash"])
    def test_truncating_faults(self, tmp_path, kind):
        path = str(tmp_path / "f.page")
        pages.write_page(path, b"x" * 100)
        pages.apply_file_fault(path, _Fault(kind))
        assert os.path.getsize(path) == 50

    def test_bitrot_flips_one_byte(self, tmp_path):
        path = str(tmp_path / "f.page")
        original = bytes(range(100)) * 2
        pages.write_page(path, original)
        pages.apply_file_fault(path, _Fault("bitrot"))
        damaged = open(path, "rb").read()
        assert len(damaged) == len(original)
        diff = [i for i in range(len(original)) if damaged[i] != original[i]]
        assert diff == [len(original) // 2]

    def test_lost_unlinks(self, tmp_path):
        path = str(tmp_path / "f.page")
        pages.write_page(path, b"x")
        pages.apply_file_fault(path, _Fault("lost"))
        assert not os.path.exists(path)
