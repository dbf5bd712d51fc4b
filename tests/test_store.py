"""The persistence primitives (repro.store) on the paths no layout test
reaches: a write callback that fails or is interrupted, per-line JSONL
tolerance, and the two distinct pickle-load failure outcomes."""

from __future__ import annotations

import pickle

import pytest

from repro import store


class TestAtomicWrite:
    @pytest.mark.parametrize("error", [OSError, KeyboardInterrupt])
    def test_failed_write_keeps_old_bytes_and_no_temp(self, tmp_path,
                                                      error):
        path = tmp_path / "entry.pkl"
        path.write_bytes(b"old")

        def write(fh):
            fh.write(b"half of the new conte")
            raise error("interrupted mid-write")

        with pytest.raises(error):
            store.atomic_write(path, write)
        assert path.read_bytes() == b"old"
        assert [p.name for p in tmp_path.iterdir()] == ["entry.pkl"]


class TestReadJsonl:
    def test_skips_blank_non_object_and_torn_lines(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_bytes(b'{"a": 1}\n'
                         b'\n'
                         b'   \n'
                         b'[1, 2]\n'
                         b'"text"\n'
                         b'{"b": "\xe2\x82\n'      # cut inside a UTF-8 char
                         b'{"torn json\n'
                         b'{"c": "\xe2\x82\xac"}\n'  # a whole euro sign
                         b'{"d": 4')              # torn final line
        assert store.read_jsonl(path) == [{"a": 1}, {"c": "€"}]

    def test_missing_file_reads_empty(self, tmp_path):
        assert store.read_jsonl(tmp_path / "absent.jsonl") == []


class TestLoadPickle:
    def test_missing_is_not_corrupt(self, tmp_path):
        path = tmp_path / "absent.pkl"
        assert store.load_pickle(path, lambda obj: True) is store.MISSING

    def test_valid_object_loads_and_stays(self, tmp_path):
        path = tmp_path / "cell.pkl"
        store.dump_pickle(path, {"benchmark": "field"})
        assert store.load_pickle(path, lambda obj: True) == \
            {"benchmark": "field"}
        assert path.exists()

    @pytest.mark.parametrize("blob", [b"\x80garbage", pickle.dumps("x")[:-3]])
    def test_unpicklable_is_corrupt_and_evicted(self, tmp_path, blob):
        path = tmp_path / "cell.pkl"
        path.write_bytes(blob)
        assert store.load_pickle(path, lambda obj: True) is store.CORRUPT
        assert not path.exists()

    def test_invalid_object_is_corrupt_and_evicted(self, tmp_path):
        path = tmp_path / "cell.pkl"
        store.dump_pickle(path, {"benchmark": "field"})
        assert store.load_pickle(
            path, lambda obj: obj["benchmark"] == "pointer") is store.CORRUPT
        assert not path.exists()
