import os
import tracemalloc
import zlib

import numpy as np
import pytest

from promptseg import checkpoint
from promptseg.checkpoint import (
    atomic_open,
    load_checkpoint,
    pack_u64,
    save_checkpoint,
    unpack_u64,
)
from promptseg.errors import FormatError, KindMismatchError
from promptseg.metrics import confusion, miou
from promptseg.pipeline import write_csv


class TestMiou:
    def test_perfect_prediction_is_one(self, rng):
        gt = rng.integers(0, 6, size=(4, 8, 8))
        iou, mean = miou(gt, gt, 6)
        assert mean == 1.0
        assert np.all(iou[~np.isnan(iou)] == 1.0)

    def test_disjoint_single_classes_score_zero(self):
        pred = np.zeros((4, 4), np.int64)
        gt = np.ones((4, 4), np.int64)
        iou, mean = miou(pred, gt, 3)
        assert iou[0] == 0.0 and iou[1] == 0.0
        assert np.isnan(iou[2])
        assert mean == 0.0

    def test_two_of_six_example(self):
        # pred covers 2 of the 4 gt pixels of class 1 and adds 2 false positives
        gt = np.zeros((4, 4), np.int64)
        gt[0, :4] = 1
        pred = np.zeros((4, 4), np.int64)
        pred[0, :2] = 1
        pred[2, :2] = 1
        iou, _ = miou(pred, gt, 2)
        assert iou[1] == pytest.approx(2.0 / 6.0)

    def test_brute_force_agreement(self, rng):
        pred = rng.integers(0, 5, size=(6, 6))
        gt = rng.integers(0, 5, size=(6, 6))
        iou, mean = miou(pred, gt, 5)
        for c in range(5):
            inter = np.logical_and(pred == c, gt == c).sum()
            union = np.logical_or(pred == c, gt == c).sum()
            if union == 0:
                assert np.isnan(iou[c])
            else:
                assert iou[c] == pytest.approx(inter / union)
        present = ~np.isnan(iou)
        assert mean == pytest.approx(float(iou[present].mean()))

    def test_symmetry(self, rng):
        pred = rng.integers(0, 4, size=(5, 5))
        gt = rng.integers(0, 4, size=(5, 5))
        _, a = miou(pred, gt, 4)
        _, b = miou(gt, pred, 4)
        assert a == pytest.approx(b)

    def test_label_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            miou(np.array([[7]]), np.array([[0]]), 3)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            confusion(np.zeros((2, 2)), np.zeros((3, 3)), 4)


class TestCheckpointIo:
    def _tensors(self, rng):
        return {
            "enc.conv.weight": rng.normal(size=(4, 3, 5, 5)).astype(np.float32),
            "enc.conv.bias": rng.normal(size=(4,)).astype(np.float32),
            "meta/scalar": np.float32(3.0),
        }

    def test_round_trip_bitwise(self, tmp_path, rng):
        path = tmp_path / "m.ckpt"
        tensors = self._tensors(rng)
        save_checkpoint(path, "ORCL", tensors)
        kind, back = load_checkpoint(path)
        assert kind == "ORCL"
        assert list(back) == list(tensors)
        for name in tensors:
            assert np.asarray(tensors[name], np.float32).tobytes() == back[name].tobytes()

    def test_flipped_byte_fails_crc(self, tmp_path, rng):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, "ORCL", self._tensors(rng))
        blob = bytearray(path.read_bytes())
        blob[30] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_kind_mismatch(self, tmp_path, rng):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, "SPGN", self._tensors(rng))
        with pytest.raises(KindMismatchError):
            load_checkpoint(path, expect_kind="APFH")

    def test_truncated_file(self, tmp_path, rng):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, "ORCL", self._tensors(rng))
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 9])
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.ckpt"
        path.write_bytes(b"JUNKJUNKJUNKJUNKJUNK")
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_duplicate_name_rejected_on_save(self, tmp_path):
        class Sneaky(dict):
            def items(self):
                yield "a", np.zeros(1, np.float32)
                yield "a", np.zeros(1, np.float32)

        with pytest.raises(ValueError):
            save_checkpoint(tmp_path / "m.ckpt", "ORCL", Sneaky())

    def test_save_is_byte_stable(self, tmp_path, rng):
        tensors = self._tensors(rng)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(p1, "ORCL", tensors)
        save_checkpoint(p2, "ORCL", tensors)
        assert p1.read_bytes() == p2.read_bytes()

    def test_u64_fingerprint_pack_round_trip(self):
        for value in (0, 1, 2**63 + 12345, 2**64 - 1):
            assert unpack_u64(pack_u64(value)) == value

    @pytest.mark.parametrize("value", [np.nan, -1.0, 256.0, 0.5])
    def test_u64_rejects_a_value_that_is_not_a_byte(self, value):
        packed = pack_u64(12345)
        packed[2] = value
        with pytest.raises(ValueError):
            unpack_u64(packed)

    def test_u64_rejects_another_count(self):
        for packed in (pack_u64(1)[:7], np.zeros(9, np.float32), np.zeros((2, 4), np.float32)):
            with pytest.raises(ValueError):
                unpack_u64(packed)

    def test_zero_size_record_round_trips(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, "ORCL", {"empty": np.zeros((0, 3), np.float32),
                                       "w": np.arange(3, dtype=np.float32)})
        _, back = load_checkpoint(path)
        assert back["empty"].shape == (0, 3)
        assert back["w"].tolist() == [0.0, 1.0, 2.0]

    def test_loaded_arrays_own_aligned_writable_memory(self, tmp_path, rng):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, "ORCL", self._tensors(rng))
        for arr in load_checkpoint(path)[1].values():
            assert arr.flags.owndata and arr.flags.aligned and arr.flags.writeable

    def test_load_holds_the_file_once(self, tmp_path, rng):
        # every payload is read into its own array: the peak stays near the
        # file size, where reading the file whole and copying out held it twice
        path = tmp_path / "big.ckpt"
        save_checkpoint(path, "ORCL", {f"t{i}": rng.normal(size=(16, 16, 32, 32))
                                       for i in range(4)})
        size = os.path.getsize(path)
        tracemalloc.start()
        try:
            load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * size


class TestAtomicWrites:
    """A write that fails part-way leaves the earlier file and no temp file."""

    def test_checkpoint_failing_before_crc_keeps_old_file(self, tmp_path, rng, monkeypatch):
        path = tmp_path / "oracle.ckpt"
        save_checkpoint(path, "ORCL", {"w": np.ones(3, np.float32)})
        before = path.read_bytes()

        class FailingCrc:
            # the CRC runs along the writes: its fifth call, on the second
            # record's payload, fails with the first record already written
            calls = 0

            @classmethod
            def crc32(cls, data, value=0):
                cls.calls += 1
                if cls.calls == 5:
                    raise OSError("disk full")
                return zlib.crc32(data, value)

        monkeypatch.setattr(checkpoint, "zlib", FailingCrc)
        with pytest.raises(OSError):
            save_checkpoint(path, "ORCL", {"w": rng.normal(size=(64, 64)).astype(np.float32),
                                           "b": rng.normal(size=64).astype(np.float32)})
        assert FailingCrc.calls == 5
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["oracle.ckpt"]

    def test_csv_failing_mid_row_keeps_old_file(self, tmp_path):
        path = tmp_path / "report.csv"
        write_csv(path, [{"a": 1.0}], ["a"])
        before = path.read_bytes()
        with pytest.raises(KeyError):
            write_csv(path, [{"a": 2.0}, {"b": 3.0}], ["a"])
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["report.csv"]

    def test_success_replaces_and_leaves_no_temp(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old")
        with atomic_open(path) as f:
            f.write("new")
        assert path.read_text() == "new"
        assert os.listdir(tmp_path) == ["out.txt"]
