import collections
import contextlib
import json
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from specnet3d import data, parallel
from specnet3d.data import (
    _BLOCK_BYTES,
    _cut,
    HsiCube,
    LabelGrid,
    SplitManifest,
    extract_patch,
    load_cube,
    load_labels,
    load_split,
    normalize,
    save_cube,
    save_labels,
    save_split,
    stratified_split,
)
from specnet3d.errors import ConfigError, FormatError, SplitError
from specnet3d.network import ModelConfig, build_model, forward


def seeded_cube(shape, seed=0):
    rng = np.random.default_rng(seed)
    return HsiCube(values=rng.standard_normal(shape).astype(np.float32))


def set_payload_value(header_path, pixel, value):
    """Overwrite the stored scalar of (row, col, band) in a saved cube's
    band-sequential payload, which save_cube would refuse to write."""
    with open(header_path) as fh:
        header = json.load(fh)
    row, col, band = pixel
    payload = np.memmap(data._raw_path(header_path), "<f4", "r+")
    payload[(band * header["height"] + row) * header["width"] + col] = value
    payload.flush()
    del payload


def whole_array_normalize(values, train):
    """normalize's float32 result as one out-of-place whole-array expression."""
    spectra = values[[r for r, _, _ in train], [c for _, c, _ in train]]
    band_min = spectra.min(axis=0)
    band_range = spectra.max(axis=0) - band_min
    safe = np.where(band_range > 0, band_range, 1.0)
    scale = np.where(band_range > 0, 1.0 / safe, 0.0).astype(np.float32)
    return (values - band_min) * scale


class TestCubeContainer:
    def test_round_trip_bitwise(self, tmp_path):
        cube = seeded_cube((4, 5, 6))
        path = tmp_path / "scene.hsc.json"
        save_cube(cube, path)
        loaded = load_cube(path)
        assert np.array_equal(loaded.values, cube.values)
        assert loaded.values.dtype == np.float32

    @staticmethod
    def multi_block_shape(width=64, bands=32):
        # three whole row blocks and half of a fourth
        rows = _BLOCK_BYTES // (width * bands * 4)
        assert rows > 1
        return (3 * rows + rows // 2, width, bands)

    @staticmethod
    def bsq_bytes(values):
        return values.transpose(2, 0, 1).astype("<f4").tobytes()

    def test_multi_block_payload_is_the_band_sequential_cube(self, tmp_path):
        cube = seeded_cube(self.multi_block_shape(), seed=2)
        path = tmp_path / "scene.hsc.json"
        save_cube(cube, path)
        assert (tmp_path / "scene.hsc.raw").read_bytes() == self.bsq_bytes(cube.values)
        loaded = load_cube(path)
        assert loaded.values.dtype == np.float32
        assert loaded.values.tobytes() == cube.values.tobytes()

    def test_float64_cube_stored_as_its_float32_rounding(self, tmp_path):
        rng = np.random.default_rng(3)
        values = rng.standard_normal(self.multi_block_shape(width=40, bands=20))
        save_cube(HsiCube(values=values), tmp_path / "scene.hsc.json")
        assert (tmp_path / "scene.hsc.raw").read_bytes() == self.bsq_bytes(values)

    def test_strided_cube_stored_as_its_contiguous_copy(self, tmp_path):
        height, width, bands = self.multi_block_shape()
        whole = seeded_cube((height, width, 2 * bands), seed=4).values
        for values in (whole[:, ::-1, 1::2], np.asfortranarray(whole[:, :, :bands])):
            save_cube(HsiCube(values=values), tmp_path / "scene.hsc.json")
            assert (tmp_path / "scene.hsc.raw").read_bytes() == self.bsq_bytes(values)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_save_holds_the_payload_and_no_second_cube(self, tmp_path, dtype):
        values = seeded_cube(self.multi_block_shape(), seed=5).values.astype(dtype)
        payload = values.size * 4
        tracemalloc.start()
        try:
            save_cube(HsiCube(values=values), tmp_path / "scene.hsc.json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * payload, (peak, payload)

    def test_truncated_payload_rejected(self, tmp_path):
        cube = seeded_cube((4, 5, 6))
        path = tmp_path / "scene.hsc.json"
        save_cube(cube, path)
        raw = tmp_path / "scene.hsc.raw"
        raw.write_bytes(raw.read_bytes()[:-4])
        with pytest.raises(FormatError, match="119"):
            load_cube(path)

    def test_full_scene_scalar_count_in_error(self, tmp_path):
        # a header declaring the 610x340x103 scene must demand exactly
        # 610 * 340 * 103 = 21,362,200 scalars
        assert 610 * 340 * 103 == 21362200
        path = tmp_path / "big.hsc.json"
        path.write_text(json.dumps({
            "format_version": 1, "height": 610, "width": 340, "bands": 103,
            "dtype": "f32le", "order": "bsq",
        }))
        (tmp_path / "big.hsc.raw").write_bytes(b"\x00" * 8)
        with pytest.raises(FormatError, match="21362200"):
            load_cube(path)

    def test_nonfinite_payload_rejected(self, tmp_path):
        cube = seeded_cube((2, 2, 2))
        path = tmp_path / "bad.hsc.json"
        save_cube(cube, path)
        set_payload_value(path, (0, 0, 0), np.nan)
        with pytest.raises(FormatError, match="non-finite"):
            load_cube(path)

    @pytest.mark.parametrize("dtype, value", [(np.float32, np.nan), (np.float32, -np.inf),
                                              (np.float64, 1e39)], ids=["nan", "inf", "1e39"])
    def test_non_finite_cube_refused_before_any_file(self, monkeypatch, tmp_path, dtype, value):
        # four row blocks over two workers: the bad value is in a helper's
        monkeypatch.setattr(parallel, "workers", lambda: 2)
        values = seeded_cube(self.multi_block_shape(), seed=6).values.astype(dtype)
        values[len(values) // 3, 5, 7] = value
        with pytest.raises(FormatError, match="^cube payload contains non-finite values$"):
            save_cube(HsiCube(values=values), tmp_path / "scene.hsc.json")
        assert list(tmp_path.iterdir()) == []

    def test_float32_extremes_saved(self, tmp_path):
        values = seeded_cube((3, 4, 5), seed=7).values
        values[0, 0] = np.finfo(np.float32).max
        values[2, 3] = np.finfo(np.float32).min
        save_cube(HsiCube(values=values.astype(np.float64)), tmp_path / "scene.hsc.json")
        assert load_cube(tmp_path / "scene.hsc.json").values.tobytes() == values.tobytes()

    def test_unknown_version_rejected(self, tmp_path):
        cube = seeded_cube((2, 2, 2))
        path = tmp_path / "v9.hsc.json"
        save_cube(cube, path)
        doc = json.loads(path.read_text())
        doc["format_version"] = 9
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="format_version"):
            load_cube(path)


class TestRowBlockPasses:
    """save_cube, load_cube and normalize run in row blocks fanned out over
    parallel.fan_out; the bits must not depend on the blocks or workers."""

    SHAPE = (23, 16, 12)   # 6 blocks of 4 rows under the sizes below, the last of 3
    BLOCK = 4 * 16 * 12 * 4

    @pytest.fixture
    def blocks(self, monkeypatch):
        """Row blocks of 4 rows of SHAPE for every pass; returns a setter
        for the number of workers."""
        monkeypatch.setattr(data, "_BLOCK_BYTES", self.BLOCK)
        monkeypatch.setattr(data, "_LOAD_BLOCK_BYTES", self.BLOCK)
        return lambda n: monkeypatch.setattr(parallel, "workers", lambda: n)

    def test_subnormals_keep_their_bits_after_a_network_pass(self, blocks, tmp_path):
        # the network's jobs flush subnormals to zero; the row blocks do not,
        # and the network leaves the calling thread as it found it
        blocks(2)
        model = build_model(ModelConfig(12, 2, 7), 0)
        forward(model, np.ones((1, 1, 7, 7, 12), np.float32))
        cube = seeded_cube(self.SHAPE, seed=12)
        cube.values[:, :, 0] = 0.0
        cube.values[0, 1, 0] = 1.0  # band 0 scales by 1 from 0
        subnormal = 0x12345  # as float32 bits; on the caller's block and a helper's
        cube.values.view(np.uint32)[[2, 22], 15, 0] = subnormal
        path = tmp_path / "scene.hsc.json"
        save_cube(cube, path)
        assert ((tmp_path / "scene.hsc.raw").read_bytes()
                == cube.values.transpose(2, 0, 1).astype("<f4").tobytes())
        loaded = load_cube(path)
        assert loaded.values.tobytes() == cube.values.tobytes()
        train = [(r, c, 1) for r in range(0, 23, 4) for c in range(1, 16, 3)]
        scaled = normalize(loaded, SplitManifest(seed=0, train=train, test=[]))
        assert scaled.values.view(np.uint32)[[2, 22], 15, 0].tolist() == [subnormal] * 2

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_bitwise_the_whole_array_expressions_at_any_worker_count(
            self, blocks, workers, tmp_path):
        blocks(workers)
        cube = seeded_cube(self.SHAPE, seed=11)
        cube.values[:, :, 5] = -1.5  # a constant band scales by 0
        train = [(r, c, 1) for r in range(0, 23, 4) for c in range(1, 16, 3)]
        path = tmp_path / "scene.hsc.json"
        save_cube(cube, path)
        assert ((tmp_path / "scene.hsc.raw").read_bytes()
                == cube.values.transpose(2, 0, 1).astype("<f4").tobytes())
        loaded = load_cube(path)
        assert loaded.values.flags.c_contiguous and loaded.values.dtype == np.float32
        assert loaded.values.tobytes() == cube.values.tobytes()
        out = normalize(loaded, SplitManifest(seed=0, train=train, test=[]))
        assert out.values.tobytes() == whole_array_normalize(cube.values, train).tobytes()

    def test_many_workers_switching_often_keep_every_block(self, blocks, tmp_path):
        # more workers than cores, each preempted every few microseconds: a
        # block written twice, lost or read at the wrong offset shows
        blocks(8)
        cube = seeded_cube(self.SHAPE, seed=16)
        train = [(r, r % 16, 1) for r in range(23)]
        want = whole_array_normalize(cube.values, train).tobytes()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                save_cube(cube, tmp_path / "scene.hsc.json")
                loaded = load_cube(tmp_path / "scene.hsc.json")
                assert loaded.values.tobytes() == cube.values.tobytes()
                out = normalize(loaded, SplitManifest(seed=0, train=train, test=[]))
                assert out.values.tobytes() == want
        finally:
            sys.setswitchinterval(interval)

    def test_load_holds_the_payload_and_one_block(self, monkeypatch, tmp_path):
        # 128 row blocks of 2 rows; the parent's whole-payload read, its
        # transpose and its finiteness mask came to 2.25x the payload
        block = 2 * 128 * 32 * 4
        monkeypatch.setattr(data, "_LOAD_BLOCK_BYTES", block)
        cube = seeded_cube((256, 128, 32), seed=12)
        path = tmp_path / "scene.hsc.json"
        save_cube(cube, path)
        tracemalloc.start()
        try:
            loaded = load_cube(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert loaded.values.tobytes() == cube.values.tobytes()
        assert peak <= 1.1 * cube.values.nbytes + block, (peak, cube.values.nbytes)

    @pytest.mark.parametrize("row", [4, 22], ids=["helper_block", "last_block"])
    def test_non_finite_in_one_block_rejected(self, blocks, row, tmp_path):
        # with two workers the helper reads blocks 1, 3 and 5
        blocks(2)
        cube = seeded_cube(self.SHAPE, seed=13)
        path = tmp_path / "scene.hsc.json"
        save_cube(cube, path)
        set_payload_value(path, (row, 15, 11), np.nan)
        with pytest.raises(FormatError, match="^cube payload contains non-finite values$"):
            load_cube(path)

    @pytest.mark.parametrize("kind, shape", [("cube", SHAPE), ("cube", (3, 16, 12)),
                                             ("labels", None)], ids=["cube", "one_block", "labels"])
    def test_payload_shrinking_after_the_size_check_rejected(
            self, blocks, kind, shape, monkeypatch, tmp_path):
        blocks(2)
        if kind == "cube":
            path, load = tmp_path / "scene.hsc.json", load_cube
            save_cube(seeded_cube(shape, seed=14), path)
        else:
            path, load = tmp_path / "gt.lbl.json", load_labels
            save_labels(LabelGrid(labels=np.ones((5, 7), np.uint8)), path)
        raw = data._raw_path(path)
        checked = data._open_payload

        @contextlib.contextmanager
        def shrinking(*args):
            with checked(*args) as fd:
                os.truncate(raw, os.path.getsize(raw) - 7)
                yield fd

        monkeypatch.setattr(data, "_open_payload", shrinking)
        with pytest.raises(FormatError, match=f"^{kind} payload changed while being read$"):
            load(path)

    def test_a_cube_of_one_block_starts_no_thread(self, monkeypatch, tmp_path):
        # the map workload's 16x24 tile at 103 bands is one block of each pass
        monkeypatch.setattr(parallel, "workers", lambda: 4)

        def no_thread(*args, **kwargs):
            raise AssertionError("a helper thread was started")

        monkeypatch.setattr(threading, "Thread", no_thread)
        cube = seeded_cube((16, 24, 103), seed=15)
        path = tmp_path / "tile.hsc.json"
        save_cube(cube, path)
        loaded = load_cube(path)
        normalize(loaded, SplitManifest(seed=0, train=[(0, 0), (15, 23)], test=[]))
        assert loaded.values.tobytes() == cube.values.tobytes()


class TestLabelContainer:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        grid = LabelGrid(labels=rng.integers(0, 10, size=(6, 7)).astype(np.uint8),
                         class_names=[f"c{i}" for i in range(1, 10)])
        path = tmp_path / "gt.lbl.json"
        save_labels(grid, path)
        loaded = load_labels(path)
        assert np.array_equal(loaded.labels, grid.labels)
        assert loaded.class_names == grid.class_names

    def test_payload_size_checked(self, tmp_path):
        grid = LabelGrid(labels=np.ones((3, 3), dtype=np.uint8))
        path = tmp_path / "gt.lbl.json"
        save_labels(grid, path)
        (tmp_path / "gt.lbl.raw").write_bytes(b"\x01" * 8)
        with pytest.raises(FormatError):
            load_labels(path)


class TestSplitContainer:
    def test_round_trip(self, tmp_path):
        manifest = SplitManifest(seed=3, per_class_train=2,
                                 train=[(0, 0, 1), (1, 1, 1)],
                                 test=[(2, 2, 1)])
        path = tmp_path / "s.split.json"
        save_split(manifest, path)
        loaded = load_split(path)
        assert loaded.seed == 3
        assert loaded.per_class_train == 2
        assert loaded.train == [(0, 0, 1), (1, 1, 1)]
        assert loaded.test == [(2, 2, 1)]

    def test_pair_entries_round_trip(self, tmp_path):
        path = tmp_path / "s.split.json"
        save_split(SplitManifest(seed=0, train=[[1, 1], [2, 2, 1]], test=[[0, 2]]), path)
        loaded = load_split(path)
        assert loaded.train == [(1, 1), (2, 2, 1)]
        assert loaded.test == [(0, 2)]
        again = tmp_path / "again.split.json"
        save_split(loaded, again)
        reloaded = load_split(again)
        assert reloaded.train == [(1, 1), (2, 2, 1)]
        assert reloaded.test == [(0, 2)]

    @pytest.mark.parametrize("entry", [
        (0, 1, True), (0, 2.7, 1), (0, [1], 1), (np.int64(0), np.True_), (0,), (0, 1, 2, 3), 5,
    ], ids=["bool", "float", "nested list", "numpy bool", "length 1", "length 4", "not a list"])
    @pytest.mark.parametrize("side", ["train", "test"])
    def test_save_refuses_what_load_refuses(self, side, entry, tmp_path):
        entries = {"train": [(0, 0, 1)], "test": [(1, 1, 1)]}
        entries[side].append(entry)
        path = tmp_path / "s.split.json"
        with pytest.raises(FormatError) as saved:
            save_split(SplitManifest(seed=0, **entries), path)
        assert not path.exists()
        assert str(saved.value) == (
            f"split {side} must hold [row, col] or [row, col, class] integers")

    @pytest.mark.parametrize("field, value, expected", [
        ("seed", True, "int"), ("seed", None, "int"), ("seed", "3", "int"),
        ("seed", np.True_, "int"), ("per_class_train", True, "int"),
        ("per_class_train", 2.0, "int"), ("fraction", "0.5", "int or float"),
        ("fraction", False, "int or float"),
    ])
    def test_save_refuses_the_header_fields_load_refuses(self, field, value, expected,
                                                         tmp_path):
        manifest = SplitManifest(seed=0, train=[], test=[], per_class_train=1)
        setattr(manifest, field, value)
        path = tmp_path / "s.split.json"
        with pytest.raises(FormatError) as saved:
            save_split(manifest, path)
        assert list(tmp_path.iterdir()) == []
        path.write_text(json.dumps({"format_version": 2, "seed": 0, "per_class_train": 1,
                                    "train_count": 0, "test_count": 0, field: value},
                                   default=lambda v: v.item()))
        path.with_suffix(".raw").write_bytes(b"")
        with pytest.raises(FormatError) as loaded:
            load_split(path)
        kind = type(value.item() if isinstance(value, np.generic) else value).__name__
        assert str(saved.value) == str(loaded.value) == (
            f"split header field {field!r} is {kind}, expected {expected}")

    @pytest.mark.parametrize("size, seed", [(1, True), (True, 0)])
    def test_bool_sampled_split_is_refused_before_any_write(self, size, seed, tmp_path):
        # stratified_split runs with a bool count or seed; its file would not load
        labels = LabelGrid(labels=np.array([[1, 1], [2, 2]], dtype=np.uint8))
        with pytest.raises(FormatError, match=" is bool, expected int$"):
            save_split(stratified_split(labels, size, seed=seed), tmp_path / "s.split.json")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("entry, message", [
        ((0, 1, 0), r"^split train entry \(0, 1, 0\) has a class < 1$"),
        ((0, 1, -3), r"^split train entry \(0, 1, -3\) has a class < 1$"),
        ((2**63, 1, 1), "^split train entries hold an index outside int64$"),
        ((0, -2**63 - 1), "^split train entries hold an index outside int64$"),
        ((np.uint64(2**63), 1, 1), "^split train entries hold an index outside int64$"),
    ])
    def test_save_refuses_entries_the_payload_cannot_hold(self, entry, message, tmp_path):
        manifest = SplitManifest(seed=0, train=[(0, 0), (1, 1, 1), entry], test=[(2, 2, 1)])
        with pytest.raises(FormatError, match=message):
            save_split(manifest, tmp_path / "s.split.json")
        assert list(tmp_path.iterdir()) == []

    def test_numpy_integer_entries_round_trip(self, tmp_path):
        train = [tuple(np.array([0, 1, 1], dtype=np.int64)), (np.uint8(2), np.int32(3))]
        path = tmp_path / "s.split.json"
        save_split(SplitManifest(seed=0, train=train, test=[(np.int16(-1), 4, 2)]), path)
        loaded = load_split(path)
        assert loaded.train == [(0, 1, 1), (2, 3)] and loaded.test == [(-1, 4, 2)]
        assert {type(v) for e in loaded.train + loaded.test for v in e} == {int}


class TestNormalize:
    def test_pair_entries_match_triples(self):
        cube = seeded_cube((4, 5, 6), seed=1)
        pairs = SplitManifest(seed=0, train=[(1, 1), (2, 3)], test=[])
        triples = SplitManifest(seed=0, train=[(1, 1, 1), (2, 3, 2)], test=[])
        assert (normalize(cube, pairs).values.tobytes()
                == normalize(cube, triples).values.tobytes())

    def test_affine_map_on_training_stats(self):
        values = np.zeros((3, 1, 1), dtype=np.float32)
        values[:, 0, 0] = [2.0, 4.0, 6.0]
        cube = HsiCube(values=values)
        manifest = SplitManifest(seed=0, per_class_train=3,
                                 train=[(0, 0, 1), (1, 0, 1), (2, 0, 1)], test=[])
        out = normalize(cube, manifest)
        assert np.allclose(out.values[:, 0, 0], [0.0, 0.5, 1.0])

    def test_constant_band_maps_to_zero(self):
        values = np.full((2, 2, 3), 7.0, dtype=np.float32)
        cube = HsiCube(values=values)
        manifest = SplitManifest(seed=0, per_class_train=2,
                                 train=[(0, 0, 1), (1, 1, 1)], test=[])
        out = normalize(cube, manifest)
        assert not out.values.any()

    def test_out_of_range_test_pixels_not_clamped(self):
        values = np.zeros((3, 1, 1), dtype=np.float32)
        values[:, 0, 0] = [1.0, 2.0, 5.0]
        cube = HsiCube(values=values)
        manifest = SplitManifest(seed=0, per_class_train=2,
                                 train=[(0, 0, 1), (1, 0, 1)], test=[(2, 0, 1)])
        out = normalize(cube, manifest)
        assert out.values[2, 0, 0] == pytest.approx(4.0)

    def test_training_pixels_land_in_unit_interval(self):
        cube = seeded_cube((8, 8, 5), seed=9)
        train = [(r, c, 1) for r in range(8) for c in range(4)]
        manifest = SplitManifest(seed=0, per_class_train=len(train), train=train, test=[])
        out = normalize(cube, manifest)
        rows = [r for r, _, _ in train]
        cols = [c for _, c, _ in train]
        sub = out.values[rows, cols, :]
        assert sub.min() >= 0.0 and sub.max() <= 1.0

    def test_bitwise_the_out_of_place_expression_with_one_scene_sized_array(self):
        cube = seeded_cube((32, 24, 50), seed=10)
        cube.values[:, :, 3] = 2.5  # a constant band scales by 0
        before = cube.values.copy()
        train = [(r, c, 1) for r in range(0, 32, 3) for c in range(0, 24, 5)]
        manifest = SplitManifest(seed=0, per_class_train=len(train), train=train, test=[])
        want = whole_array_normalize(cube.values, train)
        tracemalloc.start()
        try:
            out = normalize(cube, manifest)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.values.dtype == want.dtype
        assert out.values.tobytes() == want.tobytes()
        assert cube.values.tobytes() == before.tobytes()
        # the result, and no second scene-sized temporary
        assert peak < 1.5 * cube.values.nbytes, peak

    @pytest.mark.parametrize("dtype", [np.uint16, np.int8, np.int64])
    def test_integer_cube_scaled_as_its_float32_copy(self, dtype):
        ints = np.asarray([[[4, 2]], [[8, 6]], [[3, 4]]], dtype=dtype)
        manifest = SplitManifest(seed=0, train=[(0, 0), (1, 0)], test=[])
        out = normalize(HsiCube(values=ints), manifest)
        want = normalize(HsiCube(values=ints.astype(np.float32)), manifest)
        assert out.values.dtype == np.float32
        assert out.values.tobytes() == want.values.tobytes()
        assert out.values[:, 0].tolist() == [[0, 0], [1, 1], [-0.25, 0.5]]

    def test_empty_train_rejected(self):
        cube = seeded_cube((2, 2, 2))
        with pytest.raises(SplitError):
            normalize(cube, SplitManifest(seed=0, per_class_train=0, train=[], test=[]))


class TestExtractPatch:
    def test_interior_has_no_fill(self):
        cube = seeded_cube((9, 9, 4), seed=2)
        patch = extract_patch(cube, 4, 4, 7)
        assert patch.shape == (1, 1, 7, 7, 4)
        assert np.array_equal(patch[0, 0], cube.values[1:8, 1:8, :])

    def test_corner_fill_count(self):
        cube = HsiCube(values=np.ones((9, 9, 3), dtype=np.float32))
        patch = extract_patch(cube, 0, 0, 7)
        spatial_zero = (patch[0, 0] == 0).all(axis=2)
        assert int(spatial_zero.sum()) == 33  # 49 - 16 in-image positions

    def test_center_is_bitwise_pixel_spectrum(self):
        cube = seeded_cube((9, 9, 6), seed=3)
        patch = extract_patch(cube, 2, 7, 7)
        assert np.array_equal(patch[0, 0, 3, 3, :], cube.values[2, 7, :])

    def test_even_window_rejected(self):
        cube = seeded_cube((9, 9, 3))
        with pytest.raises(ConfigError):
            extract_patch(cube, 4, 4, 6)

    def test_center_outside_image_rejected(self):
        cube = seeded_cube((9, 9, 3))
        with pytest.raises(ConfigError):
            extract_patch(cube, 9, 0, 7)

    def test_constant_cube_patches_differ_only_in_fill(self):
        cube = HsiCube(values=np.full((9, 9, 3), 2.0, dtype=np.float32))
        a = extract_patch(cube, 4, 4, 7)
        b = extract_patch(cube, 0, 0, 7)
        mask = (b != 0)
        assert np.array_equal(a[mask], b[mask])
        assert (a == 2.0).all()

    # windows inside the raster, partly outside it, and wholly outside it
    @settings(max_examples=60, deadline=None)
    @given(height=st.integers(1, 6), width=st.integers(1, 6), bands=st.integers(1, 3),
           row=st.integers(-12, 12), col=st.integers(-12, 12),
           rows=st.integers(1, 8), cols=st.integers(1, 8), seed=st.integers(0, 99))
    @example(height=6, width=6, bands=2, row=1, col=2, rows=3, cols=4, seed=0)
    @example(height=6, width=6, bands=2, row=-2, col=4, rows=5, cols=5, seed=0)
    @example(height=6, width=6, bands=2, row=-9, col=7, rows=3, cols=3, seed=0)
    def test_cut_is_a_slice_of_the_zero_padded_raster(self, height, width, bands, row, col,
                                                      rows, cols, seed):
        values = seeded_cube((height, width, bands), seed).values
        pad = 20  # beyond any window's reach past the raster
        padded = np.zeros((height + 2 * pad, width + 2 * pad, bands), np.float32)
        padded[pad:pad + height, pad:pad + width] = values
        want = padded[pad + row:pad + row + rows, pad + col:pad + col + cols]
        got = _cut(values, row, col, rows, cols)
        assert got.shape == (1, 1, rows, cols, bands) and got.dtype == np.float32
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(height=st.integers(1, 9), width=st.integers(1, 9), half=st.integers(0, 5),
           data=st.data())
    def test_patch_is_the_cut_around_its_center(self, height, width, half, data):
        cube = seeded_cube((height, width, 3), height * 10 + width)
        r = data.draw(st.integers(0, height - 1))
        c = data.draw(st.integers(0, width - 1))
        window = 2 * half + 1
        want = _cut(cube.values, r - half, c - half, window, window)
        assert extract_patch(cube, r, c, window).tobytes() == want.tobytes()


def grid_with_sizes(sizes, width=100):
    """Row-major labeling with the requested number of pixels per class."""
    total = sum(sizes)
    height = -(-total // width)
    labels = np.zeros(height * width, dtype=np.uint8)
    start = 0
    for cls, size in enumerate(sizes, start=1):
        labels[start:start + size] = cls
        start += size
    return LabelGrid(labels=labels.reshape(height, width))


class TestStratifiedSplit:
    def test_published_class_arithmetic(self):
        # 6,631 labeled pixels minus 200 training leaves 6,431 for test
        labels = grid_with_sizes([6631, 3000])
        manifest = stratified_split(labels, 200, seed=1)
        counts = collections.Counter(cls for _, _, cls in manifest.train)
        assert counts == {1: 200, 2: 200}
        test_counts = collections.Counter(cls for _, _, cls in manifest.test)
        assert test_counts[1] == 6431
        assert test_counts[2] == 2800

    def test_same_seed_reproduces_manifest(self):
        labels = grid_with_sizes([300, 250, 400])
        a = stratified_split(labels, 100, seed=7)
        b = stratified_split(labels, 100, seed=7)
        assert a.train == b.train and a.test == b.test
        c = stratified_split(labels, 100, seed=8)
        assert c.train != a.train

    def test_partition_properties(self):
        labels = grid_with_sizes([60, 70, 80], width=20)
        manifest = stratified_split(labels, 50, seed=3)
        train = set((r, c) for r, c, _ in manifest.train)
        test = set((r, c) for r, c, _ in manifest.test)
        assert not train & test
        labeled = set(map(tuple, np.argwhere(labels.labels > 0)))
        assert train | test == labeled
        for _, _, cls in manifest.train + manifest.test:
            assert cls >= 1

    def test_entries_are_int_tuples_in_row_major_order_per_class(self):
        labels = grid_with_sizes([60, 70, 80], width=20)
        manifest = stratified_split(labels, 20, seed=4)
        for side in (manifest.train, manifest.test):
            assert {type(v) for e in side for v in e} == {int}
            assert all(type(e) is tuple for e in side)
            assert side == sorted(side, key=lambda e: (e[2], e[0], e[1]))

    def test_taking_whole_class_empties_test(self):
        labels = grid_with_sizes([40, 40], width=10)
        manifest = stratified_split(labels, 40, seed=0)
        assert len(manifest.train) == 80
        assert manifest.test == []

    def test_small_class_error_names_class(self):
        labels = grid_with_sizes([500, 30], width=10)
        labels.class_names = ["Asphalt", "Shadows"]
        with pytest.raises(SplitError, match="Shadows"):
            stratified_split(labels, 100, seed=0)

    def test_fraction_mode_floor_with_minimum(self):
        labels = grid_with_sizes([100, 41, 10], width=10)
        manifest = stratified_split(labels, fraction=0.05, seed=2)
        counts = collections.Counter(cls for _, _, cls in manifest.train)
        assert counts == {1: 5, 2: 2, 3: 1}
        assert manifest.fraction == 0.05
        assert manifest.per_class_train is None

    def test_exactly_one_mode(self):
        labels = grid_with_sizes([50])
        with pytest.raises(ConfigError):
            stratified_split(labels, 10, fraction=0.1, seed=0)
        with pytest.raises(ConfigError):
            stratified_split(labels, seed=0)
