import json

import numpy as np
import pytest

from specnet3d.data import (
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


def seeded_cube(shape, seed=0):
    rng = np.random.default_rng(seed)
    return HsiCube(values=rng.standard_normal(shape).astype(np.float32))


class TestCubeContainer:
    def test_round_trip_bitwise(self, tmp_path):
        cube = seeded_cube((4, 5, 6))
        path = tmp_path / "scene.hsc.json"
        save_cube(cube, path)
        loaded = load_cube(path)
        assert np.array_equal(loaded.values, cube.values)
        assert loaded.values.dtype == np.float32

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
        cube.values[0, 0, 0] = np.nan
        path = tmp_path / "bad.hsc.json"
        save_cube(cube, path)
        with pytest.raises(FormatError, match="non-finite"):
            load_cube(path)

    def test_unknown_version_rejected(self, tmp_path):
        cube = seeded_cube((2, 2, 2))
        path = tmp_path / "v9.hsc.json"
        save_cube(cube, path)
        doc = json.loads(path.read_text())
        doc["format_version"] = 9
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="format_version"):
            load_cube(path)


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


class TestNormalize:
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
        counts = manifest.train_counts()
        assert counts == {1: 200, 2: 200}
        test_counts = {}
        for _, _, cls in manifest.test:
            test_counts[cls] = test_counts.get(cls, 0) + 1
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
        counts = manifest.train_counts()
        assert counts == {1: 5, 2: 2, 3: 1}
        assert manifest.fraction == 0.05
        assert manifest.per_class_train is None

    def test_exactly_one_mode(self):
        labels = grid_with_sizes([50])
        with pytest.raises(ConfigError):
            stratified_split(labels, 10, fraction=0.1, seed=0)
        with pytest.raises(ConfigError):
            stratified_split(labels, seed=0)
