import json
from fractions import Fraction

import numpy as np
import pytest

from specnet3d.errors import MetricError, ShapeError
from specnet3d.metrics import (
    PALETTE,
    ConfusionMatrix,
    class_color,
    kappa,
    load_report,
    overall_accuracy,
    per_class_accuracy,
    render_class_map,
    write_report,
)

# published per-pixel agreement table for the university scene, used purely
# as an arithmetic fixture
UNIVERSITY_MATRIX = [
    [6041, 7, 15, 0, 1, 0, 21, 70, 0],
    [0, 16457, 0, 6, 0, 20, 0, 0, 0],
    [9, 2, 1660, 0, 0, 0, 0, 260, 0],
    [0, 70, 0, 2800, 0, 16, 0, 0, 0],
    [0, 0, 0, 0, 1286, 0, 0, 0, 0],
    [6, 32, 0, 0, 0, 4770, 0, 0, 0],
    [64, 0, 0, 0, 0, 0, 1202, 2, 3],
    [26, 19, 59, 0, 0, 3, 0, 3413, 0],
    [8, 5, 0, 0, 0, 1, 0, 0, 891],
]


def exact_stats(rows):
    """Spreadsheet-style evaluation in exact rational arithmetic."""
    c = len(rows)
    total = sum(sum(r) for r in rows)
    diag = sum(rows[i][i] for i in range(c))
    p_o = Fraction(diag, total)
    rowsums = [sum(r) for r in rows]
    colsums = [sum(rows[i][j] for i in range(c)) for j in range(c)]
    p_e = Fraction(sum(rowsums[i] * colsums[i] for i in range(c)), total * total)
    return float(p_o), float((p_o - p_e) / (1 - p_e))


class TestConfusionMatrix:
    @pytest.mark.parametrize("true_cls, pred_cls, bad", [(0, 1, 0), (4, 1, 4), (2, 4, 4)])
    def test_add_rejects_class_outside_the_matrix(self, true_cls, pred_cls, bad):
        m = ConfusionMatrix.zeros(3)
        with pytest.raises(MetricError, match=f"^class {bad} "):
            m.add(true_cls, pred_cls)
        assert m.total == 0


class TestOverallAccuracy:
    def test_diagonal_is_perfect(self):
        m = ConfusionMatrix(np.diag([5, 9, 2]))
        assert overall_accuracy(m) == 1.0

    def test_half_correct(self):
        m = ConfusionMatrix([[25, 25], [25, 25]])
        assert overall_accuracy(m) == 0.5

    def test_university_fixture(self):
        m = ConfusionMatrix(UNIVERSITY_MATRIX)
        want_oa, _ = exact_stats(UNIVERSITY_MATRIX)
        assert overall_accuracy(m) == pytest.approx(want_oa, abs=1e-12)
        assert overall_accuracy(m) == pytest.approx(0.9815, abs=1e-4)
        assert np.trace(m.counts) == 38520
        assert m.total == 39245

    def test_empty_matrix_rejected(self):
        with pytest.raises(MetricError):
            overall_accuracy(ConfusionMatrix(np.zeros((3, 3), dtype=int)))


class TestPerClassAccuracy:
    def test_diagonal(self):
        acc = per_class_accuracy(ConfusionMatrix(np.diag([1, 2, 3])))
        assert np.array_equal(acc, [1.0, 1.0, 1.0])

    def test_university_rows(self):
        acc = per_class_accuracy(ConfusionMatrix(UNIVERSITY_MATRIX))
        assert acc[4] == 1.0                       # 1286 of 1286
        assert acc[2] == pytest.approx(1660 / 1931)

    def test_zero_row_flagged_not_raised(self):
        counts = np.diag([4, 0, 6])
        acc = per_class_accuracy(ConfusionMatrix(counts))
        assert acc[0] == 1.0 and acc[2] == 1.0
        assert np.isnan(acc[1])


class TestKappa:
    def test_diagonal_is_one(self):
        assert kappa(ConfusionMatrix(np.diag([7, 1, 4]))) == 1.0

    def test_chance_level_is_zero(self):
        assert kappa(ConfusionMatrix([[25, 25], [25, 25]])) == 0.0

    def test_university_regression_lock(self):
        m = ConfusionMatrix(UNIVERSITY_MATRIX)
        _, want = exact_stats(UNIVERSITY_MATRIX)
        assert kappa(m) == pytest.approx(want, abs=1e-12)
        assert kappa(m) == pytest.approx(0.9758268100316609, abs=1e-10)

    def test_single_cell_is_undefined(self):
        counts = np.zeros((3, 3), dtype=int)
        counts[1, 1] = 10
        with pytest.raises(MetricError):
            kappa(ConfusionMatrix(counts))

    def test_bounded_over_random_matrices(self):
        rng = np.random.default_rng(99)
        for _ in range(1000):
            c = int(rng.integers(2, 7))
            counts = rng.integers(0, 50, size=(c, c))
            m = ConfusionMatrix(counts)
            if m.total == 0:
                continue
            rows = counts.sum(axis=1)
            cols = counts.sum(axis=0)
            if (rows * cols).sum() == m.total * m.total:
                continue
            k = kappa(m)
            assert -1.0 <= k <= 1.0

    def test_scale_invariance(self):
        rng = np.random.default_rng(7)
        counts = rng.integers(0, 30, size=(4, 4)) + np.diag([5, 5, 5, 5])
        m1 = ConfusionMatrix(counts)
        m2 = ConfusionMatrix(counts * 17)
        assert kappa(m2) == pytest.approx(kappa(m1), abs=1e-12)
        assert overall_accuracy(m2) == pytest.approx(overall_accuracy(m1), abs=1e-12)

    def test_weighted_identity(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            counts = rng.integers(0, 40, size=(5, 5)) + np.eye(5, dtype=int)
            m = ConfusionMatrix(counts)
            acc = per_class_accuracy(m)
            rows = counts.sum(axis=1)
            weighted = float(np.nansum(acc * rows / m.total))
            assert overall_accuracy(m) == pytest.approx(weighted, abs=1e-12)


class TestReport:
    def test_round_trip_reproduces_statistics(self, tmp_path):
        m = ConfusionMatrix(UNIVERSITY_MATRIX, class_names=[
            "Asphalt", "Meadows", "Gravel", "Trees", "Sheets",
            "Bare Soil", "Bitumen", "Bricks", "Shadows",
        ])
        path = tmp_path / "report.json"
        doc = write_report(m, path)
        loaded = load_report(path)
        assert loaded == json.loads(json.dumps(doc))
        m2 = ConfusionMatrix(loaded["matrix"], loaded["class_names"])
        assert overall_accuracy(m2) == loaded["overall_accuracy"]
        assert kappa(m2) == loaded["kappa"]

    def test_report_carries_history(self, tmp_path):
        m = ConfusionMatrix(np.diag([3, 4]))
        path = tmp_path / "report.json"
        write_report(m, path, history=[{"epoch": 1, "mean_loss": 0.5}])
        assert load_report(path)["history"] == [{"epoch": 1, "mean_loss": 0.5}]

    def test_nan_per_class_serialized_as_null(self, tmp_path):
        counts = np.diag([4, 0, 6])
        path = tmp_path / "report.json"
        write_report(ConfusionMatrix(counts), path)
        doc = load_report(path)
        assert doc["per_class_accuracy"][1] is None

    def test_undefined_kappa_serialized_as_null(self, tmp_path):
        # one class, all of it right: expected agreement is 1
        path = tmp_path / "report.json"
        assert write_report(ConfusionMatrix([[5]]), path)["kappa"] is None
        assert load_report(path)["kappa"] is None
        assert load_report(path)["overall_accuracy"] == 1.0
        with pytest.raises(MetricError):
            write_report(ConfusionMatrix([[0]]), tmp_path / "empty.json")


class TestClassMap:
    def test_two_by_two_palette(self, tmp_path):
        grid = np.asarray([[1, 2], [3, 4]], dtype=np.uint8)
        path = tmp_path / "map.ppm"
        render_class_map(grid, path)
        blob = path.read_bytes()
        assert blob.startswith(b"P6\n2 2\n255\n")
        pixels = blob.split(b"255\n", 1)[1]
        assert len(pixels) == 12
        assert pixels[0:3] == bytes(PALETTE[1])
        assert pixels[3:6] == bytes(PALETTE[2])
        assert pixels[6:9] == bytes(PALETTE[3])
        assert pixels[9:12] == bytes(PALETTE[4])

    def test_unlabeled_renders_black(self, tmp_path):
        grid = np.zeros((1, 1), dtype=np.uint8)
        path = tmp_path / "zero.ppm"
        render_class_map(grid, path)
        assert path.read_bytes().endswith(b"\x00\x00\x00")

    def test_deterministic_bytes(self, tmp_path):
        rng = np.random.default_rng(4)
        grid = rng.integers(0, 10, size=(13, 9))
        a = tmp_path / "a.ppm"
        b = tmp_path / "b.ppm"
        render_class_map(grid, a)
        render_class_map(grid, b)
        assert a.read_bytes() == b.read_bytes()

    def test_palette_has_nine_distinct_class_colors(self):
        colors = {class_color(c) for c in range(1, 10)}
        assert len(colors) == 9
        assert class_color(0) == (0, 0, 0)

    def test_rejects_negative_class(self, tmp_path):
        with pytest.raises(ShapeError, match="class -1"):
            render_class_map([[-1, 2]], tmp_path / "x.ppm")
        assert not (tmp_path / "x.ppm").exists()

    def test_rejects_non_grid(self, tmp_path):
        with pytest.raises(ShapeError):
            render_class_map(np.zeros(4), tmp_path / "x.ppm")
