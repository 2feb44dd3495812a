import tracemalloc

import numpy as np
import pytest

from specnet3d import training
from specnet3d.data import HsiCube, LabelGrid, SplitManifest, extract_patch, normalize
from specnet3d.errors import ConfigError, MismatchError, NumericError, ShapeError, SplitError
from specnet3d.metrics import ConfusionMatrix, overall_accuracy
from specnet3d.network import ModelConfig, build_model, forward
from specnet3d.ops import softmax_cross_entropy
from specnet3d.training import (
    TILE,
    OptimizerState,
    TrainConfig,
    evaluate,
    predict_map,
    sgd_step,
    train,
    _patch_batch,
    _tile_logits,
)

from synth import overfit_scene


class TestSgdStep:
    def test_zero_gradient_is_fixed_point(self):
        w = np.asarray([1.0, -2.0], dtype=np.float32)
        params = {"L.weight": w}
        state = OptimizerState(weight_decay=0.0)
        sgd_step(params, {"L.weight": np.zeros_like(w)}, state)
        assert np.array_equal(w, [1.0, -2.0])

    def test_hand_evaluated_recurrence(self):
        w = np.asarray([1.0], dtype=np.float32)
        g = np.asarray([0.5], dtype=np.float32)
        params = {"L.weight": w}
        state = OptimizerState(learning_rate=0.02, momentum=0.9, weight_decay=0.0)
        sgd_step(params, {"L.weight": g}, state)
        assert w[0] == pytest.approx(0.99, rel=1e-6)
        assert state.velocity["L.weight"][0] == pytest.approx(0.5, rel=1e-6)
        sgd_step(params, {"L.weight": g}, state)
        assert w[0] == pytest.approx(0.971, rel=1e-6)
        assert state.velocity["L.weight"][0] == pytest.approx(0.95, rel=1e-6)

    def test_pure_decay(self):
        w = np.asarray([2.0], dtype=np.float32)
        params = {"L.weight": w}
        state = OptimizerState(learning_rate=0.1, momentum=0.9, weight_decay=0.01)
        sgd_step(params, {"L.weight": np.zeros_like(w)}, state)
        assert w[0] == pytest.approx(2.0 * (1 - 0.1 * 0.01), rel=1e-6)

    def test_bias_exempt_from_decay(self):
        b = np.asarray([2.0], dtype=np.float32)
        params = {"L.bias": b}
        state = OptimizerState(learning_rate=0.1, momentum=0.0, weight_decay=0.5)
        sgd_step(params, {"L.bias": np.zeros_like(b)}, state)
        assert b[0] == 2.0

    def test_reduces_to_plain_sgd(self):
        rng = np.random.default_rng(0)
        w = rng.standard_normal(5).astype(np.float32)
        g = rng.standard_normal(5).astype(np.float32)
        want = w - 0.05 * g
        params = {"L.weight": w}
        state = OptimizerState(learning_rate=0.05, momentum=0.0, weight_decay=0.0)
        sgd_step(params, {"L.weight": g}, state)
        assert np.allclose(w, want, rtol=1e-7)

    def test_shape_mismatch(self):
        params = {"L.weight": np.zeros(3, np.float32)}
        with pytest.raises(ShapeError):
            sgd_step(params, {"L.weight": np.zeros(4, np.float32)}, OptimizerState())

    def test_invalid_hyperparameters(self):
        with pytest.raises(ConfigError):
            OptimizerState(momentum=1.0)
        with pytest.raises(ConfigError):
            OptimizerState(weight_decay=-0.1)


class TestTrainLoop:
    def test_zero_learning_rate_freezes_parameters(self):
        cube, labels, split = overfit_scene()
        model = build_model(ModelConfig(cube.bands, 9, 7), 1)
        before = {k: v.copy() for k, v in model.parameters().items()}
        opt = OptimizerState(learning_rate=0.0)
        train(model, cube, labels, split, TrainConfig(epochs=3, shuffle_seed=2), opt)
        for name, arr in model.parameters().items():
            assert np.array_equal(arr, before[name]), name

    def test_overfit_fixture_reaches_full_training_accuracy(self):
        cube, labels, split = overfit_scene()
        model = build_model(ModelConfig(cube.bands, 9, 7), 3)
        history = train(model, cube, labels, split,
                        TrainConfig(epochs=200, shuffle_seed=5), OptimizerState())
        assert len(history) == 200
        norm = normalize(cube, split)
        matrix = evaluate(model, norm, labels, split.train)
        assert overall_accuracy(matrix) == 1.0
        assert np.array_equal(matrix.counts, np.diag(np.diag(matrix.counts)))

    def test_divergence_stops_without_checkpoint(self, tmp_path):
        cube, labels, split = overfit_scene()
        model = build_model(ModelConfig(cube.bands, 9, 7), 3)
        ckpt = tmp_path / "m.ckpt.json"
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError, match=r"epoch \d+, batch \d+"):
                train(model, cube, labels, split, TrainConfig(epochs=5, shuffle_seed=5),
                      OptimizerState(learning_rate=1e6), checkpoint_path=ckpt)
        assert not ckpt.exists()
        assert not (tmp_path / "m.ckpt.raw").exists()

    def test_descent_smoke_step(self):
        cube, labels, split = overfit_scene()
        model = build_model(ModelConfig(cube.bands, 9, 7), 3)
        norm = normalize(cube, split)
        coords = [(r, c) for r, c, _ in split.train]
        targets = np.asarray([k - 1 for _, _, k in split.train])
        patches = _patch_batch(norm, coords, 7)

        def batch_loss():
            logits, _ = forward(model, patches)
            losses, _ = softmax_cross_entropy(logits, targets)
            return float(losses.mean())

        before = batch_loss()
        opt = OptimizerState(learning_rate=1e-4, weight_decay=0.0)
        train(model, cube, labels, split, TrainConfig(epochs=1, shuffle_seed=0), opt)
        after = batch_loss()
        assert after <= before + 1e-6

    def test_bitwise_deterministic_with_fixed_seeds(self, tmp_path):
        cube, labels, split = overfit_scene()
        outputs = []
        for run in ("a", "b"):
            model = build_model(ModelConfig(cube.bands, 9, 7), 9)
            ckpt = tmp_path / f"{run}.ckpt.json"
            hist = tmp_path / f"{run}.jsonl"
            train(model, cube, labels, split,
                  TrainConfig(epochs=5, shuffle_seed=13), OptimizerState(),
                  checkpoint_path=ckpt, history_path=hist)
            outputs.append((
                ckpt.read_bytes(), (tmp_path / f"{run}.ckpt.raw").read_bytes(),
                hist.read_bytes(),
            ))
        assert outputs[0] == outputs[1]
        assert outputs[0][1]  # raw blob is non-empty

    def test_history_records_test_accuracy_on_request(self):
        cube, labels, split = overfit_scene()
        # carve two pixels per class out of train to make a test side
        train_side = [e for i, e in enumerate(split.train) if i % 3 != 0]
        test_side = [e for i, e in enumerate(split.train) if i % 3 == 0]
        split2 = SplitManifest(seed=split.seed, train=train_side, test=test_side)
        model = build_model(ModelConfig(cube.bands, 9, 7), 4)
        history = train(model, cube, labels, split2,
                        TrainConfig(epochs=2, shuffle_seed=3), OptimizerState(),
                        eval_test=True)
        assert all("test_overall_accuracy" in h for h in history)

    def test_band_mismatch_rejected(self):
        cube, labels, split = overfit_scene()
        model = build_model(ModelConfig(cube.bands + 1, 9, 7), 0)
        with pytest.raises(MismatchError):
            train(model, cube, labels, split, TrainConfig(epochs=1), OptimizerState())

    def test_epochs_invariant(self):
        with pytest.raises(ConfigError):
            TrainConfig(epochs=0)


class TestEvaluate:
    def test_constant_logits_predict_lowest_class(self):
        cube, labels, split = overfit_scene()
        model = build_model(ModelConfig(cube.bands, 9, 7), 5)
        for block in model.blocks:
            block.main.weights[:] = 0
            block.main.bias[:] = 0
            block.proj.weights[:] = 0
            block.proj.bias[:] = 0
        model.fc_weights[:] = 0
        model.fc_bias[:] = 0
        matrix = evaluate(model, cube, labels, split.train)
        assert matrix.counts[:, 0].sum() == len(split.train)
        assert matrix.counts[:, 1:].sum() == 0

    def test_row_sums_match_class_counts(self):
        cube, labels, split = overfit_scene()
        model = build_model(ModelConfig(cube.bands, 9, 7), 6)
        matrix = evaluate(model, cube, labels, split.train)
        want = np.bincount([k for _, _, k in split.train], minlength=10)[1:]
        assert np.array_equal(matrix.counts.sum(axis=1), want)
        assert matrix.total == len(split.train)

    def test_unlabeled_pixel_rejected(self):
        cube = HsiCube(values=np.ones((4, 4, 8), dtype=np.float32))
        labels = LabelGrid(labels=np.zeros((4, 4), dtype=np.uint8))
        model = build_model(ModelConfig(8, 2, 7), 0)
        with pytest.raises(SplitError):
            evaluate(model, cube, labels, [(1, 1)])

    def test_mislabeled_entry_rejected(self):
        cube, labels, split = overfit_scene()
        model = build_model(ModelConfig(cube.bands, 9, 7), 0)
        r, c, k = split.train[0]
        wrong = (r, c, k % 9 + 1)
        with pytest.raises(MismatchError):
            evaluate(model, cube, labels, [wrong])

    def test_band_mismatch_rejected(self):
        cube, labels, split = overfit_scene()
        model = build_model(ModelConfig(cube.bands + 1, 9, 7), 0)
        with pytest.raises(MismatchError):
            evaluate(model, cube, labels, split.train)

    def test_label_grid_mismatch_rejected(self):
        cube, labels, split = overfit_scene()
        model = build_model(ModelConfig(cube.bands, 9, 7), 0)
        taller = LabelGrid(labels=np.vstack([labels.labels, labels.labels]))
        with pytest.raises(MismatchError):
            evaluate(model, cube, taller, split.train)

    @pytest.mark.parametrize("pixel", [(-1, 0), (0, -1), (8, 0), (0, 4)])
    def test_pixel_outside_scene_rejected(self, pixel):
        cube, labels, _ = overfit_scene()  # 8x4
        model = build_model(ModelConfig(cube.bands, 9, 7), 0)
        with pytest.raises(SplitError, match="outside"):
            evaluate(model, cube, labels, [pixel])


class TestPredictMap:
    def test_grid_covers_classes(self):
        rng = np.random.default_rng(30)
        model = build_model(ModelConfig(8, 4, 7), 7)
        for shape in [(10, 10), (1, 17), (17, 1), (20, 13)]:
            cube = HsiCube(values=rng.standard_normal((*shape, 8)).astype(np.float32))
            grid = predict_map(model, cube)
            assert grid.shape == shape
            assert grid.min() >= 1 and grid.max() <= 4

    def test_matches_evaluate_prediction(self):
        cube, labels, split = overfit_scene()
        model = build_model(ModelConfig(cube.bands, 9, 7), 8)
        grid = predict_map(model, cube)
        matrix = evaluate(model, cube, labels, [(2, 2)])
        predicted = int(np.argwhere(matrix.counts[labels.labels[2, 2] - 1] > 0)[0][0]) + 1
        assert grid[2, 2] == predicted

    def test_constant_cube_gives_constant_map(self):
        cube = HsiCube(values=np.full((9, 9, 8), 0.5, dtype=np.float32))
        model = build_model(ModelConfig(8, 3, 7), 9)
        grid = predict_map(model, cube)
        # interior pixels share identical zero-fill-free patches
        interior = grid[3:6, 3:6]
        assert (interior == interior[0, 0]).all()

    def test_band_mismatch_rejected(self):
        cube = HsiCube(values=np.ones((8, 8, 8), dtype=np.float32))
        model = build_model(ModelConfig(9, 3, 7), 0)
        with pytest.raises(MismatchError):
            predict_map(model, cube)


def _scene_logits(model, cube):
    """(height, width, classes) logits assembled from every dense tile."""
    out = np.empty((cube.height, cube.width, model.config.num_classes), np.float32)
    for r0 in range(0, cube.height, TILE[0]):
        for c0 in range(0, cube.width, TILE[1]):
            logits = _tile_logits(model, cube, r0, c0)
            out[r0:r0 + logits.shape[0], c0:c0 + logits.shape[1]] = logits
    return out


class TestDenseInference:
    # a scene inside one tile, one not a multiple of the tile on either axis,
    # a single row and a single column, each at windows 5 and 7
    @pytest.mark.parametrize("window", [5, 7])
    @pytest.mark.parametrize("shape", [
        (TILE[0] - 3, TILE[1] - 2),
        (2 * TILE[0] + 3, TILE[1] + 5),
        (1, 2 * TILE[1] + 3),
        (2 * TILE[0] + 3, 1),
    ])
    def test_matches_patch_forward(self, shape, window):
        rng = np.random.default_rng(40)
        cube = HsiCube(values=rng.standard_normal((*shape, 10)).astype(np.float32))
        model = build_model(ModelConfig(10, 5, window), 41)
        dense = _scene_logits(model, cube)
        patches = np.concatenate([
            extract_patch(cube, r, c, window)
            for r in range(cube.height) for c in range(cube.width)
        ])
        patch_logits, _ = forward(model, patches)
        patch_logits = patch_logits.reshape(dense.shape)
        np.testing.assert_allclose(dense, patch_logits, rtol=1e-4, atol=1e-5)
        assert np.array_equal(dense.argmax(axis=2), patch_logits.argmax(axis=2))

    def test_prediction_independent_of_requested_pixels(self, monkeypatch):
        rng = np.random.default_rng(42)
        shape = (2 * TILE[0] + 3, 2 * TILE[1] + 1)
        cube = HsiCube(values=rng.standard_normal((*shape, 10)).astype(np.float32))
        labels = LabelGrid(labels=rng.integers(1, 5, size=shape).astype(np.uint8))
        model = build_model(ModelConfig(10, 4, 7), 43)

        runs = []
        original = training._tile_logits

        def recording(model, cube, r0, c0):
            logits = original(model, cube, r0, c0)
            runs.append(((r0, c0), logits.copy()))
            return logits

        monkeypatch.setattr(training, "_tile_logits", recording)
        grid = predict_map(model, cube)
        full_pass = dict(runs)
        assert len(full_pass) == len(runs)

        def from_grid(pixels):
            matrix = ConfusionMatrix.zeros(model.config.num_classes)
            for r, c, cls in pixels:
                matrix.add(cls, int(grid[r, c]))
            return matrix.counts

        everything = [(r, c, int(labels.labels[r, c]))
                      for r in range(shape[0]) for c in range(shape[1])]
        chosen = rng.choice(len(everything), size=len(everything) // 7, replace=False)
        subset = [everything[i] for i in sorted(chosen)]
        # single pixels run their tile alone; the last tile is clipped on both axes
        singles = [[everything[r * shape[1] + c]] for r, c in
                   [(0, 0), (TILE[0], TILE[1] - 1), (shape[0] - 1, shape[1] - 1)]]
        for pixels in singles + [subset, everything]:
            runs.clear()
            counts = evaluate(model, cube, labels, pixels).counts
            assert np.array_equal(counts, from_grid(pixels))
            assert len(runs) == len({(r - r % TILE[0], c - c % TILE[1])
                                     for r, c, _ in pixels})
            for origin, logits in runs:
                assert logits.tobytes() == full_pass[origin].tobytes(), origin

    def test_working_set_bounded_by_tile(self):
        # one tile's working set outweighs a padded copy of a 96x96 scene;
        # 192x192 is large enough for a scene-sized copy to break the bound
        rng = np.random.default_rng(44)
        model = build_model(ModelConfig(16, 4, 7), 45)
        peaks = []
        for side in (24, 96, 192):
            cube = HsiCube(values=rng.standard_normal((side, side, 16)).astype(np.float32))
            tracemalloc.start()
            try:
                predict_map(model, cube)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks[1:]) <= 1.5 * peaks[0]
