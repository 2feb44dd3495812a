import numpy as np
import pytest

from specnet3d.data import HsiCube, LabelGrid, SplitManifest, normalize
from specnet3d.errors import ConfigError, MismatchError, NumericError, ShapeError, SplitError
from specnet3d.metrics import overall_accuracy
from specnet3d.network import ModelConfig, build_model, forward
from specnet3d.ops import softmax_cross_entropy
from specnet3d.training import (
    OptimizerState,
    TrainConfig,
    evaluate,
    predict_map,
    sgd_step,
    train,
    _patch_batch,
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


class TestPredictMap:
    def test_grid_covers_classes(self):
        rng = np.random.default_rng(30)
        cube = HsiCube(values=rng.standard_normal((10, 10, 8)).astype(np.float32))
        model = build_model(ModelConfig(8, 4, 7), 7)
        grid = predict_map(model, cube)
        assert grid.shape == (10, 10)
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
