import numpy as np
import pytest

from specnet3d.errors import FormatError, ShapeError
from specnet3d.network import (
    CONV_LAYER_NAMES,
    Model,
    ModelConfig,
    backward,
    build_model,
    flattened_length,
    forward,
    load_checkpoint,
    param_count,
    save_checkpoint,
    shape_trace,
)
from specnet3d.ops import avgpool3d_forward, conv3d_forward, relu

from oracles import assert_close

TABLE_COUNTS = {
    "Conv1": 560,
    "Conv1_1": 420,
    "Conv2": 18935,
    "Conv2_1": 1260,
    "Conv3": 3710,
    "Conv3_1": 1260,
    "Conv4": 2485,
    "Conv4_1": 1260,
}


def small_model(bands=20, classes=9, seed=0):
    return build_model(ModelConfig(bands, classes, 7), seed)


def to_float64(model: Model) -> Model:
    for block in model.blocks:
        for spec in (block.main, block.proj):
            spec.weights = spec.weights.astype(np.float64)
            spec.bias = spec.bias.astype(np.float64)
    model.fc_weights = model.fc_weights.astype(np.float64)
    model.fc_bias = model.fc_bias.astype(np.float64)
    return model


class TestParameterLedger:
    @pytest.mark.parametrize("bands", [102, 103])
    def test_per_layer_counts(self, bands):
        model = build_model(ModelConfig(bands, 9, 7), 0)
        counts, conv_total, total = param_count(model)
        for name, want in TABLE_COUNTS.items():
            assert counts[name] == want, name
        assert conv_total == 29890
        assert counts["FC"] == 4095 * 9 + 9 == 36864
        assert total == 29890 + 36864

    @pytest.mark.parametrize("bands", [50, 80, 102, 103, 150, 200])
    def test_conv_total_independent_of_depth(self, bands):
        model = build_model(ModelConfig(bands, 9, 7), 0)
        _, conv_total, _ = param_count(model)
        assert conv_total == 29890


class TestShapeTrace:
    def test_full_trace_102(self):
        trace = shape_trace(ModelConfig(102, 9, 7))
        assert trace == [
            ("input", (1, 7, 7, 102)),
            ("Conv1", (20, 5, 5, 100)),
            ("Pool1", (20, 5, 5, 50)),
            ("Conv2", (35, 3, 3, 48)),
            ("Pool2", (35, 3, 3, 24)),
            ("Conv3", (35, 3, 3, 24)),
            ("Conv4", (35, 3, 3, 13)),
            ("flatten", 4095),
        ]

    def test_103_bands_share_classifier_width(self):
        trace = dict(shape_trace(ModelConfig(103, 9, 7)))
        assert trace["Conv1"][3] == 101
        assert trace["Pool1"][3] == 51
        assert trace["Conv2"][3] == 49
        assert trace["Pool2"][3] == 25
        assert trace["Conv3"][3] == 25
        assert trace["Conv4"][3] == 13
        assert flattened_length(ModelConfig(103, 9, 7)) == 4095

    @pytest.mark.parametrize("bands", [16, 40, 102, 103, 180])
    def test_spatial_extent_never_depends_on_depth(self, bands):
        trace = dict(shape_trace(ModelConfig(bands, 9, 7)))
        assert trace["Conv2"][1:3] == (3, 3)
        assert trace["Conv4"][1:3] == (3, 3)

    def test_depth_collapse_names_stage(self):
        with pytest.raises(ShapeError, match="Conv2"):
            shape_trace(ModelConfig(4, 9, 7))

    def test_independent_rederivation(self):
        # re-derive the stage arithmetic from the layer table by hand
        def floor_dim(size, k, s, p):
            return (size + 2 * p - k) // s + 1

        for bands in (60, 102, 103):
            d = bands
            d = floor_dim(d, 3, 1, 0)      # Conv1
            d = floor_dim(d, 3, 2, 1)      # Pool1
            d = floor_dim(d, 3, 1, 0)      # Conv2
            d = floor_dim(d, 3, 2, 1)      # Pool2
            d = floor_dim(d, 3, 1, 1)      # Conv3
            d = floor_dim(d, 2, 2, 1)      # Conv4
            want = 35 * 3 * 3 * d
            assert flattened_length(ModelConfig(bands, 9, 7)) == want


class TestForward:
    def test_logit_shape(self):
        model = build_model(ModelConfig(102, 9, 7), 1)
        x = np.random.default_rng(0).standard_normal((2, 1, 7, 7, 102)).astype(np.float32)
        logits, cache = forward(model, x)
        assert logits.shape == (2, 9)
        assert cache is None

    def test_input_shape_checked(self):
        model = small_model()
        with pytest.raises(ShapeError):
            forward(model, np.zeros((1, 1, 7, 7, 21), dtype=np.float32))

    def test_zeroed_projection_leaves_skip_path(self):
        model = small_model(seed=2)
        for block in model.blocks:
            block.proj.weights[:] = 0
            block.proj.bias[:] = 0
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2, 1, 7, 7, 20)).astype(np.float32)

        out = x
        for block in model.blocks:
            out = relu(conv3d_forward(out, block.main))
            if block.pool is not None:
                out = avgpool3d_forward(out, block.pool)
        want = out.reshape(2, -1)

        logits, cache = forward(model, x, keep_intermediates=True)
        got = cache["flat"]
        assert np.array_equal(got, want)

    # batch sizes around BLAS tile edges, plus the eval/map batch of 256
    @pytest.mark.parametrize("n", [1, 63, 64, 65, 256])
    def test_batch_independence_bitwise(self, n):
        model = small_model(seed=4)
        rng = np.random.default_rng(5)
        x = rng.standard_normal((n, 1, 7, 7, 20)).astype(np.float32)
        full, _ = forward(model, x)
        singles = np.concatenate([forward(model, x[i:i + 1])[0] for i in range(n)])
        assert np.array_equal(full, singles)

    def test_eval_batch_ends_match_single_pixel(self):
        model = build_model(ModelConfig(103, 9, 7), 8)
        x = np.random.default_rng(9).random((256, 1, 7, 7, 103)).astype(np.float32)
        full, _ = forward(model, x)
        for i in (0, 255):
            alone, _ = forward(model, x[i:i + 1])
            assert np.array_equal(full[i], alone[0]), f"pixel {i}"

    def test_deterministic(self):
        model = small_model(seed=6)
        rng = np.random.default_rng(7)
        x = rng.standard_normal((2, 1, 7, 7, 20)).astype(np.float32)
        a, _ = forward(model, x)
        b, _ = forward(model, x)
        assert np.array_equal(a, b)

    def test_argmax_invariant_under_constant_shift(self):
        model = small_model(seed=8)
        rng = np.random.default_rng(9)
        x = rng.standard_normal((4, 1, 7, 7, 20)).astype(np.float32)
        logits, _ = forward(model, x)
        base = np.argmax(logits, axis=1)
        for shift in (1e-6, 1.0, -3.5, 100.0):
            assert np.array_equal(np.argmax(logits + np.float32(shift), axis=1), base)


class TestBackward:
    def test_zero_upstream_gives_zero_grads(self):
        model = small_model(seed=10)
        x = np.random.default_rng(11).standard_normal((2, 1, 7, 7, 20)).astype(np.float32)
        logits, cache = forward(model, x, keep_intermediates=True)
        grads = backward(model, cache, np.zeros_like(logits))
        for name, g in grads.items():
            assert not g.any(), name

    def test_requires_cache(self):
        model = small_model(seed=12)
        with pytest.raises(Exception):
            backward(model, None, np.zeros((1, 9), dtype=np.float32))

    def test_whole_model_matches_finite_differences(self):
        # shrunken depth keeps each double forward cheap; coordinates are
        # spot-checked per parameter tensor since full enumeration is huge
        model = to_float64(small_model(bands=20, seed=13))
        rng = np.random.default_rng(14)
        x = rng.standard_normal((1, 1, 7, 7, 20))
        up = rng.standard_normal((1, 9))

        def loss():
            return float((forward(model, x)[0] * up).sum())

        logits, cache = forward(model, x, keep_intermediates=True)
        grads = backward(model, cache, up)

        step = 1e-4
        checked = 0
        for name, arr in model.parameters().items():
            flat = arr.reshape(-1)
            idxs = rng.choice(flat.size, size=min(5, flat.size), replace=False)
            for i in idxs:
                v = float(flat[i])
                h = step * max(1.0, abs(v))
                flat[i] = v + h
                fp = loss()
                flat[i] = v - h
                fm = loss()
                flat[i] = v
                fd = (fp - fm) / (2 * h)
                assert_close(grads[name].reshape(-1)[i], fd, 1e-3, f"{name}[{i}]")
                checked += 1
        assert checked >= 80

    def test_ablating_skip_changes_main_gradients(self):
        model = small_model(seed=15)
        rng = np.random.default_rng(16)
        x = rng.standard_normal((2, 1, 7, 7, 20)).astype(np.float32)
        up = rng.standard_normal((2, 9)).astype(np.float32)

        _, cache_skip = forward(model, x, keep_intermediates=True, use_skip=True)
        grads_skip = backward(model, cache_skip, up)
        _, cache_plain = forward(model, x, keep_intermediates=True, use_skip=False)
        grads_plain = backward(model, cache_plain, up)

        changed = [
            name for name in CONV_LAYER_NAMES
            if not np.array_equal(grads_skip[f"{name}.weight"],
                                  grads_plain[f"{name}.weight"])
        ]
        assert any(not name.endswith("_1") for name in changed), changed


class TestBuildModel:
    def test_reproducible_from_seed(self):
        a = build_model(ModelConfig(30, 9, 7), 42)
        b = build_model(ModelConfig(30, 9, 7), 42)
        for (na, pa), (nb, pb) in zip(a.parameters().items(), b.parameters().items()):
            assert na == nb and np.array_equal(pa, pb)
        c = build_model(ModelConfig(30, 9, 7), 43)
        assert not np.array_equal(a.blocks[0].main.weights, c.blocks[0].main.weights)

    def test_fan_in_bounds(self):
        model = build_model(ModelConfig(102, 9, 7), 3)
        conv1 = model.blocks[0].main
        limit = np.sqrt(6.0 / 27.0)
        assert np.abs(conv1.weights).max() <= limit
        assert not conv1.bias.any()

    def test_invalid_window(self):
        with pytest.raises(Exception):
            ModelConfig(102, 9, 6)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        model = build_model(ModelConfig(24, 5, 7), 77)
        # make the state distinguishable from a fresh build
        model.blocks[2].main.weights += 0.125
        model.fc_bias += 1.5
        path = tmp_path / "model.ckpt.json"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert loaded.config == model.config
        for name, arr in model.parameters().items():
            assert np.array_equal(arr, loaded.parameters()[name]), name
            assert loaded.parameters()[name].dtype == np.float32

    def test_unknown_version_rejected(self, tmp_path):
        model = build_model(ModelConfig(24, 5, 7), 0)
        path = tmp_path / "model.ckpt.json"
        save_checkpoint(model, path)
        doc = path.read_text().replace('"format_version": 1', '"format_version": 9')
        path.write_text(doc)
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_truncated_blob_rejected(self, tmp_path):
        model = build_model(ModelConfig(24, 5, 7), 0)
        path = tmp_path / "model.ckpt.json"
        save_checkpoint(model, path)
        raw = tmp_path / "model.ckpt.raw"
        raw.write_bytes(raw.read_bytes()[:-4])
        with pytest.raises(FormatError):
            load_checkpoint(path)
