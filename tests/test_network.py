import ctypes
import json
import math
import sys
import threading
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from specnet3d import network, parallel
from specnet3d.errors import ConfigError, FormatError, ShapeError
from specnet3d.network import (
    CONV_LAYER_NAMES,
    LAYER_NAMES,
    SHARD,
    Model,
    ModelConfig,
    backward,
    build_model,
    forward,
    load_checkpoint,
    param_count,
    save_checkpoint,
    shape_trace,
)
from specnet3d.ops import _patch_stack, avgpool3d_forward, relu

from oracles import assert_close, conv3d_forward, residual_grads

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
        assert shape_trace(ModelConfig(103, 9, 7))[-1][1] == 4095

    @pytest.mark.parametrize("bands", [16, 40, 102, 103, 180])
    def test_spatial_extent_never_depends_on_depth(self, bands):
        trace = dict(shape_trace(ModelConfig(bands, 9, 7)))
        assert trace["Conv2"][1:3] == (3, 3)
        assert trace["Conv4"][1:3] == (3, 3)

    # both walk _BLOCK_PLAN through the one _walk
    @pytest.mark.parametrize("make", [shape_trace, lambda config: build_model(config, 0)],
                             ids=["shape_trace", "build_model"])
    def test_depth_collapse_names_stage(self, make):
        with pytest.raises(ShapeError, match="Conv2"):
            make(ModelConfig(4, 9, 7))

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
            assert shape_trace(ModelConfig(bands, 9, 7))[-1][1] == want


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
        with pytest.raises(ShapeError):  # no shard to run
            forward(model, np.zeros((0, 1, 7, 7, 20), dtype=np.float32))
        with pytest.raises(ShapeError):  # narrower than the window
            forward(model, np.zeros((1, 1, 6, 9, 20), dtype=np.float32))
        with pytest.raises(ShapeError, match="patches only"):  # a neighbourhood
            forward(model, np.zeros((1, 1, 9, 9, 20), dtype=np.float32))

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

    def test_intermediates_only_for_patches(self):
        model = small_model()
        with pytest.raises(ShapeError, match="patches only"):
            forward(model, np.zeros((1, 1, 8, 7, 20), dtype=np.float32),
                    keep_intermediates=True)

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

        _, cache = forward(model, x, keep_intermediates=True)
        grads_skip = backward(model, cache, up)
        # the test-side reference reproduces the network bit for bit, so
        # any difference from its skip-free run is the skip's doing
        reference = residual_grads(model, x, up)
        assert all(np.array_equal(grads_skip[k], reference[k]) for k in reference)
        grads_plain = residual_grads(model, x, up, skip=False)

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

    @pytest.mark.parametrize("config, seed", [(ModelConfig(30, 9, 7), 42),
                                              (ModelConfig(103, 9, 7), 0)])
    def test_initial_draws_are_pinned(self, config, seed):
        # one generator, one fan-in uniform draw per weight in network
        # order, cast to float32; biases zero
        params = build_model(config, seed).parameters()
        assert list(params) == [f"{n}.{k}" for n in LAYER_NAMES for k in ("weight", "bias")]
        rng = np.random.default_rng(seed)
        for name in LAYER_NAMES:
            weight, bias = params[f"{name}.weight"], params[f"{name}.bias"]
            limit = np.sqrt(6.0 / math.prod(weight.shape[1:]))
            want = rng.uniform(-limit, limit, weight.shape).astype(np.float32)
            assert weight.dtype == want.dtype and weight.tobytes() == want.tobytes(), name
            assert bias.dtype == np.float32 and bias.tobytes() == bytes(bias.nbytes), name

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
            assert loaded.parameters()[name].flags.writeable, name

    def test_load_walks_the_block_plan_once(self, tmp_path, monkeypatch):
        path = tmp_path / "model.ckpt.json"
        save_checkpoint(build_model(ModelConfig(24, 5, 7), 3), path)
        walks = []
        walk = network._walk
        monkeypatch.setattr(network, "_walk", lambda config: walks.append(config) or walk(config))
        load_checkpoint(path)
        assert walks == [ModelConfig(24, 5, 7)]

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

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_save_refuses_what_load_refuses(self, tmp_path, value):
        model = build_model(ModelConfig(24, 5, 7), 0)
        model.parameters()["Conv2.weight"].flat[3] = value
        with pytest.raises(FormatError, match="^checkpoint payload contains non-finite values$"):
            save_checkpoint(model, tmp_path / "model.ckpt.json")
        assert list(tmp_path.iterdir()) == []

    def test_non_finite_blob_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt.json"
        save_checkpoint(build_model(ModelConfig(24, 5, 7), 0), path)
        raw = tmp_path / "model.ckpt.raw"
        blob = np.fromfile(raw, "<f4")
        blob[-1] = np.inf
        blob.tofile(raw)
        with pytest.raises(FormatError, match="^checkpoint payload contains non-finite values$"):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit", ["missing", "extra", "renamed"])
    def test_layer_list_mismatch_rejected(self, edit, tmp_path):
        model = build_model(ModelConfig(24, 5, 7), 0)
        path = tmp_path / "model.ckpt.json"
        save_checkpoint(model, path)
        doc = json.loads(path.read_text())
        layers = doc["layers"]
        if edit == "missing":
            del layers[3]
        elif edit == "extra":
            layers.insert(2, dict(layers[2], name="Conv1_2"))
        else:
            layers[4]["name"] = "Conv5"
        path.write_text(json.dumps(doc))
        # the first entry that differs from the table the config builds
        entry = {"missing": 3, "extra": 2, "renamed": 4}[edit]
        with pytest.raises(FormatError, match=f"^checkpoint layer entry {entry} is "):
            load_checkpoint(path)

    # the fully connected layer alone would take 1 TB to 4 ZB
    @pytest.mark.parametrize("field, value", [
        ("num_classes", 2**70), ("num_classes", 2**28), ("spectral_depth", 2**31),
    ])
    def test_huge_declared_config_rejected_before_allocation(self, field, value, tmp_path):
        model = build_model(ModelConfig(24, 5, 7), 0)
        path = tmp_path / "model.ckpt.json"
        save_checkpoint(model, path)
        doc = json.loads(path.read_text())
        doc["config"][field] = value
        path.write_text(json.dumps(doc))
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match=r"^checkpoint payload holds \d+ scalars, "
                                                  r"its header requires exactly \d+$") as exc:
                load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert exc.value.code == "E_FORMAT"
        assert peak < 1 << 20

    def test_layer_shape_mismatch_rejected(self, tmp_path):
        # shapes that disagree with the manifest's own config: one file
        # that disagrees with itself is malformed (E_FORMAT)
        model = build_model(ModelConfig(24, 5, 7), 0)
        path = tmp_path / "model.ckpt.json"
        save_checkpoint(model, path)
        doc = json.loads(path.read_text())
        # same scalar count, so the blob still fits the manifest
        doc["layers"][-1]["weight_shape"].reverse()
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="^checkpoint layer entry 8 is .*'FC'") as exc:
            load_checkpoint(path)
        assert exc.value.code == "E_FORMAT"


def _step(model, x, up):
    """Forward with cache then backward: (logits, grads)."""
    logits, cache = forward(model, x, keep_intermediates=True)
    return logits, backward(model, cache, up)


def _same_step(a, b):
    (logits_a, grads_a), (logits_b, grads_b) = a, b
    assert logits_a.tobytes() == logits_b.tobytes()
    assert grads_a.keys() == grads_b.keys()
    for name in grads_a:
        assert grads_a[name].tobytes() == grads_b[name].tobytes(), name


def _inputs(seed, n, bands=20):
    """A patch batch and an upstream logit gradient for small_model."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 1, 7, 7, bands)).astype(np.float32)
    up = rng.standard_normal((n, 9)).astype(np.float32) / n
    return x, up


def _arrays(tree):
    """Every array in a nest of dicts, lists and tuples, such as a forward
    cache or a gradient dict."""
    if isinstance(tree, np.ndarray):
        yield tree
    elif isinstance(tree, (dict, list, tuple)):
        for item in tree.values() if isinstance(tree, dict) else tree:
            yield from _arrays(item)


class TestOwnership:
    # one shard, and two
    @pytest.mark.parametrize("n", [13, 64])
    def test_a_later_pass_leaves_earlier_results_alone(self, n):
        # what forward and backward return is the caller's to keep: B's
        # pass, run between A's forward and A's backward, neither writes
        # into A's arrays nor hands back any of their memory
        model = small_model(seed=30)
        (xa, up_a), (xb, up_b) = _inputs(31, n), _inputs(32, n)
        want = _step(model, xa, up_a)
        logits_a, cache_a = forward(model, xa, keep_intermediates=True)
        logits_b, cache_b = forward(model, xb, keep_intermediates=True)
        grads_a = backward(model, cache_a, up_a)
        grads_b = backward(model, cache_b, up_b)
        _same_step((logits_a, grads_a), want)
        ours = [logits_a, *_arrays(cache_a), *_arrays(grads_a)]
        theirs = [logits_b, *_arrays(cache_b), *_arrays(grads_b)]
        assert len(cache_a["shards"]) == -(-n // SHARD)
        for array in ours:
            for other in theirs:
                assert not np.shares_memory(array, other)

    @pytest.mark.parametrize("n", [13, 64])
    def test_cache_holds_each_blocks_relu_output_once(self, n):
        # backward rebuilds the projection's patch stack from y, and a
        # pointwise stack is a view of its input, not a copy
        model = small_model(seed=33)
        _, cache = forward(model, _inputs(34, n)[0], keep_intermediates=True)
        for shard in cache["shards"]:
            for block, saved in zip(model.blocks, shard["blocks"], strict=True):
                assert saved.keys() == {"x_in", "y", "main_cols"}
                y = saved["y"]
                assert np.shares_memory(_patch_stack(y, block.proj, y.shape[2:]), y)


needs_openblas = pytest.mark.skipif(
    parallel._openblas() is None,
    reason="OpenBLAS's thread count cannot be set here, so shards never leave "
           "the calling thread")


class TestShards:
    # around one and two shards, and a ragged third
    @pytest.mark.parametrize("n", [31, 32, 33, 64, 65])
    def test_grads_match_whole_batch_reference(self, n):
        model = small_model(seed=40)
        x, up = _inputs(41, n)
        grads = _step(model, x, up)[1]
        with parallel.one_blas_thread():  # as forward and backward run
            want = residual_grads(model, x, up)
        assert grads.keys() == want.keys()
        for name in want:
            if n <= SHARD:  # one shard is the whole batch
                assert grads[name].tobytes() == want[name].tobytes(), name
            else:
                # fixed before running: float32 partial sums regrouped by
                # shard, far inside 1e-4 of max(1, |grad|)
                assert_close(grads[name], want[name], 1e-4, name)

    def test_bits_independent_of_worker_count(self, monkeypatch):
        # seven shards, the last ragged; more workers than cores, and a
        # thread switch forced every microsecond, would show a lost or
        # misplaced shard result
        model = small_model(bands=12, seed=42)
        x, up = _inputs(43, 6 * SHARD + 5, bands=12)
        monkeypatch.setattr(parallel, "workers", lambda: 1)
        want = _step(model, x, up)
        monkeypatch.setattr(parallel, "workers", lambda: 6)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = [_step(model, x, up) for _ in range(3)]
        finally:
            sys.setswitchinterval(interval)
        for step in got:
            _same_step(step, want)

    def _overflowing(self, monkeypatch):
        """A batch whose second shard overflows float32 in Conv1, and the
        model; records whether that shard ran on a helper thread."""
        model = small_model(seed=44)
        x = _inputs(45, 2 * SHARD)[0]
        x[SHARD:] = big = np.float32(1e38)
        monkeypatch.setattr(parallel, "workers", lambda: 2)
        on_helper = []
        run_blocks = network._run_blocks

        def recording(model, x, *args):
            if x[0, 0, 0, 0, 0] == big:
                on_helper.append(threading.current_thread() is not threading.main_thread())
            return run_blocks(model, x, *args)

        monkeypatch.setattr(network, "_run_blocks", recording)
        with np.errstate(all="raise"):  # the first shard alone is clean
            forward(model, x[:SHARD])
        return model, x, on_helper

    @needs_openblas
    def test_helper_shards_ignore_errors_the_caller_ignores(self, monkeypatch):
        model, x, on_helper = self._overflowing(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(all="ignore"):
                logits, _ = forward(model, x)
        assert on_helper == [True]
        assert np.isfinite(logits[:SHARD]).all()
        assert not np.isfinite(logits[SHARD:]).all()

    @needs_openblas
    def test_helper_shards_raise_errors_the_caller_raises(self, monkeypatch):
        model, x, on_helper = self._overflowing(monkeypatch)
        with np.errstate(all="raise"), pytest.raises(FloatingPointError):
            forward(model, x)
        assert on_helper == [True]

    @needs_openblas
    def test_blas_threads_restored_after_a_shard_raises(self, monkeypatch):
        model = small_model(seed=46)
        x, up = _inputs(47, SHARD + 8)
        monkeypatch.setattr(parallel, "workers", lambda: 2)
        before = parallel.blas_threads()
        _, cache = forward(model, x, keep_intermediates=True)
        during = []

        def failing_on_8(original, batch_arg):
            def failing(*args):
                during.append(parallel.blas_threads())
                if len(args[batch_arg]) == 8:
                    raise RuntimeError("shard failed")
                return original(*args)
            return failing

        # _run_blocks(model, x, ...) and _block_grads(model, saved, g)
        monkeypatch.setattr(network, "_run_blocks", failing_on_8(network._run_blocks, 1))
        monkeypatch.setattr(network, "_block_grads", failing_on_8(network._block_grads, 2))
        with pytest.raises(RuntimeError, match="shard failed"):
            forward(model, x)
        assert parallel.blas_threads() == before
        with pytest.raises(RuntimeError, match="shard failed"):
            backward(model, cache, up)
        assert parallel.blas_threads() == before
        assert during == [1] * 4


class TestSpentCache:
    # one shard, and two
    @pytest.mark.parametrize("n", [13, 64])
    def test_backward_empties_every_shard(self, n):
        model = small_model(seed=50)
        x, up = _inputs(51, n)
        _, cache = forward(model, x, keep_intermediates=True)
        cols = [weakref.ref(saved["main_cols"])
                for shard in cache["shards"] for saved in shard["blocks"]]
        backward(model, cache, up)
        assert [shard["blocks"] for shard in cache["shards"]] == [[]] * -(-n // SHARD)
        assert [ref() for ref in cols] == [None] * len(cols)

    def test_each_block_freed_once_its_gradients_exist(self, monkeypatch):
        # when Conv1's gradients are computed, blocks 2-4's saved
        # activations are already gone, and block 1's are still there
        model = small_model(seed=52)
        x, up = _inputs(53, 13)
        _, cache = forward(model, x, keep_intermediates=True)
        refs = [weakref.ref(saved[key]) for saved in cache["shards"][0]["blocks"]
                for key in ("x_in", "y", "main_cols")]
        alive_at_conv1 = []
        conv_backward = network.conv3d_backward

        def recording(x, spec, *args, **kwargs):
            if spec is model.blocks[0].main:
                alive_at_conv1.append([ref() is not None for ref in refs])
            return conv_backward(x, spec, *args, **kwargs)

        monkeypatch.setattr(network, "conv3d_backward", recording)
        backward(model, cache, up)
        assert alive_at_conv1 == [[True] * 3 + [False] * 9]

    def test_a_spent_cache_is_refused(self):
        model = small_model(seed=54)
        x, up = _inputs(55, 40)
        _, cache = forward(model, x, keep_intermediates=True)
        backward(model, cache, up)
        with pytest.raises(ConfigError, match="already spent this cache") as exc:
            backward(model, cache, up)
        assert exc.value.code == "E_CONFIG"


needs_fenv = pytest.mark.skipif(
    parallel._fenv() is None,
    reason="FTZ and DAZ are set through x86-64 glibc's libm only")

# MXCSR's sticky exception flags, which any float operation may raise;
# the other bits are its control bits
_FLAGS = 0x3F
_DEFAULT_MXCSR = 0x1F80


def _fenv_buffer():
    env = (ctypes.c_uint32 * 8)()
    parallel._fenv()[0](env)
    return env


def _control():
    """The calling thread's MXCSR control bits."""
    return _fenv_buffer()[7] & ~_FLAGS


@pytest.fixture
def caller_mxcsr():
    """Sets the test thread's MXCSR control bits; gives the thread its
    floating-point environment back afterwards."""
    saved = _fenv_buffer()

    def set_control(bits):
        env = _fenv_buffer()
        env[7] = env[7] & _FLAGS | bits
        parallel._fenv()[1](env)

    yield set_control
    parallel._fenv()[1](saved)


@needs_fenv
class TestFlushedJobs:
    def test_subnormal_upstream_gives_zero_gradients(self):
        # unflushed, FC.bias alone would be 40 x 1e-40, still subnormal
        model = small_model(seed=56)
        x, _ = _inputs(57, 40)
        _, cache = forward(model, x, keep_intermediates=True)
        up = np.full((40, 9), 1e-40, np.float32)
        assert 0 < up[0, 0] < np.finfo(np.float32).smallest_normal
        grads = backward(model, cache, up)
        for name, grad in grads.items():
            assert not grad.any(), name

    # the default, and DAZ alone, which the jobs must not leave behind
    # as FTZ | DAZ
    @pytest.mark.parametrize("caller", [_DEFAULT_MXCSR, _DEFAULT_MXCSR | 0x40],
                             ids=["default", "daz"])
    def test_jobs_flush_and_the_caller_keeps_its_mxcsr(self, caller, caller_mxcsr,
                                                       monkeypatch):
        model = small_model(seed=58)
        x, up = _inputs(59, SHARD + 8)
        values = np.random.default_rng(60).standard_normal((6, 13, 20)).astype(np.float32)
        monkeypatch.setattr(parallel, "workers", lambda: 2)
        seen = []
        run_blocks, stream = network._run_blocks, network.stream

        def recording(original):
            def job(*args):
                seen.append(_control())
                return original(*args)
            return job

        monkeypatch.setattr(network, "_run_blocks", recording(run_blocks))
        monkeypatch.setattr(network, "stream", recording(stream))
        caller_mxcsr(caller)
        _, cache = forward(model, x, keep_intermediates=True)
        assert _control() == caller
        backward(model, cache, up)
        assert _control() == caller
        network.class_grid(model, values)
        assert _control() == caller
        # two shards, then two strips
        assert seen == [_DEFAULT_MXCSR | 0x8040] * 4

    def test_the_caller_keeps_its_mxcsr_when_a_job_raises(self, caller_mxcsr,
                                                          monkeypatch):
        model = small_model(seed=61)
        x, up = _inputs(62, SHARD + 8)
        values = np.random.default_rng(63).standard_normal((6, 13, 20)).astype(np.float32)
        _, cache = forward(model, x, keep_intermediates=True)
        caller_mxcsr(_DEFAULT_MXCSR)

        def failing(*args):
            raise RuntimeError("job failed")

        for name, call in (("_run_blocks", lambda: forward(model, x)),
                           ("_block_grads", lambda: backward(model, cache, up)),
                           ("stream", lambda: network.class_grid(model, values))):
            monkeypatch.setattr(network, name, failing)
            with pytest.raises(RuntimeError, match="job failed"):
                call()
            assert _control() == _DEFAULT_MXCSR, name
