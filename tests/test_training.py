import ctypes
import glob
import hashlib
import os
import subprocess
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from specnet3d import data, parallel, training
from specnet3d.cli import main
from specnet3d.data import (
    HsiCube, LabelGrid, SplitManifest, extract_patch, normalize, save_cube, save_labels,
    save_split, stratified_split,
)
from specnet3d.errors import (
    ConfigError, FormatError, MismatchError, NumericError, ShapeError, SpecnetError, SplitError,
)
from specnet3d.metrics import ConfusionMatrix, overall_accuracy
from specnet3d import network
from specnet3d.network import (
    STEP, STRIP, ModelConfig, build_model, forward, save_checkpoint, shape_trace, stream,
)
from specnet3d.ops import softmax_cross_entropy
from specnet3d.training import (
    OptimizerState,
    TrainConfig,
    evaluate,
    predict_map,
    sgd_step,
    train,
)

from oracles import check_pixel
from synth import overfit_scene, striped_scene


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

    @pytest.mark.parametrize("field", ["learning_rate", "weight_decay"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_hyperparameters_rejected(self, field, value):
        with pytest.raises(ConfigError, match=f"^{field} must be finite"):
            OptimizerState(**{field: value})


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
                      OptimizerState(learning_rate=1e6), checkpoint_path=ckpt,
                      history_path=tmp_path / "history.jsonl")
        assert list(tmp_path.iterdir()) == []

    def test_empty_training_set_stops_without_checkpoint(self, tmp_path):
        cube, labels, split = overfit_scene()
        model = build_model(ModelConfig(cube.bands, 9, 7), 3)
        empty = SplitManifest(seed=0, train=[], test=split.test)
        with pytest.raises(SplitError):
            train(model, cube, labels, empty, TrainConfig(epochs=1), OptimizerState(),
                  checkpoint_path=tmp_path / "m.ckpt.json",
                  history_path=tmp_path / "history.jsonl")
        assert list(tmp_path.iterdir()) == []

    def test_failed_report_evaluation_leaves_no_artifact(self, tmp_path, monkeypatch):
        cube, labels, split = overfit_scene()
        model = build_model(ModelConfig(cube.bands, 9, 7), 3)

        def failing_confusion(*args, **kwargs):
            raise MismatchError("evaluation failed")

        monkeypatch.setattr(training, "_confusion", failing_confusion)
        with pytest.raises(MismatchError, match="evaluation failed"):
            train(model, cube, labels, split, TrainConfig(epochs=1), OptimizerState(),
                  checkpoint_path=tmp_path / "m.ckpt.json",
                  history_path=tmp_path / "history.jsonl",
                  report_path=tmp_path / "report.json")
        assert list(tmp_path.iterdir()) == []

    def test_non_finite_last_step_stops_without_checkpoint(self, tmp_path):
        # one batch, so no later forward sees the weights of the last step;
        # 1e39 is finite in float64 and overflows the float32 weights
        cube, labels, split = overfit_scene()
        model = build_model(ModelConfig(cube.bands, 9, 7), 3)
        ckpt = tmp_path / "m.ckpt.json"
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError, match=r"^Conv1\.weight is not finite"):
                train(model, cube, labels, split, TrainConfig(epochs=1),
                      OptimizerState(learning_rate=1e39), checkpoint_path=ckpt)
        assert not ckpt.exists()
        assert not (tmp_path / "m.ckpt.raw").exists()

    def test_descent_smoke_step(self):
        cube, labels, split = overfit_scene()
        model = build_model(ModelConfig(cube.bands, 9, 7), 3)
        norm = normalize(cube, split)
        coords = [(r, c) for r, c, _ in split.train]
        targets = np.asarray([k - 1 for _, _, k in split.train])
        patches = np.concatenate([extract_patch(norm, r, c, 7) for r, c in coords])

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

    def test_class_the_model_lacks_rejected_before_any_forward(self, monkeypatch):
        cube, labels, split = overfit_scene()  # labels hold classes 1-9
        model = build_model(ModelConfig(cube.bands, 2, 7), 0)
        r, c, k = next(e for e in split.train if e[2] > 2)
        ran = []
        monkeypatch.setattr(training, "forward", lambda *args, **kw: ran.append(args))
        with pytest.raises(MismatchError, match=rf"^pixel \({r}, {c}\) is labeled {k}, "
                                                r"but the model has 2 classes$"):
            train(model, cube, labels, split, TrainConfig(epochs=1), OptimizerState())
        assert ran == []

    def test_epochs_invariant(self):
        with pytest.raises(ConfigError):
            TrainConfig(epochs=0)

    def test_log_every_invariant(self):
        with pytest.raises(ConfigError, match="^log_every"):
            TrainConfig(log_every=0)


class TestGradientClip:
    def test_long_gradients_scale_to_the_clip_norm(self):
        rng = np.random.default_rng(60)
        grads = {"a": rng.standard_normal((3, 4)).astype(np.float32),
                 "b": rng.standard_normal(5).astype(np.float32)}
        want = {name: g.astype(np.float64) for name, g in grads.items()}
        total = np.sqrt(sum((g ** 2).sum() for g in want.values()))
        grads = {name: g * np.float32(4 * training.CLIP_NORM / total)
                 for name, g in grads.items()}
        training._clip_gradients(grads, ["a", "b"])
        norm = np.sqrt(sum((g.astype(np.float64) ** 2).sum() for g in grads.values()))
        assert norm == pytest.approx(training.CLIP_NORM, rel=1e-6)
        for name, g in grads.items():
            assert g.dtype == np.float32
            np.testing.assert_allclose(g, want[name] * training.CLIP_NORM / total, rtol=1e-5)

    def test_short_gradients_keep_their_bits(self):
        grads = {"a": np.full((2, 3), 0.5, np.float32), "b": np.ones(4, np.float32)}
        before = {name: g.tobytes() for name, g in grads.items()}
        training._clip_gradients(grads, ["a", "b"])  # norm sqrt(5.5) < 5
        assert {name: g.tobytes() for name, g in grads.items()} == before

    def _scene(self):
        """The 103-band striped scene split 64 per class, 2,124 pixels held out."""
        cube, labels = striped_scene(bands=103, per_class=300)
        return cube, labels, stratified_split(labels, 64, seed=0)

    def test_defaults_finish_an_epoch_at_103_bands(self):
        # without the clip, seeds 0-3 all stop with E_NUMERIC in epoch 1
        cube, labels, split = self._scene()
        for seed in range(4):
            model = build_model(ModelConfig(103, 9, 7), seed)
            history = train(model, cube, labels, split, TrainConfig(epochs=1),
                            OptimizerState())
            assert np.isfinite(history[0]["mean_loss"]), seed

    def test_defaults_learn_the_103_band_scene(self):
        # the bar was fixed before this test ran: 8 seeds probed 0.983-0.996
        cube, labels, split = self._scene()
        model = build_model(ModelConfig(103, 9, 7), 0)
        train(model, cube, labels, split, TrainConfig(epochs=10), OptimizerState())
        matrix = evaluate(model, normalize(cube, split), labels, split.test)
        assert matrix.total == 2124
        assert overall_accuracy(matrix) >= 0.95


def train_digest(out_dir):
    """sha256 of the history and checkpoint of a small two-epoch run whose
    batches of 64, 64 and 52 samples each make two shards."""
    cube, labels = striped_scene(per_class=100, seed=31)
    split = stratified_split(labels, 20, seed=32)
    model = build_model(ModelConfig(cube.bands, 9, 7), 33)
    ckpt = os.path.join(out_dir, "m.ckpt.json")
    hist = os.path.join(out_dir, "history.jsonl")
    train(model, cube, labels, split, TrainConfig(epochs=2, shuffle_seed=34),
          OptimizerState(), checkpoint_path=ckpt, history_path=hist)
    h = hashlib.sha256()
    for path in (hist, ckpt, os.path.join(out_dir, "m.ckpt.raw")):
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def inference_digest(out_dir):
    """sha256 of the map PPM and the eval report the CLI writes for a
    seeded 103-band scene and an untrained model."""
    rng = np.random.default_rng(48)
    shape = (3 * STEP + 1, STRIP + 5)
    cube = HsiCube(values=rng.random((*shape, 103), dtype=np.float32))
    labels = LabelGrid(labels=rng.integers(1, 5, size=shape).astype(np.uint8))
    paths = {name: os.path.join(out_dir, name) for name in
             ("s.hsc.json", "s.lbl.json", "s.split.json", "m.ckpt.json", "map.ppm",
              "report.json")}
    save_cube(cube, paths["s.hsc.json"])
    save_labels(labels, paths["s.lbl.json"])
    save_split(stratified_split(labels, 3, seed=49), paths["s.split.json"])
    save_checkpoint(build_model(ModelConfig(103, 4, 7), 50), paths["m.ckpt.json"])
    common = ["--checkpoint", paths["m.ckpt.json"], "--cube", paths["s.hsc.json"],
              "--split", paths["s.split.json"]]
    assert main(["predict-map", *common, "--out", paths["map.ppm"]]) == 0
    assert main(["eval", *common, "--labels", paths["s.lbl.json"],
                 "--out", paths["report.json"]]) == 0
    h = hashlib.sha256()
    for name in ("map.ppm", "report.json"):
        with open(paths[name], "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def run_python(args, **env):
    """Run a fresh interpreter on args, with src/ and this directory on its
    path and env added to its environment."""
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, here]), **env)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=300, check=False)


def assert_same_digest_at_one_and_two_blas_threads(tmp_path, digest):
    """Run this module's digest(out_dir) in a fresh interpreter at
    OPENBLAS_NUM_THREADS=1 and at =2; each must see its thread count and
    print the same digest."""
    script = ("import sys; from specnet3d.parallel import blas_threads; "
              f"from test_training import {digest}; "
              f"print(blas_threads(), {digest}(sys.argv[1]))")
    runs = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        out.mkdir()
        proc = run_python(["-c", script, str(out)], OPENBLAS_NUM_THREADS=threads)
        assert proc.returncode == 0, proc.stderr
        # the CLI's own output comes first; the count and digest are last
        runs.append(proc.stdout.split()[-2:])
    assert [count for count, _ in runs] == ["1", "2"]
    assert runs[0][1] == runs[1][1]


def openblas_core():
    """The name of the core type numpy's OpenBLAS picked its kernels for,
    or None where it cannot be read."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_corename64_", "openblas_get_corename64_",
                     "openblas_get_corename"):
            get = getattr(lib, name, None)
            if get is not None:
                get.restype = ctypes.c_char_p
                return get().decode()
    return None


def core_type_run(out_dir):
    """OpenBLAS's core name and the sha256 of the history and checkpoint of
    a short default-settings run on a well-separated 4-class scene; the
    scene's predict_map grid goes to out_dir/map.npy."""
    cube, labels = striped_scene(num_classes=4, per_class=100, bands=30, seed=61)
    split = stratified_split(labels, 20, seed=62)
    model = build_model(ModelConfig(cube.bands, 4, 7), 63)
    ckpt = os.path.join(out_dir, "m.ckpt.json")
    hist = os.path.join(out_dir, "history.jsonl")
    train(model, cube, labels, split, TrainConfig(epochs=5, batch_size=16, shuffle_seed=64),
          OptimizerState(), checkpoint_path=ckpt, history_path=hist)
    np.save(os.path.join(out_dir, "map.npy"), predict_map(model, normalize(cube, split)))
    h = hashlib.sha256()
    for path in (hist, ckpt, os.path.join(out_dir, "m.ckpt.raw")):
        with open(path, "rb") as fh:
            h.update(fh.read())
    return openblas_core(), h.hexdigest()


def has_avx2():
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        return False
    return bool(__cpu_features__.get("AVX2"))


class TestPortableBits:
    """The bits hold for one numpy build and one OpenBLAS core type; two
    core types may differ in trained bits, not in a clear prediction."""

    @pytest.mark.skipif(parallel._openblas() is None or openblas_core() is None
                        or not has_avx2(),
                        reason="needs numpy's OpenBLAS, its core name, and AVX2")
    def test_each_core_type_is_run_to_run_identical(self, tmp_path):
        script = ("import sys; from test_training import core_type_run; "
                  "print(*core_type_run(sys.argv[1]))")
        digests, grids = {}, {}
        for core in ("Haswell", "SandyBridge"):
            for run in range(2):
                out = tmp_path / f"{core}{run}"
                out.mkdir()
                proc = run_python(["-c", script, str(out)], OPENBLAS_CORETYPE=core)
                assert proc.returncode == 0, proc.stderr
                name, digest = proc.stdout.split()[-2:]
                assert name.lower() == core.lower()
                digests.setdefault(core, set()).add(digest)
                grids.setdefault(core, []).append(np.load(out / "map.npy"))
        assert all(len(seen) == 1 for seen in digests.values()), digests
        for core, (first, second) in grids.items():
            assert first.tobytes() == second.tobytes(), core
        cube, labels = striped_scene(num_classes=4, per_class=100, bands=30, seed=61)
        assert np.array_equal(grids["Haswell"][0], grids["SandyBridge"][0])
        assert np.mean(grids["Haswell"][0] == labels.labels) > 0.9


class TestShardedTraining:
    def test_bits_independent_of_worker_count(self, tmp_path, monkeypatch):
        digests = []
        for workers in (1, 3):
            monkeypatch.setattr(parallel, "workers", lambda: workers)
            out = tmp_path / str(workers)
            out.mkdir()
            digests.append(train_digest(out))
        assert digests[0] == digests[1]

    @pytest.mark.skipif(parallel._openblas() is None,
                        reason="without OpenBLAS's thread setter shards run on the "
                               "caller at its BLAS thread count")
    def test_bits_independent_of_openblas_threads(self, tmp_path):
        assert_same_digest_at_one_and_two_blas_threads(tmp_path, "train_digest")


class TestEvaluate:
    def test_eval_test_reads_the_split_once_per_run(self, monkeypatch, tmp_path):
        # each epoch's evaluation, and the report without them, counts over
        # the rows train checked before its first step: one read per side,
        # one for normalize
        cube, labels, split = overfit_scene()
        split = SplitManifest(seed=0, train=split.train[:18], test=split.train[18:])
        reads = []
        for module in (data, training):
            def counting(*args, _read=module._pixel_rows):
                reads.append(args)
                return _read(*args)
            monkeypatch.setattr(module, "_pixel_rows", counting)
        counts = []
        for epochs, eval_test in ((1, False), (1, True), (3, True)):
            reads.clear()
            model = build_model(ModelConfig(cube.bands, 9, 7), 3)
            history = train(model, cube, labels, split, TrainConfig(epochs=epochs),
                            OptimizerState(), eval_test=eval_test,
                            report_path=None if eval_test else tmp_path / "report.json")
            counts.append(len(reads))
        assert counts == [3, 3, 3]
        matrix = evaluate(model, normalize(cube, split), labels, split.test)
        assert history[-1]["test_overall_accuracy"] == overall_accuracy(matrix)

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

    def test_class_the_model_lacks_rejected_before_any_strip(self, monkeypatch):
        cube, labels, split = overfit_scene()
        model = build_model(ModelConfig(cube.bands, 2, 7), 0)
        r, c, k = next(e for e in split.train if e[2] > 2)
        ran = []
        monkeypatch.setattr(network, "stream", lambda *args: ran.append(args) or iter(()))
        with pytest.raises(MismatchError, match=rf"^pixel \({r}, {c}\) is labeled {k}, "
                                                r"but the model has 2 classes$"):
            evaluate(model, cube, labels, split.train)
        assert ran == []

    def test_empty_pixel_set_rejected(self):
        cube, labels, _ = overfit_scene()
        model = build_model(ModelConfig(cube.bands, 9, 7), 0)
        with pytest.raises(ConfigError, match="empty"):
            evaluate(model, cube, labels, [])

    @pytest.mark.parametrize("pixel", [(-1, 0), (0, -1), (8, 0), (0, 4)])
    def test_pixel_outside_scene_rejected(self, pixel):
        cube, labels, _ = overfit_scene()  # 8x4
        model = build_model(ModelConfig(cube.bands, 9, 7), 0)
        with pytest.raises(SplitError, match="outside"):
            evaluate(model, cube, labels, [pixel])


# a 6x5 grid of classes 0-4 for the pixel-set rule's differential test
RULE_GRID = LabelGrid(labels=np.random.default_rng(70).integers(0, 5, (6, 5)).astype(np.uint8))


@st.composite
def pixel_sets(draw):
    """Pairs and triples inside and outside RULE_GRID (negative indices
    too), unlabeled, listed as their own class or as any class 1-5, as
    Python ints or numpy integers."""
    height, width = RULE_GRID.labels.shape
    entries = []
    for _ in range(draw(st.integers(0, 10))):
        row = draw(st.integers(0, height - 1) | st.integers(-3, height + 2))
        col = draw(st.integers(0, width - 1) | st.integers(-3, width + 2))
        kind = draw(st.sampled_from(["pair", "own class", "any class"]))
        entry = (row, col)
        if kind != "pair":
            inside = 0 <= row < height and 0 <= col < width
            own = int(RULE_GRID.labels[row, col]) if inside else 0
            entry += (own if kind == "own class" and own else draw(st.integers(1, 5)),)
        entries.append(tuple(map(np.int64, entry)) if draw(st.booleans()) else entry)
    return entries


class TestPixelSetRule:
    @settings(max_examples=300, deadline=None)
    @given(entries=pixel_sets(), classes=st.integers(1, 5))
    def test_check_matches_the_per_entry_reference(self, entries, classes):
        try:
            want = [check_pixel(RULE_GRID, classes, e) for e in entries]
        except SpecnetError as exc:
            with pytest.raises(SpecnetError) as got:
                training._labeled_rows(RULE_GRID, classes, entries)
            assert (type(got.value), str(got.value)) == (type(exc), str(exc))
        else:
            rows = training._labeled_rows(RULE_GRID, classes, entries)
            assert rows.dtype == np.int64 and rows.shape == (len(entries), 3)
            assert rows.tolist() == [list(t) for t in want]

    def test_matrix_is_the_per_pixel_count(self, monkeypatch):
        # pairs and repeated pixels among triples; the matrix comes in one
        # count, not pixel by pixel through ConfusionMatrix.add
        cube, labels, split = overfit_scene()
        labels.class_names = [f"c{k}" for k in range(1, 10)]
        model = build_model(ModelConfig(cube.bands, 9, 7), 12)
        pixels = split.train + [(r, c) for r, c, _ in split.train[::3]] + split.train[:5]
        grid = predict_map(model, cube)
        want = ConfusionMatrix.zeros(9)
        for r, c, *_ in pixels:
            want.add(int(labels.labels[r, c]), int(grid[r, c]))
        monkeypatch.setattr(ConfusionMatrix, "add", None)
        got = evaluate(model, cube, labels, pixels)
        assert np.array_equal(got.counts, want.counts) and got.counts.dtype == np.int64
        assert got.class_names == labels.class_names

    @pytest.mark.parametrize("bad", [
        (0.9, 0.9, 1), ("1", 0), (0, 0, True), (0, 0, 1, 99), (0,), (None, 0), (0, 0, 0),
        (0, 0, -1), (2**63, 0), "argwhere",
    ], ids=["float", "string", "bool class", "length 4", "length 1", "None", "class 0",
            "class -1", "index past int64", "argwhere array"])
    def test_refused_with_the_error_save_split_gives(self, bad, tmp_path):
        cube, labels, split = overfit_scene()
        model = build_model(ModelConfig(cube.bands, 9, 7), 0)

        def side(good):
            return np.argwhere(labels.labels > 0) if bad == "argwhere" else [good, bad]

        def refusal(call):
            with pytest.raises(FormatError) as exc:
                call()
            return str(exc.value)

        for name in ("train", "test"):
            sides = {"train": split.train, "test": split.train[:2], name: side((1, 1, 6))}
            saved = refusal(lambda: save_split(SplitManifest(seed=0, **sides),
                                               tmp_path / "s.split.json"))
            assert f"split header field {name!r}" in saved or f"split {name} " in saved
            manifest = SplitManifest(seed=0, **sides)
            assert refusal(lambda: train(model, cube, labels, manifest, TrainConfig(epochs=1),
                                         OptimizerState())) == saved
            if name == "train":
                assert refusal(lambda: normalize(cube, manifest)) == saved
                pixel_set = (saved.replace(f"split header field {name!r}", "pixel set")
                             .replace(f"split {name} ", "pixel set "))
                assert refusal(lambda: evaluate(model, cube, labels, side((1, 1, 6)))) == pixel_set
        assert list(tmp_path.iterdir()) == []


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
    """(height, width, classes) logits streamed from every step of every
    strip, and each step's logits bytes keyed by (row, col)."""
    out = np.empty((cube.height, cube.width, model.config.num_classes), np.float32)
    steps = {}
    for col in range(0, cube.width, STRIP):
        for row, logits in stream(model, cube.values, col, range(-(-cube.height // STEP))):
            out[row:row + logits.shape[0], col:col + logits.shape[1]] = logits
            steps[row, col] = logits.tobytes()
    return out, steps


def _recording_stream(monkeypatch, record):
    """Patch network's stream to call record(col, row, logits) on every
    step it yields."""
    original = network.stream

    def recording(model, values, col, steps):
        for row, logits in original(model, values, col, steps):
            record(col, row, logits)
            yield row, logits

    monkeypatch.setattr(network, "stream", recording)


class TestDenseInference:
    # a scene inside one step of one strip, one not a multiple of the strip
    # or the step on either axis, a single row and a single column, each
    # at windows 5 and 7
    @pytest.mark.parametrize("window", [5, 7])
    @pytest.mark.parametrize("shape", [
        (STEP - 1, STRIP - 2),
        (3 * STEP + 3, STRIP + 5),
        (1, 2 * STRIP + 3),
        (3 * STEP + 3, 1),
    ])
    def test_matches_patch_forward(self, shape, window):
        rng = np.random.default_rng(40)
        cube = HsiCube(values=rng.standard_normal((*shape, 10)).astype(np.float32))
        model = build_model(ModelConfig(10, 5, window), 41)
        dense, _ = _scene_logits(model, cube)
        patches = np.concatenate([
            extract_patch(cube, r, c, window)
            for r in range(cube.height) for c in range(cube.width)
        ])
        patch_logits, _ = forward(model, patches)
        patch_logits = patch_logits.reshape(dense.shape)
        np.testing.assert_allclose(dense, patch_logits, rtol=1e-4, atol=1e-5)
        assert np.array_equal(dense.argmax(axis=2), patch_logits.argmax(axis=2))

    # at window 11 the classifier's window is 7 x 7 and its line buffer
    # holds more rows than one step gives
    @pytest.mark.parametrize("window", [5, 7, 11])
    def test_run_started_mid_strip_is_bitwise_the_full_strip(self, window):
        # every step alone, and every run from a later step to the end,
        # against the run down the whole strip; an edge strip as well
        rng = np.random.default_rng(42)
        shape = (4 * STEP + 3, STRIP + 5)
        cube = HsiCube(values=rng.standard_normal((*shape, 10)).astype(np.float32))
        model = build_model(ModelConfig(10, 4, window), 43)
        _, full = _scene_logits(model, cube)
        count = -(-shape[0] // STEP)
        for col in (0, STRIP):
            for first in range(count):
                for steps in ([first], range(first, count)):
                    got = list(stream(model, cube.values, col, steps))
                    assert [row for row, _ in got] == [i * STEP for i in steps]
                    for row, logits in got:
                        assert logits.tobytes() == full[row, col], (row, col)

    def test_prediction_independent_of_requested_pixels(self, monkeypatch):
        # evaluate runs only the steps its pixels need, and their logits are
        # bitwise predict_map's
        rng = np.random.default_rng(44)
        shape = (4 * STEP + 3, 2 * STRIP + 1)
        cube = HsiCube(values=rng.standard_normal((*shape, 10)).astype(np.float32))
        labels = LabelGrid(labels=rng.integers(1, 5, size=shape).astype(np.uint8))
        model = build_model(ModelConfig(10, 4, 7), 45)

        steps = {}
        _recording_stream(monkeypatch, lambda col, row, logits:
                          steps.setdefault((row, col), logits.tobytes()))
        grid = predict_map(model, cube)
        full_pass = dict(steps)
        # at window 7 the classifier reads 3 x 3 block-4 positions and
        # Conv2 3 x 3 block-1 positions, so blocks 2-4 run 2 rows behind
        # the classifier, and block 1 another 2 rows behind them
        warmup = {"Conv1": -(-4 // STEP), "Conv2": -(-2 // STEP), "FC": 0}
        ran = []
        block = network._block
        classify = network._classify
        monkeypatch.setattr(network, "_block", lambda b, *args, **kwargs: (
            ran.append(b.main.name), block(b, *args, **kwargs))[1])
        monkeypatch.setattr(network, "_classify", lambda *args: (
            ran.append("FC"), classify(*args))[1])

        def from_grid(pixels):
            matrix = ConfusionMatrix.zeros(model.config.num_classes)
            for r, c, cls in pixels:
                matrix.add(cls, int(grid[r, c]))
            return matrix.counts

        everything = [(r, c, int(labels.labels[r, c]))
                      for r in range(shape[0]) for c in range(shape[1])]
        chosen = rng.choice(len(everything), size=len(everything) // 7, replace=False)
        subset = [everything[i] for i in sorted(chosen)]
        # single pixels run their step alone; the last step is clipped on
        # both axes
        singles = [[everything[r * shape[1] + c]] for r, c in
                   [(0, 0), (2 * STEP, STRIP - 1), (shape[0] - 1, shape[1] - 1)]]
        for pixels in singles + [subset, everything]:
            steps.clear()
            ran.clear()
            counts = evaluate(model, cube, labels, pixels).counts
            assert np.array_equal(counts, from_grid(pixels))
            wanted = {(r - r % STEP, c - c % STRIP) for r, c, _ in pixels}
            assert set(steps) == wanted
            for origin, logits in steps.items():
                assert logits == full_pass[origin], origin
            for name, back in warmup.items():
                runs = set()
                for row, col in wanted:
                    runs.update((i, col) for i in range(row // STEP - back, row // STEP + 1))
                assert ran.count(name) == len(runs), name

    @pytest.mark.parametrize("window", [5, 7, 9, 11])
    def test_stages_match_the_shape_trace(self, window):
        # the stream reads its stages off the main convs; the shape trace
        # derives the same rows from the whole architecture
        model = build_model(ModelConfig(10, 4, window), 0)
        trace = dict(shape_trace(model.config))
        size, expected = window, []
        for block in model.blocks:
            rows = trace[block.main.name][1]
            if rows < size or not expected:
                expected.append(([], size - rows))
            expected[-1][0].append(block.main.name)
            size = rows
        expected.append(([], size - 1))
        got = [([b.main.name for b in blocks], shrink)
               for blocks, shrink in network._stages(model)]
        assert got == expected

    def test_inference_builds_no_model(self, monkeypatch):
        cube, labels, split = overfit_scene()
        model = build_model(ModelConfig(cube.bands, 9, 7), 8)

        def refuse(*args, **kwargs):
            raise AssertionError("inference assembled a model")

        for name in ("_walk", "_assemble"):
            monkeypatch.setattr(network, name, refuse)
        assert predict_map(model, cube).shape == labels.labels.shape
        assert evaluate(model, cube, labels, split.train).counts.sum() == len(split.train)

    def test_working_set_bounded_by_strip(self, monkeypatch):
        # one step's working set outweighs a padded copy of a 96x96 scene;
        # 192x192 is large enough for a scene-sized copy to break the bound.
        # One worker, so a peak does not depend on how many strips happened
        # to run at once.  Each side's least peak over three calls: every
        # read of a 5-axis array's __array_interface__ (as_strided reads it)
        # adds and drops an entry of CPython's ~1 MB table of interned
        # strings, so every few ten thousand reads the table is rebuilt,
        # and the call that rebuilds it also holds the new copy
        monkeypatch.setattr(parallel, "workers", lambda: 1)
        rng = np.random.default_rng(46)
        model = build_model(ModelConfig(16, 4, 7), 47)
        peaks = []
        for side in (24, 96, 192):
            cube = HsiCube(values=rng.standard_normal((side, side, 16)).astype(np.float32))
            calls = []
            for _ in range(3):
                tracemalloc.start()
                try:
                    predict_map(model, cube)
                    calls.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            peaks.append(min(calls))
        assert max(peaks[1:]) <= 1.5 * peaks[0], peaks


class TestParallelInference:
    def test_bits_independent_of_worker_count(self, monkeypatch):
        # clipped edge steps on both axes, and 3 workers start more threads
        # than a 2-CPU host has cores
        rng = np.random.default_rng(51)
        shape = (3 * STEP + 3, 4 * STRIP + 1)
        cube = HsiCube(values=rng.standard_normal((*shape, 10)).astype(np.float32))
        labels = LabelGrid(labels=rng.integers(1, 5, size=shape).astype(np.uint8))
        model = build_model(ModelConfig(10, 4, 7), 52)
        pixels = [(r, c, int(labels.labels[r, c]))
                  for r in range(shape[0]) for c in range(shape[1])]
        results = []
        steps, threads = {}, set()

        def record(col, row, logits):
            steps[row, col] = logits.tobytes()
            threads.add(threading.get_ident())

        _recording_stream(monkeypatch, record)
        for workers in (1, 3):
            monkeypatch.setattr(parallel, "workers", lambda: workers)
            steps.clear()
            threads.clear()
            grid = predict_map(model, cube)
            map_steps = dict(steps)
            steps.clear()
            counts = evaluate(model, cube, labels, pixels).counts
            assert steps == map_steps
            if parallel._openblas() is not None:
                assert (len(threads) > 1) == (workers > 1)
            results.append((grid.tobytes(), counts.tobytes(), map_steps))
        assert results[0] == results[1]

    @pytest.mark.skipif(parallel._openblas() is None,
                        reason="without OpenBLAS's thread setter strips run on the "
                               "caller at its BLAS thread count")
    def test_bits_independent_of_openblas_threads(self, tmp_path):
        assert_same_digest_at_one_and_two_blas_threads(tmp_path, "inference_digest")

    @pytest.mark.skipif(parallel._openblas() is None,
                        reason="without OpenBLAS's thread setter nothing is pinned")
    def test_overlapping_passes_match_a_lone_pass(self, monkeypatch):
        # two passes over one model and one cube, each holding its first
        # strip until the other reaches its own, so both sit inside fan_out
        # at once: their pins overlap rather than nest
        rng = np.random.default_rng(55)
        shape = (2 * STEP + 1, 2 * STRIP + 3)
        cube = HsiCube(values=rng.standard_normal((*shape, 10)).astype(np.float32))
        model = build_model(ModelConfig(10, 3, 7), 56)
        monkeypatch.setattr(parallel, "workers", lambda: 2)
        lone = predict_map(model, cube)
        before = parallel.blas_threads()
        barrier = threading.Barrier(2, timeout=30)
        original = network.stream
        pins = []

        def meeting(model, values, col, steps):
            if col == 0:
                barrier.wait()
                pins.append((parallel._pins, parallel.blas_threads()))
                barrier.wait()  # neither pass leaves before both have read
            return original(model, values, col, steps)

        monkeypatch.setattr(network, "stream", meeting)
        with ThreadPoolExecutor(2) as pool:
            grids = list(pool.map(lambda _: predict_map(model, cube), range(2)))
        assert pins == [(2, 1)] * 2
        assert [grid.tobytes() for grid in grids] == [lone.tobytes()] * 2
        assert parallel.blas_threads() == before

    @pytest.mark.skipif(parallel._openblas() is None,
                        reason="without OpenBLAS's thread setter nothing is pinned")
    def test_blas_threads_restored_after_a_strip_raises(self, monkeypatch):
        rng = np.random.default_rng(53)
        shape = (2 * STEP, 2 * STRIP)
        cube = HsiCube(values=rng.standard_normal((*shape, 10)).astype(np.float32))
        labels = LabelGrid(labels=np.ones(shape, dtype=np.uint8))
        model = build_model(ModelConfig(10, 2, 7), 54)
        monkeypatch.setattr(parallel, "workers", lambda: 2)
        before = parallel.blas_threads()
        original = network.stream
        during = []

        def failing_at_second_strip(model, values, col, steps):
            during.append(parallel.blas_threads())
            if col == STRIP:  # the second strip, in its own job
                raise RuntimeError("strip failed")
            return original(model, values, col, steps)

        monkeypatch.setattr(network, "stream", failing_at_second_strip)
        with pytest.raises(RuntimeError, match="strip failed"):
            predict_map(model, cube)
        assert parallel.blas_threads() == before
        with pytest.raises(RuntimeError, match="strip failed"):
            evaluate(model, cube, labels, [(shape[0] - 1, shape[1] - 1)])
        assert parallel.blas_threads() == before
        assert during == [1] * 3
