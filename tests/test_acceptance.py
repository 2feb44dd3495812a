"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Criterion 9 needs the converted full-size scenes and is skipped
unless SPECNET3D_PAVIA_DIR is set (see README).
"""

import collections
import hashlib
import os
import time
from fractions import Fraction

import numpy as np
import pytest

from specnet3d.data import normalize, stratified_split
from specnet3d.metrics import ConfusionMatrix, kappa, overall_accuracy
from specnet3d.network import (
    ModelConfig,
    backward,
    build_model,
    forward,
    param_count,
    shape_trace,
)
from specnet3d.ops import (
    avgpool3d_backward,
    avgpool3d_forward,
    conv3d_backward,
    linear_backward,
    linear_forward,
    relu,
    relu_backward,
    softmax_cross_entropy,
)
from specnet3d.tensor import Conv3dSpec, Pool3dSpec
from specnet3d.training import OptimizerState, TrainConfig, evaluate, train

from oracles import (
    assert_close,
    conv3d_forward,
    conv3d_reference,
    finite_difference,
    residual_grads,
)
from synth import overfit_scene, striped_scene
from test_metrics import UNIVERSITY_MATRIX


def report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


class Stopwatch:
    def __init__(self, budget_s):
        self.budget = budget_s
        self.start = time.perf_counter()

    def done(self):
        elapsed = time.perf_counter() - self.start
        assert elapsed < self.budget, f"{elapsed:.1f}s exceeded {self.budget}s budget"
        return elapsed


def test_criterion_1_parameter_ledger(capsys):
    watch = Stopwatch(1.0)
    want = [560, 420, 18935, 1260, 3710, 1260, 2485, 1260]
    for bands in (102, 103):
        model = build_model(ModelConfig(bands, 9, 7), 0)
        counts, conv_total, _ = param_count(model)
        got = [counts[n] for n in ("Conv1", "Conv1_1", "Conv2", "Conv2_1",
                                   "Conv3", "Conv3_1", "Conv4", "Conv4_1")]
        assert got == want, bands
        assert conv_total == 29890
    elapsed = watch.done()
    with capsys.disabled():
        report(1, f"per-layer counts {want}, total 29890 for S=102 and S=103, "
                  f"{elapsed:.2f}s")


def test_criterion_2_shape_trace(capsys):
    watch = Stopwatch(1.0)

    def floor_dim(size, k, s, p):
        return (size + 2 * p - k) // s + 1

    for bands in (102, 103):
        got = dict(shape_trace(ModelConfig(bands, 9, 7)))["flatten"]
        # independent re-derivation of the depth recurrence
        d = bands
        for k, s, p in ((3, 1, 0), (3, 2, 1), (3, 1, 0), (3, 2, 1), (3, 1, 1), (2, 2, 1)):
            d = floor_dim(d, k, s, p)
        assert got == 35 * 3 * 3 * d == 4095, bands
    elapsed = watch.done()
    with capsys.disabled():
        report(2, f"flattened length 4095 for S=102 and S=103, {elapsed:.2f}s")


def test_criterion_3_gradient_suite(capsys):
    watch = Stopwatch(60.0)
    rng = np.random.default_rng(1234)
    cases = 0

    # conv kernels, all coordinates, several seeded geometries
    for _ in range(5):
        dims = tuple(int(v) for v in rng.integers(2, 5, size=3))
        kernel = tuple(int(rng.integers(1, min(2, dd) + 1)) for dd in dims)
        stride = tuple(int(v) for v in rng.integers(1, 3, size=3))
        padding = tuple(int(v) for v in rng.integers(0, 2, size=3))
        cin = int(rng.integers(1, 3))
        cout = int(rng.integers(1, 3))
        x = rng.standard_normal((1, cin) + dims)
        spec = Conv3dSpec("g", cout, cin, kernel, stride, padding)
        spec.weights = rng.standard_normal((cout, cin) + kernel)
        spec.bias = rng.standard_normal(cout)
        up = rng.standard_normal((1, cout) + spec.output_dims(dims))

        def loss():
            return float((conv3d_forward(x, spec) * up).sum())

        gx, gw, gb = conv3d_backward(x, spec, up)
        fd = finite_difference(loss, [x, spec.weights, spec.bias])
        assert_close(gx, fd[0], 1e-3, "conv grad_x")
        assert_close(gw, fd[1], 1e-3, "conv grad_w")
        assert_close(gb, fd[2], 1e-3, "conv grad_b")
        cases += 1

    # pooling kernels
    for _ in range(5):
        dims = tuple(int(v) for v in rng.integers(2, 6, size=3))
        kernel = tuple(int(rng.integers(1, min(3, dd) + 1)) for dd in dims)
        stride = tuple(int(v) for v in rng.integers(1, 3, size=3))
        padding = tuple(int(rng.integers(0, k)) for k in kernel)
        spec = Pool3dSpec(kernel, stride, padding)
        x = rng.standard_normal((1, 2) + dims)
        up = rng.standard_normal((1, 2) + spec.output_dims(dims))

        def loss():
            return float((avgpool3d_forward(x, spec) * up).sum())

        g = avgpool3d_backward(x.shape, spec, up)
        assert_close(g, finite_difference(loss, [x])[0], 1e-3, "pool grad")
        cases += 1

    # relu away from the kink
    for _ in range(3):
        x = rng.standard_normal((1, 2, 3, 3, 3))
        x[np.abs(x) < 1e-3] = 0.25
        up = rng.standard_normal(x.shape)

        def loss():
            return float((relu(x) * up).sum())

        assert_close(relu_backward(x, up), finite_difference(loss, [x])[0],
                     1e-3, "relu grad")
        cases += 1

    # linear
    for _ in range(3):
        x = rng.standard_normal((2, 8))
        w = rng.standard_normal((5, 8))
        b = rng.standard_normal(5)
        up = rng.standard_normal((2, 5))

        def loss():
            return float((linear_forward(x, w, b) * up).sum())

        gx, gw, gb = linear_backward(x, w, up)
        fd = finite_difference(loss, [x, w, b])
        assert_close(gx, fd[0], 1e-3, "linear grad_x")
        assert_close(gw, fd[1], 1e-3, "linear grad_w")
        assert_close(gb, fd[2], 1e-3, "linear grad_b")
        cases += 1

    # softmax cross-entropy
    for _ in range(3):
        logits = rng.standard_normal((1, 9))
        target = [int(rng.integers(0, 9))]

        def loss():
            return softmax_cross_entropy(logits, target)[0][0]

        _, grad = softmax_cross_entropy(logits, target)
        assert_close(grad, finite_difference(loss, [logits])[0], 1e-3, "ce grad")
        cases += 1

    # whole shrunken model, spot-checked coordinates in every layer
    model = build_model(ModelConfig(20, 9, 7), 77)
    for block in model.blocks:
        block.main.weights = block.main.weights.astype(np.float64)
        block.main.bias = block.main.bias.astype(np.float64)
        block.proj.weights = block.proj.weights.astype(np.float64)
        block.proj.bias = block.proj.bias.astype(np.float64)
    model.fc_weights = model.fc_weights.astype(np.float64)
    model.fc_bias = model.fc_bias.astype(np.float64)
    x = rng.standard_normal((1, 1, 7, 7, 20))
    up = rng.standard_normal((1, 9))

    def model_loss():
        return float((forward(model, x)[0] * up).sum())

    _, cache = forward(model, x, keep_intermediates=True)
    grads = backward(model, cache, up)
    for name, arr in model.parameters().items():
        flat = arr.reshape(-1)
        for i in rng.choice(flat.size, size=min(3, flat.size), replace=False):
            v = float(flat[i])
            h = 1e-4 * max(1.0, abs(v))
            flat[i] = v + h
            fp = model_loss()
            flat[i] = v - h
            fm = model_loss()
            flat[i] = v
            assert_close(grads[name].reshape(-1)[i], (fp - fm) / (2 * h),
                         1e-3, f"{name}[{i}]")
        cases += 1

    assert cases >= 20
    elapsed = watch.done()
    with capsys.disabled():
        report(3, f"{cases} seeded gradient cases within 1e-3, {elapsed:.1f}s")


def test_criterion_4_convolution_oracle(capsys):
    watch = Stopwatch(10.0)
    rng = np.random.default_rng(4321)
    for case in range(100):
        dims = tuple(int(v) for v in rng.integers(2, 7, size=3))
        kernel = tuple(int(rng.integers(1, min(3, dd) + 1)) for dd in dims)
        stride = tuple(int(v) for v in rng.integers(1, 3, size=3))
        padding = tuple(int(v) for v in rng.integers(0, 2, size=3))
        n = int(rng.integers(1, 3))
        cin = int(rng.integers(1, 4))
        cout = int(rng.integers(1, 4))
        x = rng.standard_normal((n, cin) + dims).astype(np.float32)
        spec = Conv3dSpec("o", cout, cin, kernel, stride, padding)
        spec.weights = rng.standard_normal((cout, cin) + kernel).astype(np.float32)
        spec.bias = rng.standard_normal(cout).astype(np.float32)
        want = conv3d_reference(x, spec.weights, spec.bias, stride, padding)
        assert_close(conv3d_forward(x, spec), want, 1e-5, f"case {case}")
    elapsed = watch.done()
    with capsys.disabled():
        report(4, f"100 seeded configurations within 1e-5, {elapsed:.1f}s")


def test_criterion_5_residual_wiring(capsys):
    watch = Stopwatch(5.0)
    rng = np.random.default_rng(55)
    x = rng.standard_normal((2, 1, 7, 7, 20)).astype(np.float32)

    model = build_model(ModelConfig(20, 9, 7), 5)
    for block in model.blocks:
        block.proj.weights[:] = 0
        block.proj.bias[:] = 0
    out = x
    for block in model.blocks:
        out = relu(conv3d_forward(out, block.main))
        if block.pool is not None:
            out = avgpool3d_forward(out, block.pool)
    _, cache = forward(model, x, keep_intermediates=True)
    assert np.array_equal(cache["flat"], out.reshape(2, -1))

    model2 = build_model(ModelConfig(20, 9, 7), 6)
    up = rng.standard_normal((2, 9)).astype(np.float32)
    _, cache_skip = forward(model2, x, keep_intermediates=True)
    g_skip = backward(model2, cache_skip, up)
    reference = residual_grads(model2, x, up)
    assert all(np.array_equal(g_skip[k], reference[k]) for k in reference)
    g_plain = residual_grads(model2, x, up, skip=False)
    changed = [
        name for name in ("Conv1", "Conv2", "Conv3", "Conv4")
        if not np.array_equal(g_skip[f"{name}.weight"], g_plain[f"{name}.weight"])
    ]
    assert changed
    elapsed = watch.done()
    with capsys.disabled():
        report(5, f"zeroed projections leave the skip path bitwise; ablation "
                  f"changes {changed}, {elapsed:.1f}s")


def test_criterion_6_metrics_oracle(capsys):
    watch = Stopwatch(5.0)
    m = ConfusionMatrix(UNIVERSITY_MATRIX)
    total = sum(sum(r) for r in UNIVERSITY_MATRIX)
    diag = sum(UNIVERSITY_MATRIX[i][i] for i in range(9))
    independent_oa = float(Fraction(diag, total))
    assert abs(overall_accuracy(m) - independent_oa) < 1e-12
    assert abs(overall_accuracy(m) - 0.9815) < 1e-4

    assert kappa(ConfusionMatrix(np.diag([3, 7, 11]))) == 1.0
    assert kappa(ConfusionMatrix([[25, 25], [25, 25]])) == 0.0

    rng = np.random.default_rng(66)
    checked = 0
    while checked < 1000:
        c = int(rng.integers(2, 8))
        counts = rng.integers(0, 40, size=(c, c))
        mm = ConfusionMatrix(counts)
        if mm.total == 0:
            continue
        rows = counts.sum(axis=1)
        cols = counts.sum(axis=0)
        if (rows * cols).sum() == mm.total * mm.total:
            continue
        assert -1.0 <= kappa(mm) <= 1.0
        checked += 1
    elapsed = watch.done()
    with capsys.disabled():
        report(6, f"fixture OA {overall_accuracy(m):.4f}, kappa bounded over "
                  f"{checked} random matrices, {elapsed:.1f}s")


def test_criterion_7_learning_sanity(capsys):
    watch = Stopwatch(300.0)

    cube, labels, split = overfit_scene()
    model = build_model(ModelConfig(cube.bands, 9, 7), 3)
    train(model, cube, labels, split, TrainConfig(epochs=200, shuffle_seed=5),
          OptimizerState())
    norm = normalize(cube, split)
    overfit_oa = overall_accuracy(evaluate(model, norm, labels, split.train))
    assert overfit_oa == 1.0

    cube2, labels2 = striped_scene()
    split2 = stratified_split(labels2, 200, seed=4)
    assert all(v == 200 for v in collections.Counter(k for _, _, k in split2.train).values())
    model2 = build_model(ModelConfig(cube2.bands, 9, 7), 3)
    train(model2, cube2, labels2, split2, TrainConfig(epochs=100, shuffle_seed=5),
          OptimizerState())
    norm2 = normalize(cube2, split2)
    test_oa = overall_accuracy(evaluate(model2, norm2, labels2, split2.test))
    assert test_oa >= 0.95
    elapsed = watch.done()
    with capsys.disabled():
        report(7, f"overfit fixture 100% train accuracy; separable dataset "
                  f"test OA {test_oa:.4f} at default hyperparameters, {elapsed:.0f}s")


def test_criterion_8_determinism(tmp_path, capsys):
    watch = Stopwatch(120.0)
    from specnet3d.metrics import write_report

    cube, labels, split = overfit_scene()
    digests = []
    for run in ("a", "b"):
        model = build_model(ModelConfig(cube.bands, 9, 7), 11)
        ckpt = tmp_path / f"{run}.ckpt.json"
        hist = tmp_path / f"{run}.jsonl"
        history = train(model, cube, labels, split,
                        TrainConfig(epochs=6, shuffle_seed=21), OptimizerState(),
                        checkpoint_path=ckpt, history_path=hist)
        norm = normalize(cube, split)
        matrix = evaluate(model, norm, labels, split.train)
        rpt = tmp_path / f"{run}.report.json"
        write_report(matrix, rpt, history=history)
        digests.append(tuple(
            hashlib.sha256(p.read_bytes()).hexdigest()
            for p in (ckpt, tmp_path / f"{run}.ckpt.raw", hist, rpt)
        ))
    assert digests[0] == digests[1]
    elapsed = watch.done()
    with capsys.disabled():
        report(8, f"checkpoint, history, and report digests identical across "
                  f"two runs, {elapsed:.0f}s")


@pytest.mark.skipif(
    "SPECNET3D_PAVIA_DIR" not in os.environ,
    reason="full-scale reproduction needs converted scenes in SPECNET3D_PAVIA_DIR",
)
def test_criterion_9_full_scale_reproduction(tmp_path, capsys):
    """200-per-class, 100-epoch protocol on the converted public scenes.

    Expected to land within +/-2.5 accuracy points of the published 94.19
    (university) / 98.46 (center) and +/-0.03 of kappa 0.924 / 0.978; any
    residual gap is reported, not tuned away.
    """
    from specnet3d.data import load_cube, load_labels

    base = os.environ["SPECNET3D_PAVIA_DIR"]
    targets = {"paviau": (0.9419, 0.924), "paviac": (0.9846, 0.978)}
    for scene, (want_oa, want_kappa) in targets.items():
        cube_path = os.path.join(base, f"{scene}.hsc.json")
        labels_path = os.path.join(base, f"{scene}.lbl.json")
        if not (os.path.exists(cube_path) and os.path.exists(labels_path)):
            pytest.skip(f"{scene} not present in SPECNET3D_PAVIA_DIR")
        cube = load_cube(cube_path)
        labels = load_labels(labels_path)
        split = stratified_split(labels, 200, seed=0)
        model = build_model(
            ModelConfig(cube.bands, labels.num_classes, 7), 0
        )
        train(model, cube, labels, split, TrainConfig(epochs=100, shuffle_seed=0),
              OptimizerState())
        norm = normalize(cube, split)
        matrix = evaluate(model, norm, labels, split.test)
        oa = overall_accuracy(matrix)
        k = kappa(matrix)
        with capsys.disabled():
            print(f"ACCEPTANCE 9 [{scene}]: OA {oa:.4f} (target {want_oa}"
                  f" +/- 0.025), kappa {k:.4f} (target {want_kappa} +/- 0.03)")
        assert abs(oa - want_oa) <= 0.025
        assert abs(k - want_kappa) <= 0.03
