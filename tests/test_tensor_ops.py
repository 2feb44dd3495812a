import numpy as np
import pytest

from specnet3d.errors import MismatchError, ShapeError
from specnet3d.network import _BLOCK_PLAN
from specnet3d.ops import (
    avgpool3d_backward,
    avgpool3d_forward,
    conv3d_backward,
    conv3d_forward,
    linear_backward,
    linear_forward,
    relu,
    relu_backward,
    softmax_cross_entropy,
)
from specnet3d.tensor import Conv3dSpec, Pool3dSpec, as_tensor5, out_dim

from oracles import (
    assert_close,
    avgpool3d_reference,
    channels_last,
    conv3d_reference,
    finite_difference,
)

# (kernel, stride, padding) of every main conv, plus the 1x1x1 projections
BLOCK_GEOMETRIES = sorted(
    {(kernel, stride, padding) for _, _, kernel, stride, padding, _ in _BLOCK_PLAN}
    | {((1, 1, 1), (1, 1, 1), (0, 0, 0))}
)


def random_conv(rng, n, cin, cout, dims, kernel, stride=(1, 1, 1), padding=(0, 0, 0),
                dtype=np.float32):
    x = rng.standard_normal((n, cin) + dims).astype(dtype)
    spec = Conv3dSpec(
        "test", cout, cin, kernel, stride, padding,
        weights=rng.standard_normal((cout, cin) + kernel).astype(dtype),
        bias=rng.standard_normal(cout).astype(dtype),
    )
    return x, spec


class TestOutDim:
    def test_basic_values(self):
        assert out_dim(102, 3, 1, 0) == 100
        assert out_dim(100, 3, 2, 1) == 50
        assert out_dim(5, 1, 1, 0) == 5

    def test_window_too_large_names_axis(self):
        with pytest.raises(ShapeError, match="depth"):
            out_dim(2, 5, 1, 1, axis="depth")

    def test_monotone_in_padding(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            size = int(rng.integers(1, 40))
            k = int(rng.integers(1, 6))
            s = int(rng.integers(1, 4))
            p = int(rng.integers(0, 4))
            if size + 2 * p < k:
                continue
            assert out_dim(size, k, s, p + 1) >= out_dim(size, k, s, p)


class TestTensor5:
    def test_rejects_wrong_rank(self):
        with pytest.raises(ShapeError):
            as_tensor5(np.zeros((2, 3, 4)))

    def test_rejects_nonfinite_when_asked(self):
        x = np.zeros((1, 1, 2, 2, 2), dtype=np.float32)
        x[0, 0, 0, 0, 0] = np.nan
        with pytest.raises(ShapeError):
            as_tensor5(x, check_finite=True)

    def test_spec_parameter_count(self):
        spec = Conv3dSpec("c", 35, 20, (3, 3, 3))
        assert spec.parameter_count() == 35 * (20 * 27 + 1)

    def test_pool_error_names_stage(self):
        with pytest.raises(ShapeError, match="Pool2 depth"):
            Pool3dSpec((1, 1, 3), (1, 1, 2), name="Pool2").output_dims((3, 3, 2))

    def test_pool_padding_must_stay_below_kernel(self):
        with pytest.raises(ShapeError):
            Pool3dSpec((1, 1, 3), (1, 1, 2), (0, 0, 3))


class TestConv3dForward:
    def test_identity_kernel(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((2, 1, 3, 4, 5)).astype(np.float32)
        spec = Conv3dSpec("id", 1, 1, (1, 1, 1), weights=np.ones((1, 1, 1, 1, 1), np.float32))
        assert np.array_equal(conv3d_forward(x, spec), x)

    def test_zero_weights_give_bias(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((1, 3, 4, 4, 6)).astype(np.float32)
        spec = Conv3dSpec("zb", 2, 3, (3, 3, 3),
                          bias=np.asarray([1.5, -2.0], dtype=np.float32))
        out = conv3d_forward(x, spec)
        assert np.array_equal(out[:, 0], np.full_like(out[:, 0], 1.5))
        assert np.array_equal(out[:, 1], np.full_like(out[:, 1], -2.0))

    def test_matches_nested_loop_oracle(self):
        rng = np.random.default_rng(3)
        x, spec = random_conv(rng, 1, 1, 2, (5, 5, 5), (3, 3, 3))
        want = conv3d_reference(x, spec.weights, spec.bias, spec.stride, spec.padding)
        assert_close(conv3d_forward(x, spec), want, 1e-5, "5x5x5 oracle")

    def test_table_row_shape(self):
        rng = np.random.default_rng(4)
        x, spec = random_conv(rng, 1, 1, 20, (7, 7, 102), (3, 3, 3))
        assert conv3d_forward(x, spec).shape == (1, 20, 5, 5, 100)

    def test_channel_mismatch(self):
        rng = np.random.default_rng(5)
        x, spec = random_conv(rng, 1, 2, 2, (4, 4, 4), (3, 3, 3))
        with pytest.raises(ShapeError, match="channels"):
            conv3d_forward(x[:, :1], spec)

    def test_oracle_equivalence_property(self):
        # >= 100 seeded configurations with axes <= 8, channels <= 4
        rng = np.random.default_rng(6)
        for case in range(100):
            dims = tuple(int(v) for v in rng.integers(2, 7, size=3))
            kernel = tuple(int(rng.integers(1, min(3, d) + 1)) for d in dims)
            stride = tuple(int(v) for v in rng.integers(1, 3, size=3))
            padding = tuple(int(v) for v in rng.integers(0, 2, size=3))
            n = int(rng.integers(1, 3))
            cin = int(rng.integers(1, 4))
            cout = int(rng.integers(1, 4))
            x, spec = random_conv(rng, n, cin, cout, dims, kernel, stride, padding)
            got = conv3d_forward(x, spec)
            want = conv3d_reference(x, spec.weights, spec.bias, stride, padding)
            assert np.isfinite(got).all()
            assert_close(got, want, 1e-5, f"case {case}")

    def test_linearity_with_zero_bias(self):
        rng = np.random.default_rng(7)
        x, spec = random_conv(rng, 2, 2, 3, (5, 5, 6), (3, 3, 3), padding=(1, 1, 1))
        spec.bias[:] = 0
        y = rng.standard_normal(x.shape).astype(np.float32)
        alpha, beta = 0.7, -1.3
        combined = conv3d_forward((alpha * x + beta * y).astype(np.float32), spec)
        split = alpha * conv3d_forward(x, spec) + beta * conv3d_forward(y, spec)
        assert_close(combined, split, 1e-5, "linearity")

    @pytest.mark.parametrize("kernel, stride, padding", BLOCK_GEOMETRIES)
    def test_channels_last_input_matches_oracle(self, kernel, stride, padding):
        rng = np.random.default_rng(9)
        x, spec = random_conv(rng, 2, 3, 4, (5, 5, 7), kernel, stride, padding)
        got = conv3d_forward(channels_last(x), spec)
        want = conv3d_reference(x, spec.weights, spec.bias, stride, padding)
        assert_close(got, want, 1e-5, f"{kernel} channels-last")
        assert np.array_equal(got, conv3d_forward(x, spec))

        up = rng.standard_normal(got.shape).astype(np.float32)
        for a, b in zip(conv3d_backward(channels_last(x), spec, channels_last(up)),
                        conv3d_backward(x, spec, up)):
            assert np.array_equal(a, b)

    # batch sizes around BLAS tile edges, plus the eval/map batch of 256
    @pytest.mark.parametrize("n", [1, 63, 64, 65, 256])
    def test_batch_independence_bitwise(self, n):
        rng = np.random.default_rng(8)
        x, spec = random_conv(rng, n, 3, 5, (5, 6, 7), (3, 3, 3), (1, 2, 1), (1, 0, 1))
        full = conv3d_forward(x, spec)
        singles = np.concatenate([conv3d_forward(x[i:i + 1], spec) for i in range(n)])
        assert np.array_equal(full, singles)


class TestConv3dBackward:
    def test_zero_upstream(self):
        rng = np.random.default_rng(10)
        x, spec = random_conv(rng, 1, 2, 3, (4, 4, 5), (3, 3, 3), padding=(1, 1, 1))
        up = np.zeros((1, 3) + spec.output_dims((4, 4, 5)), dtype=np.float32)
        gx, gw, gb = conv3d_backward(x, spec, up)
        assert not gx.any() and not gw.any() and not gb.any()

    def test_identity_kernel_transports_upstream(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((2, 1, 3, 3, 4)).astype(np.float32)
        spec = Conv3dSpec("id", 1, 1, (1, 1, 1), weights=np.ones((1, 1, 1, 1, 1), np.float32))
        up = rng.standard_normal(x.shape).astype(np.float32)
        gx, _, _ = conv3d_backward(x, spec, up)
        assert np.array_equal(gx, up)

    def test_upstream_shape_checked(self):
        rng = np.random.default_rng(12)
        x, spec = random_conv(rng, 1, 1, 2, (4, 4, 4), (3, 3, 3))
        with pytest.raises(ShapeError, match="upstream"):
            conv3d_backward(x, spec, np.zeros((1, 2, 2, 2, 3), np.float32))

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        x, spec = random_conv(rng, 1, 2, 3, (4, 4, 6), (3, 3, 3), padding=(1, 1, 1),
                              dtype=np.float64)
        up = rng.standard_normal((1, 3) + spec.output_dims((4, 4, 6)))

        def loss():
            return float((conv3d_forward(x, spec) * up).sum())

        gx, gw, gb = conv3d_backward(x, spec, up)
        fd_x, fd_w, fd_b = finite_difference(loss, [x, spec.weights, spec.bias])
        assert_close(gx, fd_x, 1e-3, "grad_x")
        assert_close(gw, fd_w, 1e-3, "grad_w")
        assert_close(gb, fd_b, 1e-3, "grad_b")

    def test_gradient_soundness_seeded_cases(self):
        rng = np.random.default_rng(14)
        for case in range(6):
            dims = tuple(int(v) for v in rng.integers(2, 5, size=3))
            kernel = tuple(int(rng.integers(1, min(2, d) + 1)) for d in dims)
            stride = tuple(int(v) for v in rng.integers(1, 3, size=3))
            padding = tuple(int(v) for v in rng.integers(0, 2, size=3))
            x, spec = random_conv(rng, 1, int(rng.integers(1, 3)), int(rng.integers(1, 3)),
                                  dims, kernel, stride, padding, dtype=np.float64)
            up = rng.standard_normal((1, spec.out_channels) + spec.output_dims(dims))

            def loss():
                return float((conv3d_forward(x, spec) * up).sum())

            gx, gw, gb = conv3d_backward(x, spec, up)
            fd = finite_difference(loss, [x, spec.weights, spec.bias])
            assert_close(gx, fd[0], 1e-3, f"case {case} grad_x")
            assert_close(gw, fd[1], 1e-3, f"case {case} grad_w")
            assert_close(gb, fd[2], 1e-3, f"case {case} grad_b")


class TestAvgPool3d:
    def test_constant_field(self):
        x = np.full((1, 2, 4, 4, 6), 3.25, dtype=np.float32)
        spec = Pool3dSpec((2, 2, 3), (2, 2, 3))
        out = avgpool3d_forward(x, spec)
        assert np.allclose(out, 3.25)

    def test_depth_vector_with_padding(self):
        # padded depth sequence [0, 1, 2, 3, 4, 0]; windows at offsets 0 and 2
        x = np.asarray([1, 2, 3, 4], dtype=np.float32).reshape(1, 1, 1, 1, 4)
        spec = Pool3dSpec((1, 1, 3), (1, 1, 2), (0, 0, 1))
        out = avgpool3d_forward(x, spec)
        assert np.allclose(out.ravel(), [1.0, 3.0])

    def test_unit_window_is_identity(self):
        rng = np.random.default_rng(20)
        x = rng.standard_normal((2, 3, 3, 4, 5)).astype(np.float32)
        out = avgpool3d_forward(x, Pool3dSpec((1, 1, 1)))
        assert np.array_equal(out, x)

    def test_matches_reference(self):
        rng = np.random.default_rng(21)
        x = rng.standard_normal((2, 2, 5, 6, 7)).astype(np.float32)
        spec = Pool3dSpec((2, 2, 3), (1, 2, 2), (1, 1, 1))
        want = avgpool3d_reference(x, spec.kernel, spec.stride, spec.padding)
        assert_close(avgpool3d_forward(x, spec), want, 1e-5, "pool oracle")

    def test_backward_zero_upstream(self):
        spec = Pool3dSpec((1, 1, 3), (1, 1, 2), (0, 0, 1))
        up = np.zeros((1, 1, 2, 2, 3), dtype=np.float32)
        assert not avgpool3d_backward((1, 1, 2, 2, 5), spec, up).any()

    def test_backward_nonoverlapping_ones(self):
        spec = Pool3dSpec((2, 2, 2), (2, 2, 2))
        up = np.ones((1, 1, 2, 2, 2), dtype=np.float32)
        g = avgpool3d_backward((1, 1, 4, 4, 4), spec, up)
        assert np.allclose(g, 1.0 / 8.0)

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(22)
        x = rng.standard_normal((1, 2, 4, 4, 5))
        spec = Pool3dSpec((2, 1, 3), (2, 1, 2), (1, 0, 1))
        up = rng.standard_normal((1, 2) + spec.output_dims((4, 4, 5)))

        def loss():
            return float((avgpool3d_forward(x, spec) * up).sum())

        g = avgpool3d_backward(x.shape, spec, up)
        fd = finite_difference(loss, [x])[0]
        assert_close(g, fd, 1e-3, "pool grad")

    def test_backward_shape_checked(self):
        spec = Pool3dSpec((1, 1, 3), (1, 1, 2), (0, 0, 1))
        with pytest.raises(ShapeError):
            avgpool3d_backward((1, 1, 2, 2, 5), spec, np.zeros((1, 1, 2, 2, 9), np.float32))


class TestRelu:
    def test_sign_cases(self):
        x = np.asarray([-1.0, 0.0, 2.0], dtype=np.float32).reshape(1, 1, 1, 1, 3)
        assert np.array_equal(relu(x).ravel(), [0.0, 0.0, 2.0])
        up = np.asarray([5.0, 7.0, 9.0], dtype=np.float32).reshape(x.shape)
        assert np.array_equal(relu_backward(x, up).ravel(), [0.0, 0.0, 9.0])

    def test_positive_region_is_identity(self):
        rng = np.random.default_rng(30)
        x = np.abs(rng.standard_normal((1, 2, 3, 3, 4))).astype(np.float32) + 0.1
        up = rng.standard_normal(x.shape).astype(np.float32)
        assert np.array_equal(relu(x), x)
        assert np.array_equal(relu_backward(x, up), up)

    def test_matches_finite_differences_away_from_zero(self):
        rng = np.random.default_rng(31)
        x = rng.standard_normal((1, 1, 3, 3, 4))
        x[np.abs(x) < 1e-3] = 0.5  # keep clear of the kink
        up = rng.standard_normal(x.shape)

        def loss():
            return float((relu(x) * up).sum())

        g = relu_backward(x, up)
        fd = finite_difference(loss, [x])[0]
        assert_close(g, fd, 1e-3, "relu grad")


class TestLinear:
    def test_identity_weights(self):
        x = np.asarray([1.0, -2.0, 3.0], dtype=np.float32)
        logits = linear_forward(x, np.eye(3, dtype=np.float32), np.zeros(3, np.float32))
        assert np.array_equal(logits, x)

    def test_zero_input_gives_bias(self):
        b = np.asarray([0.5, -1.0], dtype=np.float32)
        logits = linear_forward(np.zeros(4, np.float32), np.zeros((2, 4), np.float32), b)
        assert np.array_equal(logits, b)

    def test_classifier_parameter_arithmetic(self):
        w = np.zeros((9, 4095), dtype=np.float32)
        b = np.zeros(9, dtype=np.float32)
        assert w.size + b.size == 36864

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            linear_forward(np.zeros(5, np.float32), np.zeros((2, 4), np.float32),
                           np.zeros(2, np.float32))

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(40)
        x = rng.standard_normal((3, 6))
        w = rng.standard_normal((4, 6))
        b = rng.standard_normal(4)
        up = rng.standard_normal((3, 4))

        def loss():
            return float((linear_forward(x, w, b) * up).sum())

        gx, gw, gb = linear_backward(x, w, up)
        fd = finite_difference(loss, [x, w, b])
        assert_close(gx, fd[0], 1e-3, "grad_x")
        assert_close(gw, fd[1], 1e-3, "grad_w")
        assert_close(gb, fd[2], 1e-3, "grad_b")


class TestSoftmaxCrossEntropy:
    def test_uniform_logits(self):
        loss, grad = softmax_cross_entropy(np.zeros(9, dtype=np.float32), 4)
        assert abs(loss - np.log(9.0)) < 1e-6
        assert abs(grad.sum()) < 1e-6

    def test_saturated_correct_class(self):
        logits = np.zeros(9, dtype=np.float32)
        logits[2] = 30.0
        loss, _ = softmax_cross_entropy(logits, 2)
        assert loss < 1e-9

    def test_target_out_of_range(self):
        with pytest.raises(MismatchError):
            softmax_cross_entropy(np.zeros(4, np.float32), 4)

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(41)
        logits = rng.standard_normal(7)
        target = 3

        def loss():
            return softmax_cross_entropy(logits, target)[0]

        _, grad = softmax_cross_entropy(logits, target)
        fd = finite_difference(loss, [logits])[0]
        assert_close(grad, fd, 1e-4, "softmax grad")

    def test_grad_rows_sum_to_zero(self):
        rng = np.random.default_rng(42)
        logits = rng.standard_normal((16, 9)).astype(np.float32) * 4
        targets = rng.integers(0, 9, size=16)
        losses, grads = softmax_cross_entropy(logits, targets)
        assert losses.shape == (16,)
        assert np.abs(grads.sum(axis=1)).max() < 1e-6

    def test_batch_matches_single(self):
        rng = np.random.default_rng(43)
        logits = rng.standard_normal((5, 6)).astype(np.float32)
        targets = rng.integers(0, 6, size=5)
        losses, grads = softmax_cross_entropy(logits, targets)
        for i in range(5):
            loss_i, grad_i = softmax_cross_entropy(logits[i], int(targets[i]))
            assert abs(losses[i] - loss_i) < 1e-12
            assert np.array_equal(grads[i], grad_i)
