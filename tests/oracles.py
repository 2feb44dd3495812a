"""Independent reference implementations the kernels are checked against.

Everything here is deliberately naive: plain Python loops over plain
Python floats, no shared code with the package's vectorized paths. Two
exceptions: conv3d_forward, the package's convolution as the tests call
it, and residual_grads, which ablates the network's wiring rather than
checking a kernel, so it composes the package's ops.
"""

import numpy as np

from specnet3d.errors import MismatchError, SplitError
from specnet3d.ops import (
    _conv3d_forward_cols,
    avgpool3d_backward,
    avgpool3d_forward,
    conv3d_backward,
    linear_backward,
    relu,
    relu_backward,
)


def conv3d_forward(x, spec):
    """The package's strided 3D convolution of x, without the patch stack
    _conv3d_forward_cols also hands back."""
    return _conv3d_forward_cols(x, spec)[0]


def conv3d_reference(x, weights, bias, stride, padding):
    """Direct 7-nested-loop summation of a strided 3D cross-correlation."""
    n, cin, h, w, d = x.shape
    cout, _, kh, kw, kd = weights.shape
    sh, sw, sd = stride
    ph, pw, pd = padding
    ho = (h + 2 * ph - kh) // sh + 1
    wo = (w + 2 * pw - kw) // sw + 1
    do = (d + 2 * pd - kd) // sd + 1

    xl = x.astype(np.float64).tolist()
    wl = weights.astype(np.float64).tolist()
    bl = [float(v) for v in bias]
    out = np.zeros((n, cout, ho, wo, do), dtype=np.float64)
    for b in range(n):
        for o in range(cout):
            for i in range(ho):
                for j in range(wo):
                    for k in range(do):
                        acc = bl[o]
                        for c in range(cin):
                            for a in range(kh):
                                hi = i * sh + a - ph
                                if hi < 0 or hi >= h:
                                    continue
                                for bb in range(kw):
                                    wi = j * sw + bb - pw
                                    if wi < 0 or wi >= w:
                                        continue
                                    for cc in range(kd):
                                        di = k * sd + cc - pd
                                        if di < 0 or di >= d:
                                            continue
                                        acc += wl[o][c][a][bb][cc] * xl[b][c][hi][wi][di]
                        out[b, o, i, j, k] = acc
    return out


def channels_last(x):
    """x's values stored channels-last, (n, h, w, d, c) in memory, seen through
    the (n, c, h, w, d) view the package's ops take and return."""
    return np.ascontiguousarray(x.transpose(0, 2, 3, 4, 1)).transpose(0, 4, 1, 2, 3)


def avgpool3d_reference(x, kernel, stride, padding):
    """Windowed sum over the zero-padded input divided by the kernel volume."""
    n, c, h, w, d = x.shape
    kh, kw, kd = kernel
    sh, sw, sd = stride
    ph, pw, pd = padding
    ho = (h + 2 * ph - kh) // sh + 1
    wo = (w + 2 * pw - kw) // sw + 1
    do = (d + 2 * pd - kd) // sd + 1
    vol = kh * kw * kd

    xl = x.astype(np.float64).tolist()
    out = np.zeros((n, c, ho, wo, do), dtype=np.float64)
    for b in range(n):
        for ch in range(c):
            for i in range(ho):
                for j in range(wo):
                    for k in range(do):
                        acc = 0.0
                        for a in range(kh):
                            hi = i * sh + a - ph
                            if hi < 0 or hi >= h:
                                continue
                            for bb in range(kw):
                                wi = j * sw + bb - pw
                                if wi < 0 or wi >= w:
                                    continue
                                for cc in range(kd):
                                    di = k * sd + cc - pd
                                    if di < 0 or di >= d:
                                        continue
                                    acc += xl[b][ch][hi][wi][di]
                        out[b, ch, i, j, k] = acc / vol
    return out


def check_pixel(labels, classes, entry):
    """(row, col, class) of one pixel entry, checked against the label grid
    and the model's class count one entry at a time: the per-entry check
    the vectorized training._labeled_rows replaced, kept as its reference."""
    row, col = int(entry[0]), int(entry[1])
    if not (0 <= row < labels.height and 0 <= col < labels.width):
        raise SplitError(
            f"pixel ({row}, {col}) lies outside the {labels.height}x{labels.width} scene"
        )
    cls = int(labels.labels[row, col])
    if cls == 0:
        raise SplitError(f"pixel ({row}, {col}) is unlabeled")
    if len(entry) > 2 and int(entry[2]) != cls:
        raise MismatchError(
            f"pixel ({row}, {col}) is labeled {cls} but listed as {entry[2]}"
        )
    if cls > classes:
        raise MismatchError(
            f"pixel ({row}, {col}) is labeled {cls}, but the model has {classes} classes"
        )
    return row, col, cls


def finite_difference(f, arrays, step_scale=1e-4):
    """Central differences of scalar f() w.r.t. every element of arrays.

    arrays must be float64 and are perturbed in place (restored after).
    The step is step_scale * max(1, |value|) per coordinate.
    """
    grads = []
    for arr in arrays:
        assert arr.dtype == np.float64, "finite differences run on the 64-bit path"
        g = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            v = float(arr[idx])
            h = step_scale * max(1.0, abs(v))
            arr[idx] = v + h
            fp = f()
            arr[idx] = v - h
            fm = f()
            arr[idx] = v
            g[idx] = (fp - fm) / (2.0 * h)
        grads.append(g)
    return grads


def assert_close(got, want, rtol, context=""):
    """Elementwise |got - want| <= rtol * max(1, |want|)."""
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    assert got.shape == want.shape, f"{context}: shapes {got.shape} vs {want.shape}"
    denom = np.maximum(1.0, np.abs(want))
    err = np.abs(got - want) / denom
    worst = float(err.max()) if err.size else 0.0
    assert worst <= rtol, f"{context}: relative error {worst:.3e} exceeds {rtol:.1e}"


def residual_grads(model, x, upstream, skip=True):
    """Parameter gradients of the four-block network, with or without each
    block's identity skip (out = z + y or out = z), from the public ops.

    With skip=True this is network.backward's arithmetic step for step;
    skip=False is the ablation of the paper's residual wiring.
    """
    saved, out = [], x
    for block in model.blocks:
        pre = conv3d_forward(out, block.main)
        y = relu(pre)
        z = conv3d_forward(y, block.proj)
        summed = z + y if skip else z
        saved.append((out, pre, y, summed.shape))
        out = summed if block.pool is None else avgpool3d_forward(summed, block.pool)
    grads = {}
    g, grads["FC.weight"], grads["FC.bias"] = linear_backward(
        out.reshape(out.shape[0], -1), model.fc_weights, upstream
    )
    g = g.reshape(out.shape)
    for block, (x_in, pre, y, dims) in zip(reversed(model.blocks), reversed(saved)):
        if block.pool is not None:
            g = avgpool3d_backward(dims, block.pool, g)
        proj, main = block.proj.name, block.main.name
        gy, grads[f"{proj}.weight"], grads[f"{proj}.bias"] = conv3d_backward(y, block.proj, g)
        if skip:
            gy = gy + g
        g, grads[f"{main}.weight"], grads[f"{main}.bias"] = conv3d_backward(
            x_in, block.main, relu_backward(pre, gy)
        )
    return grads
