"""Forward and backward numeric kernels the network is composed from.

Activations are stored channels-last, (n, h, w, d, c), while every function
here keeps the (n, c, h, w, d) axis order in its signature: it works on its
argument's channels-last view and hands back the (n, c, h, w, d) view of a
channels-last result.  One layer's output therefore feeds the next without
a copy; an input laid out any other way is copied once, where a contiguous
operand is needed.

A convolution is a patch stack times one weight matrix.  The stack's
layout is chosen from the layer's geometry alone (_layout), in this order:

- pointwise (1x1x1, stride 1, unpadded): the channels-last input is its
  own (n, h*w*d, c) stack; the 1x1x1 projections.
- depth-run (one input channel): an (n, kh*kw*kd, h'*w'*d') stack whose
  rows are runs of the input along depth, its contiguous axis; the
  forward multiplies the stack's transpose by the (kh*kw*kd, out)
  matrix.  Conv1.
- depth-fold (several input channels, a kernel wider than 1 along depth
  and along a spatial axis): an (n, h'*w'*D, kh*kw*c) stack of the
  (kh, kw) windows at every padded depth D, times a (kh*kw*c, kd*out)
  matrix whose column blocks are the kd depth taps' weights.  Output
  depth k sums tap t's result at padded depth k*sd + t, t = 0..kd-1.
  Conv2.
- im2col (every other layer): an (n, h'*w'*d', kh*kw*kd*c) stack,
  columns in (kh, kw, kd, c) order, so each column block is a copy of a
  contiguous (kd, c) run of the input.  The depth-only Conv3 and Conv4.

Whatever the layout, the forward contraction is a single np.matmul over
the batch: numpy issues one BLAS GEMM of the same shape per sample, and a
GEMM's blocking, fixed by that shape, fixes each output's accumulation
order; the depth-fold tap sum then runs element by element in tap order.
A sample's activations are thus bitwise identical whatever batch it is
computed in, for one numpy build and one OpenBLAS core type (the CPU's or
OPENBLAS_CORETYPE's), whatever the thread counts (parallel.fan_out);
another build or core type may change the last bits.  Within one GEMM, each
output position is computed from its own patch-stack row alone, so it
keeps its bits whatever the other rows hold: network.stream relies on
this when it runs a step over a line buffer it zeroed.  Backward
contractions carry no such contract: network.backward hands them one
shard of at most network.SHARD samples at a time and sums the shards'
weight gradients in shard order.  A shard's weight gradient is one
product of its upstream matrix, a depth-fold layer's first spread to its
depth taps, with its patch stack; only a depth-run layer sums per-sample
products instead.  col2im adds one window offset's slab at a time.

Every kernel allocates afresh, on each call, the arrays it returns and
its patch stacks, padded copies and backward scratch: np.zeros where it
accumulates, np.empty where it overwrites every element.  So what a
kernel returns is the caller's to keep; a pointwise layer's patch stack
is its own input.
"""

import numpy as np

from .errors import MismatchError, ShapeError
from .tensor import as_tensor5, Conv3dSpec, Pool3dSpec


def _channels_last(x):
    """(n, c, h, w, d) -> (n, h, w, d, c) view."""
    return x.transpose(0, 2, 3, 4, 1)


def _channels_first(x):
    """(n, h, w, d, c) -> (n, c, h, w, d) view."""
    return x.transpose(0, 4, 1, 2, 3)


def _pad_spatial(x, padding):
    """Zero-pad the three spatial axes of a channels-last array."""
    ph, pw, pd = padding
    if ph == 0 and pw == 0 and pd == 0:
        return x
    n, h, w, d, c = x.shape
    xp = np.zeros((n, h + 2 * ph, w + 2 * pw, d + 2 * pd, c), x.dtype)
    xp[:, ph:ph + h, pw:pw + w, pd:pd + d] = x
    return xp


def _clipped_slices(kernel, stride, padding, in_dims, out_dims):
    """Per window offset q (row-major over the kernel's offsets), the
    (q, output, input) slice triples of the window positions that read the
    input rather than its zero padding; offsets that only ever read padding
    are left out."""
    per_axis = []
    for k, s, p, n, o in zip(kernel, stride, padding, in_dims, out_dims):
        taps = []
        for a in range(k):
            lo, hi = max(0, -((a - p) // s)), min(o, (n - 1 + p - a) // s + 1)
            if lo < hi:
                start = a + s * lo - p
                taps.append((a, slice(lo, hi), slice(start, start + s * (hi - lo - 1) + 1, s)))
        per_axis.append(taps)
    _, kw, kd = kernel
    for a, out_h, in_h in per_axis[0]:
        for b, out_w, in_w in per_axis[1]:
            for c, out_d, in_d in per_axis[2]:
                yield (a * kw + b) * kd + c, (out_h, out_w, out_d), (in_h, in_w, in_d)


def _layout(spec: Conv3dSpec):
    """The patch stack layout of spec's geometry (see the module docstring)."""
    kh, kw, kd = spec.kernel
    if spec.kernel == spec.stride == (1, 1, 1) and spec.padding == (0, 0, 0):
        return "pointwise"
    if spec.in_channels == 1:
        return "run"
    if kh * kw > 1 and kd > 1:
        return "fold"
    # folded, a depth-only kernel computes every tap at every padded depth:
    # twice Conv4's GEMM work at depth stride 2, and no faster on Conv3
    return "im2col"


def _stack_geometry(spec: Conv3dSpec, out_dims, padded_depth):
    """(kernel, stride, out_dims) the patch stack's windows are cut with: a
    depth-fold stack takes (kh, kw) windows at every padded depth."""
    if _layout(spec) == "fold":
        (kh, kw, _), (sh, sw, _) = spec.kernel, spec.stride
        return (kh, kw, 1), (sh, sw, 1), (*out_dims[:2], padded_depth)
    return spec.kernel, spec.stride, out_dims


def _patch_stack(x, spec: Conv3dSpec, out_dims):
    """The layer's contiguous patch stack of a (n, c, h, w, d) input."""
    xl = _channels_last(x)
    n, c = xl.shape[0], xl.shape[-1]
    if _layout(spec) == "pointwise":
        return np.ascontiguousarray(xl).reshape(n, -1, c)
    xp = _pad_spatial(xl, spec.padding)
    kernel, stride, dims = _stack_geometry(spec, out_dims, xp.shape[3])
    sn, sH, sW, sD, sC = xp.strides
    sh, sw, sd = stride
    sweep = (dims, (sH * sh, sW * sw, sD * sd))
    window = (kernel, (sH, sW, sD))
    # a depth-run stack has the kernel offsets outermost
    outer, inner = (window, sweep) if _layout(spec) == "run" else (sweep, window)
    view = np.lib.stride_tricks.as_strided(
        xp,
        shape=(n, *outer[0], *inner[0], c),
        strides=(sn, *outer[1], *inner[1], sC),
        writeable=False,
    )
    return view.copy().reshape(n, np.prod(outer[0]), -1)


def _weight_matrix(spec: Conv3dSpec):
    """The weights as the matrix the layer's stack is multiplied by: for a
    depth-fold layer (kh*kw*in, kd*out), rows in (kh, kw, in) and columns
    in (kd, out) order; otherwise (kh*kw*kd*in, out), rows in patch-column
    order."""
    kh, kw, kd = spec.kernel
    if _layout(spec) == "fold":
        return np.ascontiguousarray(spec.weights.transpose(2, 3, 1, 4, 0)).reshape(
            kh * kw * spec.in_channels, kd * spec.out_channels
        )
    return np.ascontiguousarray(spec.weights.transpose(2, 3, 4, 1, 0)).reshape(
        -1, spec.out_channels
    )


def _check_conv_input(x, spec: Conv3dSpec):
    """Validate a (n, c, h, w, d) conv input against the layer's channels."""
    x = as_tensor5(x)
    if x.shape[1] != spec.in_channels:
        raise ShapeError(
            f"{spec.name}: input has {x.shape[1]} channels, layer expects {spec.in_channels}"
        )
    return x


def _conv3d_forward_cols(x, spec: Conv3dSpec):
    """(out, cols): the strided 3D cross-correlation with bias of a
    (n, c, h, w, d) tensor, and the patch stack it was computed from, which
    conv3d_backward may reuse."""
    x = _check_conv_input(x, spec)
    n = x.shape[0]
    out_dims = spec.output_dims(x.shape[2:])
    cols = _patch_stack(x, spec, out_dims)
    wmat = _weight_matrix(spec)
    out = np.empty((n, *out_dims, spec.out_channels), np.result_type(cols, wmat))
    layout = _layout(spec)
    if layout == "fold":
        # one column block per depth tap (kd >= 2); tap t of output depth k
        # read padded depth k * sd + t
        sd, kd = spec.stride[2], spec.kernel[2]
        taps = np.matmul(cols, wmat).reshape(n, *out_dims[:2], -1, kd, spec.out_channels)
        span = sd * out_dims[2]
        tap = [taps[:, :, :, t:t + span:sd, t] for t in range(kd)]
        np.add(tap[0], tap[1], out=out)
        for t in range(2, kd):
            out += tap[t]
    else:
        lhs = cols.transpose(0, 2, 1) if layout == "run" else cols
        np.matmul(lhs, wmat, out=out.reshape(n, -1, spec.out_channels))
    out += spec.bias
    return _channels_first(out), cols


def _grad_weights(spec: Conv3dSpec, gmat):
    """(out, in, kh, kw, kd) weight gradient from its (columns of the
    layer's weight matrix, rows of it) matrix."""
    kh, kw, kd = spec.kernel
    if _layout(spec) == "fold":
        g = gmat.reshape(kd, spec.out_channels, kh, kw, spec.in_channels)
        return np.ascontiguousarray(g.transpose(1, 4, 2, 3, 0))
    g = gmat.reshape(spec.out_channels, kh, kw, kd, spec.in_channels)
    return np.ascontiguousarray(g.transpose(0, 4, 1, 2, 3))


def conv3d_backward(x, spec: Conv3dSpec, upstream, cols=None, input_grad=True):
    """Exact partials of sum(upstream * _conv3d_forward_cols(x, spec)[0]).

    Returns (grad_x, grad_weights, grad_bias) with the shapes of x,
    spec.weights and spec.bias; grad_x is None when input_grad is False.
    cols may reuse the patch stack an earlier forward built for the same x
    and spec; grad_weights is the stack's product with the upstream matrix.
    """
    x = _check_conv_input(x, spec)
    n, cin, h, w, d = x.shape
    co = spec.out_channels
    out_dims = spec.output_dims((h, w, d))
    expected = (n, co) + out_dims
    upstream = np.asarray(upstream)
    if upstream.shape != expected:
        raise ShapeError(
            f"{spec.name}: upstream shape {upstream.shape} != forward output {expected}"
        )

    if cols is None:
        cols = _patch_stack(x, spec, out_dims)
    layout = _layout(spec)
    g = np.ascontiguousarray(_channels_last(upstream))
    gmat = g.reshape(-1, co)
    # einsum sums the rows ~4x faster than sum(axis=0), whose inner loop
    # covers only one row of co channels
    grad_bias = np.einsum("mc->c", gmat)
    wmat = _weight_matrix(spec)
    dtype = np.result_type(g, wmat)
    if layout == "fold":
        # the upstream shifted to every depth tap: column block t at padded
        # depth k * sd + t holds output depth k's gradient
        sd, kd = spec.stride[2], spec.kernel[2]
        gmat = np.zeros((n, cols.shape[1], kd * co), g.dtype)
        taps = gmat.reshape(n, *out_dims[:2], -1, kd, co)
        for t in range(kd):
            taps[:, :, :, t:t + sd * out_dims[2]:sd, t] = g
        gmat = gmat.reshape(-1, kd * co)
    if layout == "run":
        per_sample = np.matmul(cols, g.reshape(n, -1, co))
        grad_weights = _grad_weights(spec, per_sample.sum(axis=0).T)
    else:
        grad_weights = _grad_weights(spec, gmat.T @ cols.reshape(-1, cols.shape[-1]))
    if not input_grad:
        return None, grad_weights, grad_bias

    if layout == "pointwise":
        grad_x = (gmat @ wmat.T).reshape(n, h, w, d, cin)
        return _channels_first(grad_x), grad_weights, grad_bias
    # col2im one window offset at a time: offset q's rows of the weight
    # matrix turn gmat into a contiguous (n, *dims, c) slab, which is added
    # into the input positions that offset's window sweep read
    kernel, stride, dims = _stack_geometry(spec, out_dims, d + 2 * spec.padding[2])
    grad_x = np.zeros((n, h, w, d, cin), dtype)
    slab = np.empty((n, *dims, cin), dtype)
    for q, (oh, ow, od), (ih, iw, id_) in _clipped_slices(
            kernel, stride, spec.padding, (h, w, d), dims):
        np.matmul(gmat, wmat[q * cin:(q + 1) * cin].T, out=slab.reshape(-1, cin))
        grad_x[:, ih, iw, id_] += slab[:, oh, ow, od]
    return _channels_first(grad_x), grad_weights, grad_bias


def avgpool3d_forward(x, spec: Pool3dSpec):
    """Include-pad average pooling: window sum over the zero-padded input
    divided by the full kernel volume.  Padding taps are skipped, which
    adds nothing: a sum started at +0.0 is unchanged by adding +0.0."""
    xl = _channels_last(as_tensor5(x))
    out_dims = spec.output_dims(xl.shape[1:4])
    acc = np.zeros((xl.shape[0], *out_dims, xl.shape[-1]), xl.dtype)
    for _, (oh, ow, od), (ih, iw, id_) in _clipped_slices(
            spec.kernel, spec.stride, spec.padding, xl.shape[1:4], out_dims):
        acc[:, oh, ow, od] += xl[:, ih, iw, id_]
    acc /= spec.volume
    return _channels_first(acc)


def avgpool3d_backward(x_dims, spec: Pool3dSpec, upstream):
    """Route each upstream value back to every input position its window
    covered, divided by the kernel volume; padded positions receive nothing."""
    x_dims = tuple(int(v) for v in x_dims)
    if len(x_dims) != 5:
        raise ShapeError(f"expected 5 input dims, got {x_dims!r}")
    n, c, h, w, d = x_dims
    out_dims = spec.output_dims((h, w, d))
    expected = (n, c) + out_dims
    upstream = np.asarray(upstream)
    if upstream.shape != expected:
        raise ShapeError(
            f"pool upstream shape {upstream.shape} != pooled output {expected}"
        )
    g = _channels_last(upstream) / spec.volume
    grad_x = np.zeros((n, h, w, d, c), g.dtype)
    for _, (oh, ow, od), (ih, iw, id_) in _clipped_slices(
            spec.kernel, spec.stride, spec.padding, (h, w, d), out_dims):
        grad_x[:, ih, iw, id_] += g[:, oh, ow, od]
    return _channels_first(grad_x)


def relu(x):
    """Element-wise max(0, x), laid out in memory like x."""
    return np.maximum(np.asarray(x), 0)


def relu_backward(x, upstream):
    """Pass upstream where x > 0; the subgradient at exactly 0 is 0.

    x may be ReLU's input or its output relu(input): the two are > 0 at
    the same elements, NaN, signed zeros and infinities included, so
    either gives the same bits.  The result is np.where(x > 0, upstream,
    0) bit for bit (+0.0 wherever x <= 0, even under a NaN or infinite
    upstream), computed as upstream's bits ANDed with an all-ones or
    all-zeros mask, which needs no per-element branch.
    """
    x = np.asarray(x)
    upstream = np.asarray(upstream)
    if upstream.shape != x.shape:
        raise ShapeError(f"relu upstream shape {upstream.shape} != input {x.shape}")
    passed = np.greater(x, 0)
    grad = np.empty_like(x, dtype=upstream.dtype)
    # the mask is built in grad's own bits: True -> all ones, False -> 0
    bits = grad.view(f"i{grad.itemsize}")
    np.negative(passed.view(np.int8), out=bits)
    np.bitwise_and(upstream.view(bits.dtype), bits, out=bits)
    return grad


def linear_forward(x, weights, bias):
    """logits[i, c] = bias[c] + sum_f weights[c, f] * x[i, f], for a batch
    x of shape (n, F).

    Each row is its own (1, F) x (F, C) product, so a row's logits do not
    depend on how many rows come with it.
    """
    x = np.ascontiguousarray(x)
    weights = np.ascontiguousarray(weights)
    bias = np.asarray(bias)
    if x.ndim != 2:
        raise ShapeError(f"linear input must be an (n, F) batch, got ndim={x.ndim}")
    if x.shape[1] != weights.shape[1]:
        raise ShapeError(
            f"feature length {x.shape[1]} != classifier width {weights.shape[1]}"
        )
    return np.matmul(x[:, None, :], weights.T)[:, 0] + bias


def linear_backward(x, weights, upstream):
    """Exact partials of sum(upstream * linear_forward(x, ...)), x an (n, F)
    batch.

    Returns (grad_x, grad_weights, grad_bias).
    """
    x = np.asarray(x)
    weights = np.asarray(weights)
    upstream = np.asarray(upstream)
    if x.ndim != 2:
        raise ShapeError(f"linear input must be an (n, F) batch, got ndim={x.ndim}")
    if upstream.shape != (x.shape[0], weights.shape[0]):
        raise ShapeError(
            f"linear upstream shape {upstream.shape} does not match "
            f"{x.shape[0]} samples x {weights.shape[0]} classes"
        )
    return upstream @ weights, upstream.T @ x, upstream.sum(axis=0)


def softmax_cross_entropy(logits, target):
    """Negative log softmax probability of the target class, max-shifted
    for stability, plus the exact logit gradient softmax(logits) - onehot.

    Takes (n, C) logits and (n,) targets, and gives per-sample losses and
    per-sample gradients back (no mean is taken).
    """
    logits = np.asarray(logits)
    if logits.ndim != 2:
        raise ShapeError(f"logits must be an (n, C) batch, got ndim={logits.ndim}")
    n, c = logits.shape
    target = np.asarray(target)
    if target.shape != (n,):
        raise ShapeError(f"targets shape {target.shape} != ({n},)")
    if target.min() < 0 or target.max() >= c:
        raise MismatchError(
            f"target class out of range [0, {c}) of a {c}-class model"
        )

    z = logits.astype(np.float64)
    z = z - z.max(axis=1, keepdims=True)
    ez = np.exp(z)
    denom = ez.sum(axis=1, keepdims=True)
    losses = np.log(denom[:, 0]) - z[np.arange(n), target]
    grads = ez / denom
    grads[np.arange(n), target] -= 1.0
    return losses, grads.astype(logits.dtype)
