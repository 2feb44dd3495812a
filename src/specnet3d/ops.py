"""Forward and backward numeric kernels the network is composed from.

Activations are stored channels-last, (n, h, w, d, c), while every function
here keeps the (n, c, h, w, d) axis order in its signature: it works on its
argument's channels-last view and hands back the (n, c, h, w, d) view of a
channels-last result.  One layer's output therefore feeds the next without
a copy; an input laid out any other way is copied once, where a contiguous
operand is needed.

A convolution is an im2col patch stack times one weight matrix.  Patch
columns run in (kh, kw, kd, c) order, so each column block is a copy of a
contiguous (kd, c) run of the input.  The forward contraction is a single
np.matmul of the (n, h'*w'*d', k) patch stack against the (k, out) weight
matrix: numpy issues one BLAS GEMM of the same shape per sample, and a
GEMM's blocking, fixed by that shape, fixes each output's accumulation
order.  A sample's activations are thus bitwise identical whatever batch
it is computed in, for a fixed numpy/BLAS build and BLAS thread count;
another build or thread count may change the last bits.  Backward
contractions carry no such contract and multiply whole-batch matrices.
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
    return np.pad(x, ((0, 0), (ph, ph), (pw, pw), (pd, pd), (0, 0)))


def _offset_slices(kernel, stride, out_dims):
    """Strided slice triples addressing each kernel offset's window sweep."""
    kh, kw, kd = kernel
    sh, sw, sd = stride
    ho, wo, do = out_dims
    for a in range(kh):
        rows = slice(a, a + sh * ho, sh)
        for b in range(kw):
            cols = slice(b, b + sw * wo, sw)
            for c in range(kd):
                yield rows, cols, slice(c, c + sd * do, sd)


def _is_pointwise(spec: Conv3dSpec):
    """A 1x1x1, stride 1, unpadded conv: its patch matrix is its input."""
    return spec.kernel == spec.stride == (1, 1, 1) and spec.padding == (0, 0, 0)


def _im2col(xl, spec: Conv3dSpec, out_dims):
    """Contiguous (n, h'*w'*d', kh*kw*kd*c) patch stack of channels-last xl,
    columns in (kh, kw, kd, c) order."""
    n, c = xl.shape[0], xl.shape[-1]
    m = out_dims[0] * out_dims[1] * out_dims[2]
    if _is_pointwise(spec):
        return np.ascontiguousarray(xl).reshape(n, m, c)
    xp = _pad_spatial(xl, spec.padding)
    sn, sH, sW, sD, sC = xp.strides
    sh, sw, sd = spec.stride
    win = np.lib.stride_tricks.as_strided(
        xp,
        shape=(n, *out_dims, *spec.kernel, c),
        strides=(sn, sH * sh, sW * sw, sD * sd, sH, sW, sD, sC),
        writeable=False,
    )
    return np.ascontiguousarray(win).reshape(n, m, -1)


def _weight_matrix(spec: Conv3dSpec):
    """(kh*kw*kd*in, out) weights, rows in patch-column order."""
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
    """conv3d_forward that also hands back its patch stack for reuse."""
    x = _check_conv_input(x, spec)
    out_dims = spec.output_dims(x.shape[2:])
    cols = _im2col(_channels_last(x), spec, out_dims)
    out = np.matmul(cols, _weight_matrix(spec))
    out += spec.bias
    out = out.reshape((x.shape[0], *out_dims, spec.out_channels))
    return _channels_first(out), cols


def conv3d_forward(x, spec: Conv3dSpec):
    """Strided 3D cross-correlation with bias over a (n, c, h, w, d) tensor."""
    out, _ = _conv3d_forward_cols(x, spec)
    return out


def conv3d_backward(x, spec: Conv3dSpec, upstream, cols=None, input_grad=True):
    """Exact partials of sum(upstream * conv3d_forward(x, spec)).

    Returns (grad_x, grad_weights, grad_bias) with the shapes of x,
    spec.weights and spec.bias; grad_x is None when input_grad is False.
    cols may reuse the patch stack an earlier forward built for the same x
    and spec.
    """
    x = _check_conv_input(x, spec)
    n, cin, h, w, d = x.shape
    out_dims = spec.output_dims((h, w, d))
    expected = (n, spec.out_channels) + out_dims
    upstream = np.asarray(upstream)
    if upstream.shape != expected:
        raise ShapeError(
            f"{spec.name}: upstream shape {upstream.shape} != forward output {expected}"
        )

    if cols is None:
        cols = _im2col(_channels_last(x), spec, out_dims)
    cols = cols.reshape(-1, cols.shape[-1])
    g = np.ascontiguousarray(_channels_last(upstream)).reshape(-1, spec.out_channels)

    grad_bias = g.sum(axis=0)
    grad_weights = np.ascontiguousarray(
        (g.T @ cols).reshape((spec.out_channels, *spec.kernel, cin)).transpose(0, 4, 1, 2, 3)
    )
    if not input_grad:
        return None, grad_weights, grad_bias

    wmat = _weight_matrix(spec)
    if _is_pointwise(spec):
        grad_x = (g @ wmat.T).reshape(n, h, w, d, cin)
        return _channels_first(grad_x), grad_weights, grad_bias
    # col2im one kernel offset at a time: offset q's rows of the weight
    # matrix turn g into a contiguous (n, h', w', d', c) slab, which is
    # added into the input positions that offset's window sweep read
    ph, pw, pd = spec.padding
    dtype = np.result_type(g, wmat)
    grad_padded = np.zeros((n, h + 2 * ph, w + 2 * pw, d + 2 * pd, cin), dtype=dtype)
    slab = np.empty((n, *out_dims, cin), dtype=dtype)
    for q, (rows, cols_s, depths) in enumerate(
        _offset_slices(spec.kernel, spec.stride, out_dims)
    ):
        np.matmul(g, wmat[q * cin:(q + 1) * cin].T, out=slab.reshape(-1, cin))
        grad_padded[:, rows, cols_s, depths] += slab
    grad_x = grad_padded[:, ph:ph + h, pw:pw + w, pd:pd + d]
    return _channels_first(grad_x), grad_weights, grad_bias


def avgpool3d_forward(x, spec: Pool3dSpec):
    """Include-pad average pooling: window sum over the zero-padded input
    divided by the full kernel volume."""
    xl = _channels_last(as_tensor5(x))
    out_dims = spec.output_dims(xl.shape[1:4])
    xp = _pad_spatial(xl, spec.padding)
    acc = np.zeros((xl.shape[0], *out_dims, xl.shape[-1]), dtype=xl.dtype)
    for rows, cols, depths in _offset_slices(spec.kernel, spec.stride, out_dims):
        acc += xp[:, rows, cols, depths]
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
    ph, pw, pd = spec.padding
    grad_padded = np.zeros((n, h + 2 * ph, w + 2 * pw, d + 2 * pd, c), dtype=g.dtype)
    for rows, cols, depths in _offset_slices(spec.kernel, spec.stride, out_dims):
        grad_padded[:, rows, cols, depths] += g
    grad_x = grad_padded[:, ph:ph + h, pw:pw + w, pd:pd + d]
    return _channels_first(grad_x)


def relu(x):
    """Element-wise max(0, x)."""
    return np.maximum(x, 0)


def relu_backward(x, upstream):
    """Pass upstream where x > 0; the subgradient at exactly 0 is 0."""
    x = np.asarray(x)
    upstream = np.asarray(upstream)
    if upstream.shape != x.shape:
        raise ShapeError(f"relu upstream shape {upstream.shape} != input {x.shape}")
    return np.where(x > 0, upstream, np.zeros((), dtype=upstream.dtype))


def linear_forward(x, weights, bias):
    """logits[c] = bias[c] + sum_f weights[c, f] * x[f], for one sample (F,)
    or a batch (n, F)."""
    x = np.ascontiguousarray(x)
    weights = np.ascontiguousarray(weights)
    bias = np.asarray(bias)
    if x.shape[-1] != weights.shape[1]:
        raise ShapeError(
            f"feature length {x.shape[-1]} != classifier width {weights.shape[1]}"
        )
    if x.ndim == 1:
        return np.einsum("cf,f->c", weights, x) + bias
    if x.ndim == 2:
        return np.einsum("nf,cf->nc", x, weights) + bias
    raise ShapeError(f"linear input must be 1-D or 2-D, got ndim={x.ndim}")


def linear_backward(x, weights, upstream):
    """Exact partials of sum(upstream * linear_forward(x, ...)).

    Returns (grad_x, grad_weights, grad_bias).
    """
    x = np.asarray(x)
    weights = np.asarray(weights)
    upstream = np.asarray(upstream)
    if x.ndim == 1:
        x2 = x[None, :]
        g2 = upstream[None, :]
    else:
        x2 = x
        g2 = upstream
    if g2.shape != (x2.shape[0], weights.shape[0]):
        raise ShapeError(
            f"linear upstream shape {upstream.shape} does not match "
            f"{x2.shape[0]} samples x {weights.shape[0]} classes"
        )
    grad_x = g2 @ weights
    grad_weights = g2.T @ x2
    grad_bias = g2.sum(axis=0)
    if x.ndim == 1:
        grad_x = grad_x[0]
    return grad_x, grad_weights, grad_bias


def softmax_cross_entropy(logits, target):
    """Negative log softmax probability of the target class, max-shifted
    for stability, plus the exact logit gradient softmax(logits) - onehot.

    For a single sample pass (C,) logits and an int target; for a batch
    pass (n, C) logits and (n,) targets, getting per-sample losses and
    per-sample gradients back (no mean is taken).
    """
    logits = np.asarray(logits)
    if logits.ndim == 1:
        loss, grad = softmax_cross_entropy(logits[None, :], np.asarray([target]))
        return float(loss[0]), grad[0]
    if logits.ndim != 2:
        raise ShapeError(f"logits must be 1-D or 2-D, got ndim={logits.ndim}")
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
