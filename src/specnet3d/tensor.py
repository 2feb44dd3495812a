"""Dense 5-axis activation tensors and the shape arithmetic every layer shares.

Activations and gradients travel as numpy arrays of shape
(batch, channels, height, width, depth), float32 by default.  A parallel
float64 path (same code, wider dtype) exists for gradient-check tests.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError

AXES = ("batch", "channels", "height", "width", "depth")


def as_tensor5(x, check_finite=False):
    """Validate a (n, c, h, w, d) array and return it unchanged.

    Raises ShapeError on wrong rank or a degenerate axis; with
    check_finite=True also rejects NaN/Inf entries.
    """
    x = np.asarray(x)
    if x.ndim != 5:
        raise ShapeError(f"expected a 5-axis tensor (n, c, h, w, d), got ndim={x.ndim}")
    for name, size in zip(AXES, x.shape):
        if size < 1:
            raise ShapeError(f"{name}: axis size must be >= 1, got {size}")
    if check_finite and not np.isfinite(x).all():
        raise ShapeError("tensor contains non-finite values")
    return x


def out_dim(size, kernel, stride, padding, axis="axis"):
    """Output extent of a strided window sweep: floor((size + 2p - k)/s) + 1."""
    if stride < 1:
        raise ShapeError(f"{axis}: stride must be >= 1, got {stride}")
    if padding < 0:
        raise ShapeError(f"{axis}: padding must be >= 0, got {padding}")
    if size + 2 * padding < kernel:
        raise ShapeError(
            f"{axis}: input extent {size} with padding {padding} is smaller "
            f"than kernel extent {kernel}"
        )
    return (size + 2 * padding - kernel) // stride + 1


def _check_triple(name, triple, minimum):
    triple = tuple(int(v) for v in triple)
    if len(triple) != 3:
        raise ShapeError(f"{name}: expected a (h, w, d) triple, got {triple!r}")
    for axis, v in zip(AXES[2:], triple):
        if v < minimum:
            raise ShapeError(f"{name} along {axis} must be >= {minimum}, got {v}")
    return triple


@dataclass
class Conv3dSpec:
    """One 3D convolution layer: geometry plus its weight and bias arrays.

    weights has shape (out_channels, in_channels, kh, kw, kd); bias has
    shape (out_channels,).  Convolution is cross-correlation (no kernel
    flip) with zero-valued virtual elements in padded regions.
    """

    name: str
    out_channels: int
    in_channels: int
    kernel: tuple
    stride: tuple = (1, 1, 1)
    padding: tuple = (0, 0, 0)
    weights: np.ndarray = None
    bias: np.ndarray = None

    def __post_init__(self):
        if self.out_channels < 1 or self.in_channels < 1:
            raise ShapeError(f"{self.name}: channel counts must be >= 1")
        self.kernel = _check_triple(f"{self.name} kernel", self.kernel, 1)
        self.stride = _check_triple(f"{self.name} stride", self.stride, 1)
        self.padding = _check_triple(f"{self.name} padding", self.padding, 0)
        wshape = (self.out_channels, self.in_channels) + self.kernel
        if self.weights is None:
            self.weights = np.zeros(wshape, dtype=np.float32)
        else:
            self.weights = np.asarray(self.weights)
            if self.weights.shape != wshape:
                raise ShapeError(
                    f"{self.name}: weights shape {self.weights.shape} != {wshape}"
                )
        if self.bias is None:
            self.bias = np.zeros(self.out_channels, dtype=self.weights.dtype)
        else:
            self.bias = np.asarray(self.bias)
            if self.bias.shape != (self.out_channels,):
                raise ShapeError(
                    f"{self.name}: bias shape {self.bias.shape} != ({self.out_channels},)"
                )

    def parameter_count(self):
        kh, kw, kd = self.kernel
        return self.out_channels * (self.in_channels * kh * kw * kd + 1)

    def output_dims(self, in_dims):
        """(h, w, d) -> (h', w', d'), raising ShapeError with the axis name."""
        return tuple(
            out_dim(s, k, st, p, axis=f"{self.name} {ax}")
            for s, k, st, p, ax in zip(
                in_dims, self.kernel, self.stride, self.padding, AXES[2:]
            )
        )


@dataclass
class Pool3dSpec:
    """3D average pooling geometry; the divisor is always the kernel volume."""

    kernel: tuple
    stride: tuple = (1, 1, 1)
    padding: tuple = (0, 0, 0)
    name: str = "pool"

    def __post_init__(self):
        self.kernel = _check_triple(f"{self.name} kernel", self.kernel, 1)
        self.stride = _check_triple(f"{self.name} stride", self.stride, 1)
        self.padding = _check_triple(f"{self.name} padding", self.padding, 0)
        for axis, k, p in zip(AXES[2:], self.kernel, self.padding):
            if p >= k:
                raise ShapeError(
                    f"{self.name} padding along {axis} must be < kernel extent, "
                    f"got p={p}, k={k}"
                )

    @property
    def volume(self):
        kh, kw, kd = self.kernel
        return kh * kw * kd

    def output_dims(self, in_dims):
        return tuple(
            out_dim(s, k, st, p, axis=f"{self.name} {ax}")
            for s, k, st, p, ax in zip(
                in_dims, self.kernel, self.stride, self.padding, AXES[2:]
            )
        )
