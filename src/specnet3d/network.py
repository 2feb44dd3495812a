"""The four-block residual 3D CNN: construction, shape trace, forward,
backward, parameter ledger, and the bit-exact checkpoint container.

Each block computes y = ReLU(ConvN(x)), z = ConvN_1(y), out = z + y (an
identity skip from the post-ReLU main convolution to the 1x1x1 projection
output), then average-pools the depth axis in blocks 1 and 2.  No
activation follows the residual addition, and the classifier consumes the
flattened block-4 output directly, in (c, h, w, d) order.

Activations stay channels-last in memory through the whole block stack;
they travel between layers as the (n, c, h, w, d) views the ops take and
return (see ops), so no layer copies to change layout.
"""

import json
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, FormatError, MismatchError, ShapeError
from .ops import (
    _conv3d_forward_cols,
    avgpool3d_backward,
    avgpool3d_forward,
    conv3d_backward,
    linear_backward,
    linear_forward,
    relu,
    relu_backward,
)
from .tensor import Conv3dSpec, Pool3dSpec

CHECKPOINT_FORMAT_VERSION = 1

# (main conv name, out_channels, kernel, stride, padding, pooled)
_BLOCK_PLAN = (
    ("Conv1", 20, (3, 3, 3), (1, 1, 1), (0, 0, 0), True),
    ("Conv2", 35, (3, 3, 3), (1, 1, 1), (0, 0, 0), True),
    ("Conv3", 35, (1, 1, 3), (1, 1, 1), (0, 0, 1), False),
    ("Conv4", 35, (1, 1, 2), (1, 1, 2), (0, 0, 1), False),
)
_POOL = dict(kernel=(1, 1, 3), stride=(1, 1, 2), padding=(0, 0, 1))

CONV_LAYER_NAMES = (
    "Conv1", "Conv1_1", "Conv2", "Conv2_1",
    "Conv3", "Conv3_1", "Conv4", "Conv4_1",
)
LAYER_NAMES = CONV_LAYER_NAMES + ("FC",)


@dataclass
class ModelConfig:
    spectral_depth: int
    num_classes: int
    spatial_window: int = 7

    def __post_init__(self):
        if self.spectral_depth < 1:
            raise ConfigError(f"spectral_depth must be >= 1, got {self.spectral_depth}")
        if self.num_classes < 1:
            raise ConfigError(f"num_classes must be >= 1, got {self.num_classes}")
        if self.spatial_window < 1 or self.spatial_window % 2 == 0:
            raise ConfigError(
                f"spatial_window must be odd and >= 1, got {self.spatial_window}"
            )

    def to_dict(self):
        return {
            "spectral_depth": self.spectral_depth,
            "num_classes": self.num_classes,
            "spatial_window": self.spatial_window,
        }

    @classmethod
    def from_dict(cls, d):
        return cls(
            spectral_depth=int(d["spectral_depth"]),
            num_classes=int(d["num_classes"]),
            spatial_window=int(d["spatial_window"]),
        )


@dataclass
class ResidualBlockSpec:
    """Main conv, its 1x1x1 projection, and the optional trailing pool."""

    main: Conv3dSpec
    proj: Conv3dSpec
    pool: Pool3dSpec | None = None

    def __post_init__(self):
        if not (
            self.proj.in_channels == self.proj.out_channels == self.main.out_channels
        ):
            raise ShapeError(
                f"{self.proj.name}: projection must preserve {self.main.name}'s "
                f"{self.main.out_channels} channels for the identity skip"
            )
        if self.proj.kernel != (1, 1, 1) or self.proj.stride != (1, 1, 1):
            raise ShapeError(f"{self.proj.name}: projection must be 1x1x1, stride 1")


@dataclass
class Model:
    config: ModelConfig
    blocks: list
    fc_weights: np.ndarray
    fc_bias: np.ndarray
    rng_seed: int = 0

    def parameters(self):
        """Live parameter arrays keyed '<layer>.weight' / '<layer>.bias'."""
        params = {}
        for block in self.blocks:
            for spec in (block.main, block.proj):
                params[f"{spec.name}.weight"] = spec.weights
                params[f"{spec.name}.bias"] = spec.bias
        params["FC.weight"] = self.fc_weights
        params["FC.bias"] = self.fc_bias
        return params

    @property
    def feature_length(self):
        return self.fc_weights.shape[1]


def _pool_spec(conv_name):
    """The depth pool closing the block whose main conv is ConvN: PoolN."""
    return Pool3dSpec(**_POOL, name=f"Pool{conv_name[len('Conv'):]}")


def shape_trace(config: ModelConfig):
    """Stage-by-stage (name, (channels, h, w, d)) plus a final flatten entry.

    Raises ShapeError naming the first stage whose window no longer fits.
    The 1x1x1 projections never change dims and are omitted.
    """
    w = config.spatial_window
    dims = (w, w, config.spectral_depth)
    channels = 1
    trace = [("input", (channels, *dims))]
    for name, out_channels, kernel, stride, padding, pooled in _BLOCK_PLAN:
        conv = Conv3dSpec(name, out_channels, channels, kernel, stride, padding)
        dims = conv.output_dims(dims)
        channels = out_channels
        trace.append((name, (channels, *dims)))
        if pooled:
            pool = _pool_spec(name)
            dims = pool.output_dims(dims)
            trace.append((pool.name, (channels, *dims)))
    flat = channels * dims[0] * dims[1] * dims[2]
    trace.append(("flatten", flat))
    return trace


def flattened_length(config: ModelConfig):
    return shape_trace(config)[-1][1]


def _fan_in_uniform(rng, shape, fan_in, dtype=np.float32):
    limit = np.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


def build_model(config: ModelConfig, rng_seed: int) -> Model:
    """Instantiate the fixed architecture with fan-in uniform weights and
    zero biases, reproducibly from rng_seed."""
    flat = flattened_length(config)  # validates every stage first
    rng = np.random.default_rng(rng_seed)

    blocks = []
    in_channels = 1
    for name, out_channels, kernel, stride, padding, pooled in _BLOCK_PLAN:
        kh, kw, kd = kernel
        main = Conv3dSpec(
            name, out_channels, in_channels, kernel, stride, padding,
            weights=_fan_in_uniform(
                rng, (out_channels, in_channels, kh, kw, kd), in_channels * kh * kw * kd
            ),
        )
        proj = Conv3dSpec(
            f"{name}_1", out_channels, out_channels, (1, 1, 1),
            weights=_fan_in_uniform(
                rng, (out_channels, out_channels, 1, 1, 1), out_channels
            ),
        )
        pool = _pool_spec(name) if pooled else None
        blocks.append(ResidualBlockSpec(main, proj, pool))
        in_channels = out_channels

    fc_weights = _fan_in_uniform(rng, (config.num_classes, flat), flat)
    fc_bias = np.zeros(config.num_classes, dtype=np.float32)
    return Model(config=config, blocks=blocks, fc_weights=fc_weights,
                 fc_bias=fc_bias, rng_seed=rng_seed)


def forward(model: Model, x, keep_intermediates=False, use_skip=True):
    """Run the network; returns (logits, cache), cache None unless kept.

    x must have dims (n, 1, window, window, S) matching model.config.
    """
    x = np.asarray(x)
    w = model.config.spatial_window
    expected_tail = (1, w, w, model.config.spectral_depth)
    if x.ndim != 5 or x.shape[1:] != expected_tail:
        raise ShapeError(
            f"input dims {x.shape} do not match (n, 1, {w}, {w}, "
            f"{model.config.spectral_depth})"
        )
    cache = {"blocks": [], "use_skip": use_skip} if keep_intermediates else None
    out = x
    for block in model.blocks:
        x_in = out
        pre, main_cols = _conv3d_forward_cols(x_in, block.main)
        y = relu(pre)
        z, proj_cols = _conv3d_forward_cols(y, block.proj)
        out = z + y if use_skip else z
        pre_pool_dims = out.shape
        if block.pool is not None:
            out = avgpool3d_forward(out, block.pool)
        if cache is not None:
            cache["blocks"].append(
                {
                    "x_in": x_in,
                    "pre": pre,
                    "y": y,
                    "pre_pool_dims": pre_pool_dims,
                    "main_cols": main_cols,
                    "proj_cols": proj_cols,
                }
            )
    flat = out.reshape(out.shape[0], -1)
    if flat.shape[1] != model.feature_length:
        raise ShapeError(
            f"flattened length {flat.shape[1]} != classifier width "
            f"{model.feature_length}"
        )
    logits = linear_forward(flat, model.fc_weights, model.fc_bias)
    if cache is not None:
        cache["flat"] = flat
        cache["final_dims"] = out.shape
    return logits, cache


def backward(model: Model, cache, grad_logits):
    """Parameter gradients keyed like Model.parameters(), from a forward
    cache and the upstream gradient on the logits."""
    if cache is None:
        raise ConfigError("backward requires a cache from forward(keep_intermediates=True)")
    use_skip = cache["use_skip"]
    grads = {}
    grad_flat, grad_fcw, grad_fcb = linear_backward(
        cache["flat"], model.fc_weights, grad_logits
    )
    grads["FC.weight"] = grad_fcw
    grads["FC.bias"] = grad_fcb

    g = grad_flat.reshape(cache["final_dims"])
    for block, saved in zip(reversed(model.blocks), reversed(cache["blocks"])):
        if block.pool is not None:
            g = avgpool3d_backward(saved["pre_pool_dims"], block.pool, g)
        # out = z + y: the skip feeds g straight back to y alongside the
        # projection's input gradient
        gy, gw_proj, gb_proj = conv3d_backward(
            saved["y"], block.proj, g, cols=saved["proj_cols"]
        )
        if use_skip:
            gy += g
        grads[f"{block.proj.name}.weight"] = gw_proj
        grads[f"{block.proj.name}.bias"] = gb_proj
        gpre = relu_backward(saved["pre"], gy)
        # nothing consumes the gradient of the network input
        g, gw_main, gb_main = conv3d_backward(
            saved["x_in"], block.main, gpre, cols=saved["main_cols"],
            input_grad=block is not model.blocks[0],
        )
        grads[f"{block.main.name}.weight"] = gw_main
        grads[f"{block.main.name}.bias"] = gb_main
    return grads


def param_count(model: Model):
    """Per-layer trainable parameter counts plus (conv_total, total)."""
    counts = {}
    for block in model.blocks:
        for spec in (block.main, block.proj):
            counts[spec.name] = spec.parameter_count()
    conv_total = sum(counts.values())
    counts["FC"] = model.fc_weights.size + model.fc_bias.size
    return counts, conv_total, conv_total + counts["FC"]


def _layer_arrays(model: Model):
    """(name, weights, bias) in checkpoint order: Conv1..Conv4_1 then FC."""
    out = []
    for block in model.blocks:
        for spec in (block.main, block.proj):
            out.append((spec.name, spec.weights, spec.bias))
    out.append(("FC", model.fc_weights, model.fc_bias))
    return out


def _raw_path(json_path):
    s = str(json_path)
    if not s.endswith(".json"):
        raise FormatError(f"checkpoint manifest path must end in .json: {s}")
    return s[: -len(".json")] + ".raw"


def save_checkpoint(model: Model, json_path):
    """Write the manifest (.json) and the raw little-endian float32 blob
    (.raw); layers in network order, weights before bias."""
    layers = _layer_arrays(model)
    manifest = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "config": model.config.to_dict(),
        "rng_seed": model.rng_seed,
        "layers": [
            {"name": name, "weight_shape": list(w.shape), "bias_shape": list(b.shape)}
            for name, w, b in layers
        ],
    }
    blob = bytearray()
    for _, w, b in layers:
        blob += np.ascontiguousarray(w, dtype="<f4").tobytes()
        blob += np.ascontiguousarray(b, dtype="<f4").tobytes()
    raw_path = _raw_path(json_path)
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(raw_path, "wb") as fh:
        fh.write(bytes(blob))


def load_checkpoint(json_path) -> Model:
    """Rebuild a Model bit-exactly from its manifest + blob pair."""
    with open(json_path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    version = manifest.get("format_version")
    if version != CHECKPOINT_FORMAT_VERSION:
        raise FormatError(f"unknown checkpoint format_version {version!r}")
    config = ModelConfig.from_dict(manifest["config"])
    model = build_model(config, rng_seed=int(manifest.get("rng_seed", 0)))

    layers = _layer_arrays(model)
    declared = manifest["layers"]
    if [d["name"] for d in declared] != [name for name, _, _ in layers]:
        raise FormatError(
            f"checkpoint layer order {[d['name'] for d in declared]} does not "
            f"match the architecture"
        )
    for d, (name, w, b) in zip(declared, layers):
        if tuple(d["weight_shape"]) != w.shape or tuple(d["bias_shape"]) != b.shape:
            raise MismatchError(
                f"{name}: checkpoint shapes {d['weight_shape']}/{d['bias_shape']} "
                f"do not match model shapes {list(w.shape)}/{list(b.shape)}"
            )

    with open(_raw_path(json_path), "rb") as fh:
        raw = fh.read()
    expected = sum(w.size + b.size for _, w, b in layers) * 4
    if len(raw) != expected:
        raise FormatError(
            f"checkpoint blob holds {len(raw)} bytes, expected {expected}"
        )
    offset = 0
    for _, w, b in layers:
        for arr in (w, b):
            nbytes = arr.size * 4
            arr[...] = np.frombuffer(
                raw, dtype="<f4", count=arr.size, offset=offset
            ).reshape(arr.shape)
            offset += nbytes
    return model
