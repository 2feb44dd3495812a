"""The four-block residual 3D CNN: construction, shape trace, forward,
backward, parameter ledger, and the bit-exact checkpoint.

Each block computes y = ReLU(ConvN(x)), z = ConvN_1(y), out = z + y (an
identity skip from the post-ReLU main convolution to the 1x1x1 projection
output), then average-pools the depth axis in blocks 1 and 2.  No
activation follows the residual addition, and the classifier consumes the
flattened block-4 output directly, in (c, h, w, d) order.  The skip is
part of the architecture, not an option.

The architecture is stated once, in _BLOCK_PLAN, and the layer names
follow from it.  _walk walks it once, for the dims and the blocks:
shape_trace is its trace, and _assemble adds the classifier to make the
zero model every model starts as.  Model.parameters() is the one
parameter order, in which build_model draws each weight into place and
load_checkpoint fills each array from the blob.  The checkpoint is a
data container (manifest + float32 blob) whose layer list is the model's
_layer_table, the one layer check on loading.

Activations stay channels-last in memory through the whole block stack;
they travel between layers as the (n, c, h, w, d) views the ops take and
return (see ops), so no layer copies to change layout.

forward and backward take batches of window x window patches, the
training path.  They cut a batch into shards of SHARD samples and fan
them out over threads (parallel.fan_out).  A shard is a whole pass: the
block stack and then the classifier.  A shard's cache keeps, per block,
the block's input x_in, the main conv's patch stack main_cols, and the
ReLU output y, which is all backward needs: y is the projection's patch
stack, its dims are the pool's input dims, and y > 0 is ReLU's mask.
backward spends the cache: a shard pops each block's activations as it
walks back, so they are freed once that block's gradients exist.
backward's contractions multiply per-shard matrices, and each gradient,
the classifier's included, is the sum of the shards' in shard order.

stream is the inference path.  Every layer before the classifier is
spatially valid or depth-only, so a scene's pixels share their block
outputs.  stream walks one strip of STRIP output columns down the scene
in steps of STEP rows, and each stage of the network (block 1, blocks
2-4, the classifier) computes each of its output rows once per strip,
keeping the rows the next step reads again in a line buffer (fused-layer
inference; Alwani et al. 2016, "Fused-layer CNN accelerators").
class_grid, the one inference pass of evaluate and predict_map, fans a
pass out over threads one strip per job, with OpenBLAS held at one
thread.  A step's bits depend on its input rows alone, not on which
other pixels are wanted, the worker or the BLAS thread count.  They
match forward on each pixel's own patch to float32 rounding, not
bitwise: a step and a patch hand BLAS GEMMs of different shapes.

Every job of the network, a shard or a strip, runs with float32
subnormals flushed to zero (parallel.flush_subnormals), and the first
one keeps freed heap pages in the process (parallel.steady_heap), so a
long run of train steps neither slows on subnormal gradients nor faults
its working set in again every step.
"""

import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import data
from .data import _field, _read_header, _read_payload, _write_container
from .errors import ConfigError, FormatError, ShapeError
from .ops import (
    _channels_first,
    _conv3d_forward_cols,
    avgpool3d_backward,
    avgpool3d_forward,
    conv3d_backward,
    linear_backward,
    linear_forward,
    relu,
    relu_backward,
)
from .parallel import fan_out, flush_subnormals, steady_heap
from .tensor import Conv3dSpec, Pool3dSpec, out_dim

CHECKPOINT_FORMAT_VERSION = 1

# (main conv name, out_channels, kernel, stride, padding, pooled)
_BLOCK_PLAN = (
    ("Conv1", 20, (3, 3, 3), (1, 1, 1), (0, 0, 0), True),
    ("Conv2", 35, (3, 3, 3), (1, 1, 1), (0, 0, 0), True),
    ("Conv3", 35, (1, 1, 3), (1, 1, 1), (0, 0, 1), False),
    ("Conv4", 35, (1, 1, 2), (1, 1, 2), (0, 0, 1), False),
)
_POOL = dict(kernel=(1, 1, 3), stride=(1, 1, 2), padding=(0, 0, 1))

# Samples per shard of a patch batch: forward and backward fan a batch out
# shard by shard, and conv gradients are summed over shards in shard
# order.  An algorithm constant, not a setting.
SHARD = 32

# Output columns of one inference strip, and output rows of one step down
# it (stream).  Algorithm constants like SHARD, not settings: every step
# of every strip runs at the one shape they fix.
STRIP = 12
STEP = 4

# each block's main conv ConvN, then its projection ConvN_1
CONV_LAYER_NAMES = tuple(n for name, *_ in _BLOCK_PLAN for n in (name, f"{name}_1"))
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


@dataclass
class ResidualBlockSpec:
    """Main conv, its 1x1x1 projection, and the optional trailing pool."""

    main: Conv3dSpec
    proj: Conv3dSpec
    pool: Pool3dSpec | None = None


@dataclass
class Model:
    config: ModelConfig
    blocks: list
    fc_weights: np.ndarray
    fc_bias: np.ndarray
    rng_seed: int

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


def _walk(config: ModelConfig):
    """(blocks, trace): the residual blocks of config's model, walked once
    from _BLOCK_PLAN, with zero weights and biases, and its shape trace
    (see shape_trace).  A stage whose window no longer fits raises
    ShapeError naming it."""
    w = config.spatial_window
    dims = (w, w, config.spectral_depth)
    channels = 1
    trace = [("input", (channels, *dims))]
    blocks = []
    for name, out_channels, kernel, stride, padding, pooled in _BLOCK_PLAN:
        main = Conv3dSpec(name, out_channels, channels, kernel, stride, padding)
        proj = Conv3dSpec(f"{name}_1", out_channels, out_channels, (1, 1, 1))
        # PoolN, the depth pool closing the block of ConvN
        pool = Pool3dSpec(**_POOL, name=f"Pool{name[len('Conv'):]}") if pooled else None
        blocks.append(ResidualBlockSpec(main, proj, pool))
        channels = out_channels
        dims = main.output_dims(dims)
        trace.append((name, (channels, *dims)))
        if pool is not None:
            dims = pool.output_dims(dims)
            trace.append((pool.name, (channels, *dims)))
    trace.append(("flatten", channels * math.prod(dims)))
    return blocks, trace


def _assemble(config: ModelConfig, rng_seed, blocks, trace):
    """The fixed architecture for config, walked (_walk), with zero weights."""
    return Model(config=config, blocks=blocks,
                 fc_weights=np.zeros((config.num_classes, trace[-1][1]), np.float32),
                 fc_bias=np.zeros(config.num_classes, np.float32), rng_seed=rng_seed)


def shape_trace(config: ModelConfig):
    """Stage-by-stage (name, (channels, h, w, d)) plus a final flatten entry.

    Raises ShapeError naming the first stage whose window no longer fits.
    The 1x1x1 projections never change dims and are omitted.
    """
    return _walk(config)[1]


def build_model(config: ModelConfig, rng_seed: int) -> Model:
    """Instantiate the fixed architecture with fan-in uniform weights and
    zero biases, reproducibly from rng_seed: each weight of parameters(),
    in its order, is drawn in place."""
    model = _assemble(config, rng_seed, *_walk(config))
    rng = np.random.default_rng(rng_seed)
    for name, p in model.parameters().items():
        if name.endswith(".weight"):
            limit = np.sqrt(6.0 / math.prod(p.shape[1:]))  # fan-in
            p[...] = rng.uniform(-limit, limit, size=p.shape)
    return model


def _block(block: ResidualBlockSpec, x, cache=None):
    """One residual block over a (n, c, h, w, d) input; appends its saved
    activations to cache when one is given."""
    pre, main_cols = _conv3d_forward_cols(x, block.main)
    y = relu(pre)
    del pre  # backward takes ReLU's gradient from y
    out, _ = _conv3d_forward_cols(y, block.proj)
    out += y
    if block.pool is not None:
        out = avgpool3d_forward(out, block.pool)
    if cache is not None:
        cache["blocks"].append({"x_in": x, "y": y, "main_cols": main_cols})
    return out


def _run_blocks(model: Model, x, cache=None):
    """The four residual blocks over a (n, 1, h, w, S) input; appends each
    block's saved activations to cache when one is given."""
    for block in model.blocks:
        x = _block(block, x, cache)
    return x


def _fan_out(count, job):
    """fan_out for the network's jobs: each runs with subnormals flushed,
    on a heap that keeps its freed pages (see the module docstring)."""
    steady_heap()

    def flushed(i):
        with flush_subnormals():
            return job(i)

    return fan_out(count, flushed)


def _shards(n):
    """The batch's SHARD-sample slices."""
    return [slice(start, start + SHARD) for start in range(0, n, SHARD)]


def forward(model: Model, x, keep_intermediates=False):
    """Run the network on a batch of patches; returns (logits, cache),
    cache None unless kept.

    x is a (n, 1, window, window, S) batch of zero-filled patches.  Each
    SHARD-sample shard of the batch runs the block stack and then the
    classifier, the shards fanned out over threads (parallel.fan_out); a
    shard copies its block-4 outputs, in (c, h, w, d) order, into its own
    rows of the batch's cache["flat"], and shard i's cache["shards"][i]
    ["blocks"] holds one {"x_in", "y", "main_cols"} dict per block (see
    the module docstring).  Returns (n, classes) logits.  The logits and
    the cache are the caller's: no later call writes into them.  The
    cache is backward's to spend: backward empties each shard's
    ["blocks"] as it goes.
    """
    x = np.asarray(x)
    w = model.config.spatial_window
    if x.ndim != 5 or x.shape[0] == 0 or x.shape[1:] != (1, w, w, model.config.spectral_depth):
        raise ShapeError(
            f"input dims {x.shape} do not match (n >= 1, 1, {w}, {w}, "
            f"{model.config.spectral_depth}): forward takes patches only"
        )
    slices = _shards(x.shape[0])
    flat = np.empty((x.shape[0], model.fc_weights.shape[1]),
                    np.result_type(x, *model.parameters().values()))

    def shard(i):
        cache = {"blocks": []} if keep_intermediates else None
        out = _run_blocks(model, x[slices[i]], cache)
        features = flat[slices[i]]
        np.copyto(features.reshape(out.shape), out)
        return linear_forward(features, model.fc_weights, model.fc_bias), cache

    logits, caches = zip(*_fan_out(len(slices), shard))
    cache = {"shards": caches, "flat": flat} if keep_intermediates else None
    return np.concatenate(logits), cache


def _stages(model: Model):
    """The stream's stages, each (blocks, shrink): the residual blocks it
    runs, none for the classifier, and how many rows, and columns, its
    output has fewer than its input.  A stage starts at each block whose
    main conv, the only layer of a block that changes them, shrinks them
    (Conv1 and Conv2 are 3x3 in space); the classifier reads a k x k
    window of block-4 positions per pixel."""
    size = model.config.spatial_window
    stages = []
    for block in model.blocks:
        out = out_dim(size, block.main.kernel[0], block.main.stride[0], block.main.padding[0])
        if out < size or not stages:
            stages.append(([], size - out))
        stages[-1][0].append(block)
        size = out
    return stages + [((), size - 1)]


def stream(model: Model, values, col, steps):
    """Logits of one inference strip, a step of STEP output rows at a time.

    values is the (height, width, S) scene, read as zeros past its edges.
    The strip is output columns [col, col + STRIP), and steps holds the
    indices i, in any order, of the wanted steps: scene rows
    [i * STEP, (i + 1) * STEP).  Yields (row, logits) per wanted step in
    row order, logits the step's (rows, cols, classes), cropped to the
    scene.

    Stage s (_stages) walks the strip down in steps too: its step i turns
    STEP + shrink input rows into the output rows
    lag + [i * STEP, (i + 1) * STEP), lag being the shrink of the stages
    after it.  The first stage cuts its input from the scene.  A later
    stage reads a line buffer: the last shrink rows the stage before gave
    in its earlier steps, then that stage's step i.  Every step runs at
    one shape, and each output row depends on its own input rows alone,
    so a step's bits do not depend on the run it is part of.  A wanted
    step i runs each stage from step i - ceil(lag / STEP) on; a step
    whose predecessor did not run starts from a zeroed line buffer, which
    feeds only rows that no wanted step reads.
    """
    stages = _stages(model)
    lags = [sum(shrink for _, shrink in stages[s + 1:]) for s in range(len(stages))]
    plans = [set() for _ in stages]
    for i in steps:
        for plan, lag in zip(plans, lags):
            plan.update(range(i - -(-lag // STEP), i + 1))
    height, width = values.shape[:2]
    half = model.config.spatial_window // 2
    cut = (STEP + stages[0][1], STRIP + lags[0] + stages[0][1])
    buffers = [None] * len(stages)  # stage s's input, channels-first view
    for t in sorted(set().union(*plans)):
        for s, (blocks, _) in enumerate(stages[:-1]):
            if t in plans[s]:
                if s == 0:
                    x = data._cut(values, t * STEP + lags[0] - half, col - half, *cut)
                else:
                    x = buffers[s]
                for block in blocks:
                    x = _block(block, x)
                buffers[s + 1] = _line_buffer(buffers[s + 1], x, stages[s + 1][1],
                                              t - 1 in plans[s])
        if t in plans[-1]:
            logits = _classify(model, buffers[-1])
            yield t * STEP, logits[:height - t * STEP, :width - col]


def class_grid(model: Model, values, pixels=None):
    """(height, width) int64 grid of the classes in [1, C] the model gives
    the (height, width, S) scene values, ties going to the lowest class.

    pixels, an (n, >= 2) int array of (row, col, ...) rows, names the
    wanted pixels: only the steps holding one of them run, with the
    earlier steps they read, and pixels outside those steps read 0.  With
    none, every step of every strip runs.  A strip's job writes its steps'
    classes straight into the grid, where no other step writes.
    """
    height, width = values.shape[:2]
    strips = -(-width // STRIP)  # each wanted step's key is step * strips + strip
    keys = (range(-(-height // STEP) * strips) if pixels is None
            else set((pixels[:, 0] // STEP * strips + pixels[:, 1] // STRIP).tolist()))
    steps_by_col = {}
    for key in keys:
        steps_by_col.setdefault(key % strips * STRIP, []).append(key // strips)
    plan = sorted(steps_by_col.items())
    grid = np.zeros((height, width), dtype=np.int64)

    def strip(i):
        col, steps = plan[i]
        for row, logits in stream(model, values, col, steps):
            grid[row:row + logits.shape[0], col:col + logits.shape[1]] = (
                np.argmax(logits, axis=2) + 1
            )

    _fan_out(len(plan), strip)
    return grid


def _line_buffer(buffer, out, shrink, continued):
    """The next stage's input after a step: its first shrink rows are the
    last shrink rows it held, when continued from the step before, else
    zeros, and the rest is the step's output out.  A strip's first step
    allocates it, channels-last; later steps rewrite it in place."""
    n, c, h, w, d = out.shape
    if buffer is None:
        buffer = _channels_first(np.empty((n, h + shrink, w, d, c), out.dtype))
    if continued:
        buffer[:, :, :shrink] = buffer[:, :, h:h + shrink]
    else:
        buffer[:, :, :shrink] = 0
    buffer[:, :, shrink:] = out
    return buffer


def _classify(model: Model, x):
    """(STEP, STRIP, classes) logits from the classifier's input rows x,
    (1, c, STEP + k - 1, STRIP + k - 1, d): each pixel's features are the
    k x k window of block-4 positions below it, in (c, h, w, d) order."""
    _, c, h, w, d = x.shape
    k = h - STEP + 1
    _, sc, sh, sw, sd = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x, (STEP, STRIP, c, k, k, d), (sh, sw, sc, sh, sw, sd), writeable=False
    )
    features = windows.reshape(STEP * STRIP, -1)
    return linear_forward(features, model.fc_weights, model.fc_bias).reshape(STEP, STRIP, -1)


def backward(model: Model, cache, grad_logits):
    """Parameter gradients keyed like Model.parameters(), from a forward
    cache and the upstream gradient on the logits.  The gradients are the
    caller's: no later call writes into them.

    Each shard runs the classifier's backward and then the block stack's,
    fanned out like forward, and each gradient is the sum of the shards'
    in shard order, so its bits depend on SHARD and not on how many
    threads ran the shards.  backward spends the cache (_block_grads): a
    cache it has walked, even in part, is a ConfigError.
    """
    if cache is None:
        raise ConfigError("backward requires a cache from forward(keep_intermediates=True)")
    if any(len(shard["blocks"]) != len(model.blocks) for shard in cache["shards"]):
        raise ConfigError("backward has already spent this cache; run forward("
                          "keep_intermediates=True) again")
    flat = cache["flat"]
    slices = _shards(len(flat))

    def shard(i):
        saved = cache["shards"][i]["blocks"]
        grad_flat, grad_fcw, grad_fcb = linear_backward(
            flat[slices[i]], model.fc_weights, grad_logits[slices[i]]
        )
        # block 4 has no pool, and out = z + y has y's dims
        g = grad_flat.reshape(saved[-1]["y"].shape)
        return {"FC.weight": grad_fcw, "FC.bias": grad_fcb,
                **_block_grads(model, saved, g)}

    per_shard = _fan_out(len(slices), shard)
    grads = per_shard[0]
    for shard_grads in per_shard[1:]:
        for name, grad in shard_grads.items():
            grads[name] += grad
    return grads


def _block_grads(model: Model, saved_blocks, g):
    """Conv parameter gradients of one shard, from its saved block
    activations and the gradient on its block-4 output.  It pops each
    block's activations off saved_blocks as it walks back, so they are
    freed once the block's gradients exist."""
    grads = {}
    for block in reversed(model.blocks):
        saved = saved_blocks.pop()
        if block.pool is not None:
            g = avgpool3d_backward(saved["y"].shape, block.pool, g)
        # out = z + y: the skip feeds g straight back to y alongside the
        # projection's input gradient; the projection's patch stack is y
        gy, gw_proj, gb_proj = conv3d_backward(saved["y"], block.proj, g)
        gy += g
        grads[f"{block.proj.name}.weight"] = gw_proj
        grads[f"{block.proj.name}.bias"] = gb_proj
        # y > 0 exactly where ReLU's input is > 0
        gpre = relu_backward(saved["y"], gy)
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
    params = model.parameters()
    counts = {name: params[f"{name}.weight"].size + params[f"{name}.bias"].size
              for name in LAYER_NAMES}
    total = sum(counts.values())
    return counts, total - counts["FC"], total


def _layer_table(model: Model):
    """The checkpoint's layer list: names and shapes, in network order."""
    params = model.parameters()
    return [
        {
            "name": name,
            "weight_shape": list(params[f"{name}.weight"].shape),
            "bias_shape": list(params[f"{name}.bias"].shape),
        }
        for name in LAYER_NAMES
    ]


def save_checkpoint(model: Model, json_path):
    """Write the manifest (.json) and the raw little-endian float32 blob
    (.raw), layers in network order, weights before bias; a non-finite
    parameter, which a load refuses, is a FormatError before any write."""
    if not all(np.isfinite(p).all() for p in model.parameters().values()):
        raise FormatError("checkpoint payload contains non-finite values")
    manifest = {
        "config": asdict(model.config),
        "rng_seed": model.rng_seed,
        "layers": _layer_table(model),
    }
    _write_container(json_path, CHECKPOINT_FORMAT_VERSION, manifest,
                     model.parameters().values(), "<f4")


def load_checkpoint(json_path) -> Model:
    """Rebuild a Model bit-exactly from its manifest + blob pair.  config,
    rng_seed and layers are required fields, each checked by _field; the
    first layer entry that differs from _layer_table, or a non-finite blob,
    is a FormatError.  One walk sizes the blob, checked before the
    classifier is made, and the model."""
    manifest = _read_header(json_path, "checkpoint", (CHECKPOINT_FORMAT_VERSION,),
                            [("config", dict), ("rng_seed", int), ("layers", list)])
    config = {f.name: _field(manifest["config"], "checkpoint config", f.name, int)
              for f in fields(ModelConfig)}
    try:
        config = ModelConfig(**config)
        blocks, trace = _walk(config)
    except (ConfigError, ShapeError) as exc:
        raise FormatError(f"checkpoint config in {json_path} builds no model: {exc}") from exc
    # the blob's size, checked before the classifier the config sizes is made
    convs = sum(a.size for b in blocks for s in (b.main, b.proj) for a in (s.weights, s.bias))
    blob = _read_payload(json_path, "checkpoint", "<f4",
                         convs + config.num_classes * (trace[-1][1] + 1))
    if not np.isfinite(blob).all():
        raise FormatError("checkpoint payload contains non-finite values")
    model = _assemble(config, manifest["rng_seed"], blocks, trace)
    declared, table = manifest["layers"], _layer_table(model)
    for i in range(max(len(declared), len(table))):
        got, want = declared[i:i + 1] or "nothing", table[i:i + 1] or "nothing"
        if got != want:
            raise FormatError(
                f"checkpoint layer entry {i} is {got}, but its config builds {want}"
            )
    params = list(model.parameters().values())  # the blob's order
    sizes = [p.size for p in params]
    for p, piece in zip(params, np.split(blob, np.cumsum(sizes)[:-1])):
        p[...] = piece.reshape(p.shape)
    return model
