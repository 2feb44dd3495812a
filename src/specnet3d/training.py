"""SGD-with-momentum training loop, evaluation pass, and full-scene
prediction.

The loop is strictly sequential: batches are visited in the shuffled
order drawn from one seeded generator, and every kernel accumulates in a
fixed order, so identical seeds reproduce checkpoints and histories
bitwise.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from .data import HsiCube, LabelGrid, SplitManifest, extract_patch, normalize
from .errors import ConfigError, MismatchError, NumericError, ShapeError, SplitError
from .metrics import ConfusionMatrix, overall_accuracy
from .network import Model, backward, forward, save_checkpoint
from .ops import softmax_cross_entropy


@dataclass
class OptimizerState:
    """Classical momentum SGD with coupled weight decay (biases exempt)."""

    learning_rate: float = 0.02
    momentum: float = 0.9
    weight_decay: float = 0.0005
    velocity: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.learning_rate < 0:
            raise ConfigError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if not (0.0 <= self.momentum < 1.0):
            raise ConfigError(f"momentum must lie in [0, 1), got {self.momentum}")
        if self.weight_decay < 0:
            raise ConfigError(f"weight_decay must be >= 0, got {self.weight_decay}")


@dataclass
class TrainConfig:
    epochs: int = 100
    batch_size: int = 64
    shuffle_seed: int = 0
    per_class_train: int = 200
    log_every: int = 1

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")


def sgd_step(params, grads, state: OptimizerState):
    """v <- mu*v + (g + lambda*w); w <- w - eta*v, in place per parameter."""
    for name, w in params.items():
        g = grads[name]
        if g.shape != w.shape:
            raise ShapeError(
                f"{name}: gradient shape {g.shape} != parameter shape {w.shape}"
            )
        g = g.astype(w.dtype, copy=False)
        if state.weight_decay > 0 and not name.endswith(".bias"):
            g = g + state.weight_decay * w
        v = state.velocity.get(name)
        if v is None:
            v = np.zeros_like(w)
        v = state.momentum * v + g
        state.velocity[name] = v
        w -= state.learning_rate * v


def _check_pixel(labels: LabelGrid, entry):
    row, col = int(entry[0]), int(entry[1])
    cls = int(labels.labels[row, col])
    if cls == 0:
        raise SplitError(f"pixel ({row}, {col}) is unlabeled")
    if len(entry) > 2 and int(entry[2]) != cls:
        raise MismatchError(
            f"pixel ({row}, {col}) is labeled {cls} but listed as {entry[2]}"
        )
    return row, col, cls


def _batched(seq, size):
    for start in range(0, len(seq), size):
        yield seq[start:start + size]


def _patch_batch(cube: HsiCube, coords, window):
    batch = np.zeros((len(coords), 1, window, window, cube.bands),
                     dtype=cube.values.dtype)
    for i, (r, c) in enumerate(coords):
        batch[i] = extract_patch(cube, r, c, window)[0]
    return batch


def _forward_batch(model: Model, cube: HsiCube, coords, window):
    logits, _ = forward(model, _patch_batch(cube, coords, window))
    return logits


def _predict_pixels(model: Model, cube: HsiCube, coords, batch_size=256):
    """Argmax class (ties to the lowest index) for each (row, col), batched.

    Forward activations are bitwise batch-independent, so the grouping
    cannot change any prediction.
    """
    window = model.config.spatial_window
    preds = np.empty(len(coords), dtype=np.int64)
    for start in range(0, len(coords), batch_size):
        chunk = coords[start:start + batch_size]
        logits = _forward_batch(model, cube, chunk, window)
        preds[start:start + len(chunk)] = np.argmax(logits, axis=1) + 1
    return preds


def train(model: Model, cube: HsiCube, labels: LabelGrid, split: SplitManifest,
          config: TrainConfig, opt: OptimizerState, eval_test=False,
          checkpoint_path=None, history_path=None, log=None):
    """Run the epoch loop over the split's training pixels.

    The cube is min-max normalized from training-pixel statistics before
    any patch is cut.  Returns the per-epoch history; each entry carries
    the mean training loss and, with eval_test, the test overall accuracy.
    A non-finite batch loss raises NumericError before any checkpoint is
    written.
    """
    if model.config.spectral_depth != cube.bands:
        raise MismatchError(
            f"model expects {model.config.spectral_depth} bands, cube has {cube.bands}"
        )
    if (labels.height, labels.width) != (cube.height, cube.width):
        raise MismatchError(
            f"labels {labels.height}x{labels.width} do not match cube "
            f"{cube.height}x{cube.width}"
        )
    train_pixels = [_check_pixel(labels, e) for e in split.train]
    test_pixels = [_check_pixel(labels, e) for e in split.test]
    if not train_pixels:
        raise SplitError("split has no training pixels")

    norm = normalize(cube, split)
    window = model.config.spatial_window
    params = model.parameters()
    rng = np.random.default_rng(config.shuffle_seed)

    history = []
    history_fh = open(history_path, "w", encoding="utf-8") if history_path else None
    try:
        for epoch in range(1, config.epochs + 1):
            order = rng.permutation(len(train_pixels))
            loss_sum = 0.0
            for batch_no, batch_idx in enumerate(_batched(order, config.batch_size), 1):
                coords = [train_pixels[i][:2] for i in batch_idx]
                targets = np.asarray([train_pixels[i][2] - 1 for i in batch_idx])
                patches = _patch_batch(norm, coords, window)
                logits, cache = forward(model, patches, keep_intermediates=True)
                losses, grad_logits = softmax_cross_entropy(logits, targets)
                batch_loss = float(losses.sum())
                if not np.isfinite(batch_loss):
                    raise NumericError(
                        f"epoch {epoch}, batch {batch_no}: training loss is "
                        f"{batch_loss}; the run diverged (lower the learning rate)"
                    )
                loss_sum += batch_loss
                grads = backward(model, cache, grad_logits / len(batch_idx))
                sgd_step(params, grads, opt)
            entry = {"epoch": epoch, "mean_loss": loss_sum / len(train_pixels)}
            if eval_test and test_pixels:
                matrix = evaluate(model, norm, labels, test_pixels)
                entry["test_overall_accuracy"] = overall_accuracy(matrix)
            history.append(entry)
            if history_fh:
                history_fh.write(json.dumps(entry, sort_keys=True) + "\n")
            if log and (epoch % config.log_every == 0 or epoch == config.epochs):
                log(entry)
    finally:
        if history_fh:
            history_fh.close()
    if checkpoint_path:
        save_checkpoint(model, checkpoint_path)
    return history


def evaluate(model: Model, cube: HsiCube, labels: LabelGrid, pixel_set) -> ConfusionMatrix:
    """Confusion matrix over a labeled pixel set (pass the cube already
    normalized the same way training saw it)."""
    pixels = [_check_pixel(labels, e) for e in pixel_set]
    matrix = ConfusionMatrix.zeros(model.config.num_classes, labels.class_names)
    coords = [(r, c) for r, c, _ in pixels]
    preds = _predict_pixels(model, cube, coords)
    for (_, _, cls), pred in zip(pixels, preds):
        matrix.add(cls, int(pred))
    return matrix


def predict_map(model: Model, cube: HsiCube) -> np.ndarray:
    """Classify every pixel of the scene (zero-filled patches at borders);
    returns a (height, width) grid of classes in [1, C]."""
    if model.config.spectral_depth != cube.bands:
        raise MismatchError(
            f"model expects {model.config.spectral_depth} bands, cube has {cube.bands}"
        )
    coords = [(r, c) for r in range(cube.height) for c in range(cube.width)]
    preds = _predict_pixels(model, cube, coords)
    return preds.reshape(cube.height, cube.width)
