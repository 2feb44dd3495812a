"""SGD-with-momentum training loop, evaluation pass, and full-scene
prediction.

The loop is sequential: batches are visited in the shuffled order drawn
from one seeded generator, and every kernel accumulates in a fixed order,
so identical seeds reproduce checkpoints and histories bitwise.  Within a
step, forward and backward fan the batch's shards out over threads (see
network); the bits depend on network.SHARD, not on the thread count.

evaluate and predict_map are the two uses of network.class_grid, the one
inference pass: predict_map classifies every pixel of the scene, and
evaluate only the requested ones, each bitwise as predict_map does.
train and evaluate read a pixel set as data._pixel_rows' (n, 3) int64
rows, checked against the labels in one pass (_labeled_rows).  A training
batch is a slice of them, gathered as its pixels' extract_patch cuts
concatenated; a confusion matrix is one np.bincount over them
(_confusion), in evaluate and in train's per-epoch evaluations and
report, which count over the rows train checked before its first step.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .data import (
    HsiCube, LabelGrid, SplitManifest, _pixel_rows, _write_file, extract_patch, normalize,
)
from .errors import ConfigError, MismatchError, NumericError, ShapeError, SplitError
from .metrics import ConfusionMatrix, overall_accuracy, write_report
from .network import Model, backward, class_grid, forward, save_checkpoint
from .ops import softmax_cross_entropy

# the largest global L2 norm of a step's gradients (Pascanu et al. 2013);
# it keeps training at the default learning rate finite at 100 bands
CLIP_NORM = 5.0


@dataclass
class OptimizerState:
    """Classical momentum SGD with coupled weight decay (biases exempt)."""

    learning_rate: float = 0.02
    momentum: float = 0.9
    weight_decay: float = 0.0005
    velocity: dict = field(default_factory=dict)

    def __post_init__(self):
        if not 0 <= self.learning_rate < math.inf:
            raise ConfigError(
                f"learning_rate must be finite and >= 0, got {self.learning_rate}"
            )
        if not (0.0 <= self.momentum < 1.0):
            raise ConfigError(f"momentum must lie in [0, 1), got {self.momentum}")
        if not 0 <= self.weight_decay < math.inf:
            raise ConfigError(
                f"weight_decay must be finite and >= 0, got {self.weight_decay}"
            )


@dataclass
class TrainConfig:
    epochs: int = 100
    batch_size: int = 64
    shuffle_seed: int = 0
    log_every: int = 1

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.log_every < 1:
            raise ConfigError(f"log_every must be >= 1, got {self.log_every}")


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


def _clip_gradients(grads, names):
    """Scale grads in place to a global L2 norm of at most CLIP_NORM, the
    norm summed in float64 in the order of names."""
    norm = math.sqrt(sum(float(np.square(grads[n], dtype=np.float64).sum()) for n in names))
    if norm > CLIP_NORM:
        for name in names:
            grads[name] *= CLIP_NORM / norm


def _labeled_rows(labels: LabelGrid, classes, entries, side=None):
    """The (n, 3) int64 rows of entries (data._pixel_rows), each class read
    from labels.  The first entry that fails raises: SplitError outside the
    scene or unlabeled, MismatchError listed as another class or past the
    model's classes."""
    rows = _pixel_rows(entries, side)
    row, col, listed = rows.T
    inside = (row >= 0) & (row < labels.height) & (col >= 0) & (col < labels.width)
    cls = np.zeros_like(listed)
    cls[inside] = labels.labels[row[inside], col[inside]]
    bad = ~inside | (cls == 0) | ((listed != 0) & (listed != cls)) | (cls > classes)
    if bad.any():
        i = int(np.argmax(bad))
        (r, c, k), got = rows[i].tolist(), int(cls[i])
        pixel = f"pixel ({r}, {c})"
        if not inside[i]:
            raise SplitError(f"{pixel} lies outside the {labels.height}x{labels.width} scene")
        if got == 0:
            raise SplitError(f"{pixel} is unlabeled")
        if k and k != got:
            raise MismatchError(f"{pixel} is labeled {got} but listed as {k}")
        raise MismatchError(f"{pixel} is labeled {got}, but the model has {classes} classes")
    rows[:, 2] = cls
    return rows


def _check_scene(model: Model, cube: HsiCube, labels: LabelGrid | None = None):
    if model.config.spectral_depth != cube.bands:
        raise MismatchError(
            f"model expects {model.config.spectral_depth} bands, cube has {cube.bands}"
        )
    if labels is not None and (labels.height, labels.width) != (cube.height, cube.width):
        raise MismatchError(
            f"labels {labels.height}x{labels.width} do not match cube "
            f"{cube.height}x{cube.width}"
        )


def train(model: Model, cube: HsiCube, labels: LabelGrid, split: SplitManifest,
          config: TrainConfig, opt: OptimizerState, eval_test=False,
          checkpoint_path=None, history_path=None, report_path=None, log=None):
    """Run the epoch loop over the split's training pixels.

    Every split pixel is checked before the first forward, and the cube
    is min-max normalized from training-pixel statistics before any
    patch is cut; an empty training set fails there with SplitError.
    Returns the per-epoch history; each entry carries the mean training
    loss and, with eval_test, the test overall accuracy.  A non-finite
    batch loss, or a non-finite parameter after the last step, raises
    NumericError before any file is written.  The report is over the
    test side (else the training side) of the run's own normalized cube,
    and its matrix is computed before the first write too.
    """
    _check_scene(model, cube, labels)
    classes = model.config.num_classes
    train_rows = _labeled_rows(labels, classes, split.train, "train")
    test_rows = _labeled_rows(labels, classes, split.test, "test")
    norm = normalize(cube, split)
    window = model.config.spatial_window
    params = model.parameters()
    rng = np.random.default_rng(config.shuffle_seed)

    history = []
    matrix = None  # the last epoch's test matrix, with eval_test
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(len(train_rows))
        loss_sum = 0.0
        for batch_no, start in enumerate(range(0, len(order), config.batch_size), 1):
            batch = train_rows[order[start:start + config.batch_size]]
            patches = np.concatenate([extract_patch(norm, r, c, window)
                                      for r, c in batch[:, :2].tolist()])
            logits, cache = forward(model, patches, keep_intermediates=True)
            losses, grad_logits = softmax_cross_entropy(logits, batch[:, 2] - 1)
            batch_loss = float(losses.sum())
            if not np.isfinite(batch_loss):
                raise NumericError(
                    f"epoch {epoch}, batch {batch_no}: training loss is "
                    f"{batch_loss}; the run diverged (lower the learning rate)"
                )
            loss_sum += batch_loss
            grads = backward(model, cache, grad_logits / len(batch))
            _clip_gradients(grads, params)
            sgd_step(params, grads, opt)
        entry = {"epoch": epoch, "mean_loss": loss_sum / len(train_rows)}
        if eval_test and len(test_rows):
            matrix = _confusion(model, norm, labels, test_rows)
            entry["test_overall_accuracy"] = overall_accuracy(matrix)
        history.append(entry)
        if log and (epoch % config.log_every == 0 or epoch == config.epochs):
            log(entry)
    for name, value in params.items():
        if not np.isfinite(value).all():
            raise NumericError(
                f"{name} is not finite after the last step; the run diverged "
                f"(lower the learning rate)"
            )
    if report_path and matrix is None:
        # evaluated before the first write, so its failure leaves no file
        matrix = _confusion(model, norm, labels, test_rows if len(test_rows) else train_rows)
    if checkpoint_path:
        save_checkpoint(model, checkpoint_path)
    if history_path:
        _write_file(history_path, [
            (json.dumps(entry, sort_keys=True) + "\n").encode("utf-8") for entry in history
        ])
    if report_path:
        write_report(matrix, report_path, history=history)
    return history


def evaluate(model: Model, cube: HsiCube, labels: LabelGrid, pixel_set) -> ConfusionMatrix:
    """Confusion matrix over a labeled pixel set (_labeled_rows; pass the cube
    already normalized the way training saw it); an empty set is a ConfigError.

    Only the steps holding a requested pixel run, with the earlier steps
    they depend on; each pixel's prediction is bitwise the one
    predict_map gives it.
    """
    _check_scene(model, cube, labels)
    rows = _labeled_rows(labels, model.config.num_classes, pixel_set)
    if not len(rows):
        raise ConfigError("the pixel set to evaluate is empty")
    return _confusion(model, cube, labels, rows)


def _confusion(model: Model, cube: HsiCube, labels: LabelGrid, rows) -> ConfusionMatrix:
    """Confusion matrix over rows already checked by _labeled_rows."""
    classes = model.config.num_classes
    grid = class_grid(model, cube.values, rows)
    cells = (rows[:, 2] - 1) * classes + grid[rows[:, 0], rows[:, 1]] - 1
    counts = np.bincount(cells, minlength=classes * classes).reshape(classes, classes)
    return ConfusionMatrix(counts, labels.class_names)


def predict_map(model: Model, cube: HsiCube) -> np.ndarray:
    """Classify every pixel of the scene, strip by strip (zero-filled
    neighbourhoods at borders); returns a (height, width) grid of classes
    in [1, C], ties going to the lowest class."""
    _check_scene(model, cube)
    return class_grid(model, cube.values)
