"""Confusion-matrix statistics (overall accuracy, per-class accuracy,
Cohen's kappa), the JSON report container, and the PPM class-map renderer.

All statistics are computed in 64-bit arithmetic regardless of how the
counts were accumulated.
"""

import math

import numpy as np

from .data import _read_header, _write_container, _write_file
from .errors import MetricError, ShapeError

REPORT_FORMAT_VERSION = 1

# Fixed class palette for rendered maps; index 0 (unlabeled) is black.
PALETTE = (
    (0, 0, 0),
    (230, 25, 75),
    (60, 180, 75),
    (255, 225, 25),
    (0, 130, 200),
    (245, 130, 48),
    (145, 30, 180),
    (70, 240, 240),
    (240, 50, 230),
    (128, 128, 0),
)


class ConfusionMatrix:
    """C x C counts, entry (i, j) = pixels of true class i+1 predicted j+1."""

    def __init__(self, counts, class_names=None):
        counts = np.asarray(counts)
        if counts.ndim != 2 or counts.shape[0] != counts.shape[1]:
            raise ShapeError(f"confusion matrix must be square, got {counts.shape}")
        if counts.min() < 0:
            raise ShapeError("confusion matrix entries must be >= 0")
        self.counts = counts.astype(np.int64)
        self.class_names = list(class_names) if class_names else None

    @classmethod
    def zeros(cls, num_classes, class_names=None):
        return cls(np.zeros((num_classes, num_classes), dtype=np.int64), class_names)

    def add(self, true_cls, pred_cls):
        for cls in (true_cls, pred_cls):
            if not 1 <= cls <= self.num_classes:
                raise MetricError(f"class {cls} is outside [1, {self.num_classes}]")
        self.counts[true_cls - 1, pred_cls - 1] += 1

    @property
    def num_classes(self):
        return self.counts.shape[0]

    @property
    def total(self):
        return int(self.counts.sum())


def overall_accuracy(m: ConfusionMatrix) -> float:
    """trace / total."""
    total = m.total
    if total == 0:
        raise MetricError("overall accuracy is undefined for an empty matrix")
    return float(np.trace(m.counts) / total)


def per_class_accuracy(m: ConfusionMatrix) -> np.ndarray:
    """Diagonal over row sums; classes with an empty row come back NaN
    (undefined, flagged rather than raised)."""
    rows = m.counts.sum(axis=1).astype(np.float64)
    diag = np.diag(m.counts).astype(np.float64)
    out = np.full(m.num_classes, np.nan)
    nonzero = rows > 0
    out[nonzero] = diag[nonzero] / rows[nonzero]
    return out


def kappa(m: ConfusionMatrix) -> float:
    """Chance-corrected agreement (p_o - p_e) / (1 - p_e)."""
    total = m.total
    if total == 0:
        raise MetricError("kappa is undefined for an empty matrix")
    n = float(total)
    p_o = float(np.trace(m.counts)) / n
    rows = m.counts.sum(axis=1).astype(np.float64)
    cols = m.counts.sum(axis=0).astype(np.float64)
    p_e = float((rows * cols).sum()) / (n * n)
    if p_e >= 1.0:
        raise MetricError("kappa is undefined when expected agreement is 1")
    return (p_o - p_e) / (1.0 - p_e)


def write_report(m: ConfusionMatrix, out_path, history=None):
    """JSON report bundling the matrix and its derived statistics; an
    undefined per-class accuracy or kappa is written as null."""
    per_class = per_class_accuracy(m)
    doc = {
        "matrix": m.counts.tolist(),
        "overall_accuracy": overall_accuracy(m),
        "per_class_accuracy": [
            None if math.isnan(v) else float(v) for v in per_class
        ],
    }
    try:
        doc["kappa"] = kappa(m)
    except MetricError:  # expected agreement 1; an empty matrix failed above
        doc["kappa"] = None
    if m.class_names:
        doc["class_names"] = m.class_names
    if history is not None:
        doc["history"] = history
    return _write_container(out_path, REPORT_FORMAT_VERSION, doc)


def load_report(path):
    return _read_header(path, "report", (REPORT_FORMAT_VERSION,), [
        ("matrix", list), ("overall_accuracy", (int, float)),
        ("per_class_accuracy", list), ("kappa", (int, float, type(None))),
    ], [("class_names", list), ("history", list)])


def class_color(cls):
    """RGB triple for a class index; indices past the palette cycle through
    the nine class colors."""
    if cls <= 0:
        return PALETTE[0]
    return PALETTE[(cls - 1) % (len(PALETTE) - 1) + 1]


def render_class_map(grid, out_path):
    """Write a (height, width) class grid as a binary PPM (P6) image,
    renamed into place whole (data._write_file)."""
    grid = np.asarray(grid)
    if grid.ndim != 2:
        raise ShapeError(f"class map must be 2-D, got ndim={grid.ndim}")
    height, width = grid.shape
    if grid.min() < 0:
        raise ShapeError(f"class map holds class {grid.min()}; classes are >= 0")
    lut_size = int(grid.max()) + 1
    lut = np.asarray([class_color(c) for c in range(lut_size)], dtype=np.uint8)
    _write_file(out_path, [f"P6\n{width} {height}\n255\n".encode("ascii"), lut[grid]])
