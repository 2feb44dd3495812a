"""Seeded synthetic hyperspectral scenes for the benchmark workloads.

Spectra follow the style of the test fixtures: each class is a Gaussian
bump over the bands, scaled by a heavy-tailed per-pixel brightness and
overlaid with Gaussian noise.  Everything is drawn from one
``numpy.random.Generator`` seeded by the caller, in a fixed order, so a
seed always yields byte-identical arrays.  Large scenes are filled in row
chunks so generation never holds more than the float32 cube plus one
chunk.
"""

import math

import numpy as np

CHUNK_ROWS = 64


def class_signatures(num_classes, bands):
    """(num_classes + 1, bands) table; row 0 is the unlabeled background,
    rows 1..C are distinct Gaussian bumps on a 0.2 floor."""
    centers = np.linspace(0, bands - 1, num_classes)
    width = 1.0 + bands / (3.0 * num_classes)
    band_idx = np.arange(bands, dtype=np.float64)
    bumps = np.exp(-((band_idx[None, :] - centers[:, None]) ** 2) / (2 * width**2))
    sigs = 0.2 + 0.8 * bumps
    return np.vstack([sigs.mean(axis=0, keepdims=True), sigs]).astype(np.float32)


def spectra(rng, labels, bands, noise=0.08, brightness_sigma=0.5):
    """float32 (height, width, bands) reflectances for a label grid."""
    height, width = labels.shape
    table = class_signatures(int(labels.max()) or 1, bands)
    values = np.empty((height, width, bands), dtype=np.float32)
    for r0 in range(0, height, CHUNK_ROWS):
        rows = slice(r0, min(height, r0 + CHUNK_ROWS))
        block = table[labels[rows]]
        n = block.shape[0]
        block *= np.exp(
            brightness_sigma * rng.standard_normal((n, width, 1), dtype=np.float32)
        )
        block += noise * rng.standard_normal((n, width, bands), dtype=np.float32)
        np.abs(block, out=values[rows])
    return values


def stripe_labels(num_classes, rows_per_class, width):
    """Every pixel labeled: class k fills rows_per_class consecutive rows."""
    rows = np.repeat(np.arange(1, num_classes + 1, dtype=np.uint8), rows_per_class)
    return np.repeat(rows[:, None], width, axis=1)


def clumped_labels(rng, height, width, num_classes, fraction, min_per_class):
    """Scattered disc-shaped clumps of ground truth, as in real surveys.

    Clumps are painted round-robin over the classes onto unlabeled ground
    until at least ``fraction`` of the scene is labeled and every class
    holds at least ``min_per_class`` pixels.  The radius is sized so each
    class gets about four clumps.
    """
    labels = np.zeros((height, width), dtype=np.uint8)
    counts = np.zeros(num_classes + 1, dtype=np.int64)
    target = fraction * height * width
    radius = max(1, round(math.sqrt(target / (4 * num_classes * math.pi))))
    for k in range(100_000):
        if counts[1:].sum() >= target and counts[1:].min() >= min_per_class:
            return labels
        cls = k % num_classes + 1
        if counts[1:].sum() >= target and counts[cls] >= min_per_class:
            continue
        cy = int(rng.integers(height))
        cx = int(rng.integers(width))
        r = int(rng.integers(max(1, radius // 2), radius + 1))
        r0, r1 = max(0, cy - r), min(height, cy + r + 1)
        c0, c1 = max(0, cx - r), min(width, cx + r + 1)
        yy, xx = np.ogrid[r0:r1, c0:c1]
        sub = labels[r0:r1, c0:c1]
        paint = ((yy - cy) ** 2 + (xx - cx) ** 2 <= r * r) & (sub == 0)
        sub[paint] = cls
        counts[cls] += int(paint.sum())
    raise RuntimeError(
        f"{height}x{width} scene cannot hold {fraction:.0%} labels with "
        f"{min_per_class} pixels in each of {num_classes} classes"
    )


def striped_scene(seed, num_classes, rows_per_class, width, bands):
    """(values, labels) with every pixel labeled, classes in row stripes."""
    rng = np.random.default_rng(seed)
    labels = stripe_labels(num_classes, rows_per_class, width)
    return spectra(rng, labels, bands), labels


def clumped_scene(seed, height, width, bands, num_classes, fraction, min_per_class):
    """(values, labels) with clumped ground truth over ``fraction`` of the
    scene and unlabeled background elsewhere."""
    rng = np.random.default_rng(seed)
    labels = clumped_labels(rng, height, width, num_classes, fraction, min_per_class)
    return spectra(rng, labels, bands), labels
