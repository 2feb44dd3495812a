"""Hyperspectral cube and label persistence, normalization, patch
extraction, and the per-class stratified split protocol.

On-disk containers pair a small JSON header with a raw little-endian
payload: cubes as band-sequential float32 (`.hsc.json` + `.hsc.raw`),
labels as row-major unsigned bytes (`.lbl.json` + `.lbl.raw`), and split
manifests as plain JSON (`.split.json`).
"""

import json
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, FormatError, ShapeError, SplitError

CUBE_FORMAT_VERSION = 1
LABELS_FORMAT_VERSION = 1
SPLIT_FORMAT_VERSION = 1


@dataclass
class HsiCube:
    """A height x width x bands raster of float32 reflectances."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.values.ndim != 3:
            raise ShapeError(f"cube must be (height, width, bands), got ndim={self.values.ndim}")
        if min(self.values.shape) < 1:
            raise ShapeError(f"cube axes must be >= 1, got {self.values.shape}")

    @property
    def height(self):
        return self.values.shape[0]

    @property
    def width(self):
        return self.values.shape[1]

    @property
    def bands(self):
        return self.values.shape[2]


@dataclass
class LabelGrid:
    """Per-pixel class annotations; 0 marks unlabeled ground."""

    labels: np.ndarray
    class_names: list | None = None

    def __post_init__(self):
        self.labels = np.asarray(self.labels)
        if self.labels.ndim != 2:
            raise ShapeError(f"labels must be (height, width), got ndim={self.labels.ndim}")
        if self.labels.min() < 0:
            raise ShapeError("labels must be >= 0")
        if self.labels.max() > 255:
            raise FormatError("label values beyond 255 do not fit the u8 container")

    @property
    def height(self):
        return self.labels.shape[0]

    @property
    def width(self):
        return self.labels.shape[1]

    @property
    def num_classes(self):
        return int(self.labels.max())

    def class_name(self, cls):
        if self.class_names and 1 <= cls <= len(self.class_names):
            return self.class_names[cls - 1]
        return f"class {cls}"


@dataclass
class SplitManifest:
    """Reproducible train/test pixel assignment, one entry per labeled pixel.

    Entries are (row, col, class) triples.  per_class_train is set for the
    fixed-count protocol; fraction for the percentage protocol (per-class
    counts then vary and are floor(fraction * class size), minimum 1).
    """

    seed: int
    train: list
    test: list
    per_class_train: int | None = None
    fraction: float | None = None

    def train_counts(self):
        counts = {}
        for _, _, cls in self.train:
            counts[cls] = counts.get(cls, 0) + 1
        return counts


def _raw_path(json_path):
    s = str(json_path)
    if not s.endswith(".json"):
        raise FormatError(f"header or manifest path must end in .json: {s}")
    return s[: -len(".json")] + ".raw"


def save_cube(cube: HsiCube, header_path):
    """Write the JSON header and the band-sequential f32le payload."""
    header = {
        "format_version": CUBE_FORMAT_VERSION,
        "height": cube.height,
        "width": cube.width,
        "bands": cube.bands,
        "dtype": "f32le",
        "order": "bsq",
    }
    payload = np.ascontiguousarray(
        cube.values.transpose(2, 0, 1), dtype="<f4"
    ).tobytes()
    with open(header_path, "w", encoding="utf-8") as fh:
        json.dump(header, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(_raw_path(header_path), "wb") as fh:
        fh.write(payload)


def load_cube(header_path) -> HsiCube:
    """Load a cube, validating version, payload size, and finiteness."""
    with open(header_path, "r", encoding="utf-8") as fh:
        header = json.load(fh)
    if header.get("format_version") != CUBE_FORMAT_VERSION:
        raise FormatError(f"unknown cube format_version {header.get('format_version')!r}")
    if header.get("dtype") != "f32le" or header.get("order") != "bsq":
        raise FormatError(
            f"unsupported cube encoding {header.get('dtype')!r}/{header.get('order')!r}"
        )
    p, q, s = int(header["height"]), int(header["width"]), int(header["bands"])
    with open(_raw_path(header_path), "rb") as fh:
        raw = fh.read()
    expected = p * q * s
    if len(raw) != expected * 4:
        raise FormatError(
            f"cube payload holds {len(raw) // 4} scalars, "
            f"declared dims {p}x{q}x{s} require exactly {expected}"
        )
    values = np.frombuffer(raw, dtype="<f4").reshape(s, p, q).transpose(1, 2, 0)
    if not np.isfinite(values).all():
        raise FormatError("cube payload contains non-finite values")
    return HsiCube(values=np.ascontiguousarray(values))


def save_labels(grid: LabelGrid, header_path):
    header = {
        "format_version": LABELS_FORMAT_VERSION,
        "height": grid.height,
        "width": grid.width,
        "dtype": "u8",
        "order": "row-major",
    }
    if grid.class_names:
        header["class_names"] = list(grid.class_names)
    with open(header_path, "w", encoding="utf-8") as fh:
        json.dump(header, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(_raw_path(header_path), "wb") as fh:
        fh.write(np.ascontiguousarray(grid.labels, dtype=np.uint8).tobytes())


def load_labels(header_path) -> LabelGrid:
    with open(header_path, "r", encoding="utf-8") as fh:
        header = json.load(fh)
    if header.get("format_version") != LABELS_FORMAT_VERSION:
        raise FormatError(f"unknown labels format_version {header.get('format_version')!r}")
    if header.get("dtype") != "u8" or header.get("order") != "row-major":
        raise FormatError(
            f"unsupported labels encoding {header.get('dtype')!r}/{header.get('order')!r}"
        )
    p, q = int(header["height"]), int(header["width"])
    with open(_raw_path(header_path), "rb") as fh:
        raw = fh.read()
    if len(raw) != p * q:
        raise FormatError(
            f"labels payload holds {len(raw)} values, declared dims {p}x{q} "
            f"require exactly {p * q}"
        )
    labels = np.frombuffer(raw, dtype=np.uint8).reshape(p, q)
    return LabelGrid(labels=labels.copy(), class_names=header.get("class_names"))


def save_split(manifest: SplitManifest, path):
    doc = {
        "format_version": SPLIT_FORMAT_VERSION,
        "seed": manifest.seed,
        "per_class_train": manifest.per_class_train,
        "fraction": manifest.fraction,
        "train": [[int(r), int(c), int(k)] for r, c, k in manifest.train],
        "test": [[int(r), int(c), int(k)] for r, c, k in manifest.test],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_split(path) -> SplitManifest:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("format_version") != SPLIT_FORMAT_VERSION:
        raise FormatError(f"unknown split format_version {doc.get('format_version')!r}")
    return SplitManifest(
        seed=int(doc["seed"]),
        per_class_train=doc.get("per_class_train"),
        fraction=doc.get("fraction"),
        train=[tuple(e) for e in doc["train"]],
        test=[tuple(e) for e in doc["test"]],
    )


def normalize(cube: HsiCube, stats_source: SplitManifest) -> HsiCube:
    """Per-band min-max scaling fit on training-pixel spectra only.

    Test pixels outside the training range map outside [0, 1] (no
    clamping); a band constant over the training set maps to all zeros.
    """
    if not stats_source.train:
        raise SplitError("normalization needs a non-empty training set")
    rows = np.asarray([r for r, _, _ in stats_source.train])
    cols = np.asarray([c for _, c, _ in stats_source.train])
    spectra = cube.values[rows, cols, :]
    band_min = spectra.min(axis=0)
    band_range = spectra.max(axis=0) - band_min
    safe = np.where(band_range > 0, band_range, 1.0)
    scale = np.where(band_range > 0, 1.0 / safe, 0.0).astype(cube.values.dtype)
    values = (cube.values - band_min) * scale
    return HsiCube(values=values)


def extract_patch(cube: HsiCube, row, col, window):
    """Zero-filled (1, 1, window, window, bands) neighborhood centered on a
    pixel; the center position carries the pixel's spectrum bitwise."""
    if window < 1 or window % 2 == 0:
        raise ConfigError(f"window must be odd and >= 1, got {window}")
    if not (0 <= row < cube.height and 0 <= col < cube.width):
        raise ConfigError(
            f"patch center ({row}, {col}) outside image {cube.height}x{cube.width}"
        )
    half = window // 2
    patch = np.zeros((1, 1, window, window, cube.bands), dtype=cube.values.dtype)
    r0, r1 = max(0, row - half), min(cube.height, row + half + 1)
    c0, c1 = max(0, col - half), min(cube.width, col + half + 1)
    patch[0, 0, r0 - row + half:r1 - row + half, c0 - col + half:c1 - col + half] = (
        cube.values[r0:r1, c0:c1, :]
    )
    return patch


def stratified_split(labels: LabelGrid, per_class_train=None, *, fraction=None,
                     seed=0) -> SplitManifest:
    """Sample train pixels per class uniformly at random (seeded); all other
    labeled pixels become test.

    Exactly one of per_class_train (fixed count per class) or fraction
    (per-class count = floor(fraction * class size), minimum 1) is given.
    """
    if (per_class_train is None) == (fraction is None):
        raise ConfigError("give exactly one of per_class_train or fraction")
    if fraction is not None and not (0.0 < fraction < 1.0):
        raise ConfigError(f"fraction must lie in (0, 1), got {fraction}")
    if per_class_train is not None and per_class_train < 1:
        raise ConfigError(f"per_class_train must be >= 1, got {per_class_train}")
    num_classes = labels.num_classes
    if num_classes < 1:
        raise SplitError("label grid contains no labeled pixels")

    rng = np.random.default_rng(seed)
    train, test = [], []
    for cls in range(1, num_classes + 1):
        coords = np.argwhere(labels.labels == cls)  # row-major order
        n = len(coords)
        take = per_class_train if per_class_train is not None else max(1, int(fraction * n))
        if n < take:
            raise SplitError(
                f"{labels.class_name(cls)} has {n} labeled pixels, "
                f"fewer than the requested {take} training samples"
            )
        perm = rng.permutation(n)
        chosen = np.zeros(n, dtype=bool)
        chosen[perm[:take]] = True
        for idx in range(n):
            entry = (int(coords[idx, 0]), int(coords[idx, 1]), cls)
            (train if chosen[idx] else test).append(entry)
    return SplitManifest(
        seed=seed,
        per_class_train=per_class_train,
        fraction=fraction,
        train=train,
        test=test,
    )
