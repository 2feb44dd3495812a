"""Hyperspectral cube and label persistence, normalization, patch
extraction, and the per-class stratified split protocol.

Every artifact the package writes (cube, labels, split, checkpoint and
report) goes through the one container writer and reader here.  A
container is a JSON header carrying format_version, its bytes those of
json.dumps(header, indent=2, sort_keys=True) plus a newline; an artifact
with a payload stores it as raw little-endian scalars in the `.raw` file
beside its `.json` header, which must hold exactly the scalars the header
declares.  Each raster kind has one format record of its kind name,
format_version, header dims, dtype and order names and payload scalar,
which _write_raster writes and _read_raster checks, each dim at least 1:
_CUBE, band-sequential float32 (`.hsc.json` + `.hsc.raw`), and _LABELS,
row-major unsigned bytes (`.lbl.json` + `.lbl.raw`).  A split manifest
(`.split.json` + `.split.raw`, format 2) declares train_count and
test_count, and its payload holds that many int64 [row, col, class] rows,
the train rows first; class 0 marks a [row, col] pair, which gives no
class.  Format 2 is the only split format read.  _read_header checks
optional fields (class_names, per_class_train, fraction) unless absent
or null.  Every pixel set, a split side or what normalize, train and
evaluate read, goes through one entry rule and converter to the
payload's int64 rows, _pixel_rows.

Every file the package writes, the history and class map too, goes
through _write_file, a container's payload before its header.

The cube-sized passes, save_cube's band-sequential fill, load_cube's read
and normalize, run a block of image rows at a time (_row_blocks), the
blocks dealt out over every worker by parallel.fan_out.  load_cube reads
each block straight into the one (height, width, bands) array it
returns, so it holds no second cube-sized array; block sizes and worker
counts change no bit.
"""

import collections
import contextlib
import itertools
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from . import parallel
from .errors import ConfigError, FormatError, ShapeError, SplitError

SPLIT_FORMAT_VERSION = 2


# a raster kind's container format (see the module docstring)
_Raster = collections.namedtuple("_Raster", "kind version dims dtype order scalar")
_CUBE = _Raster("cube", 1, ("height", "width", "bands"), "f32le", "bsq", "<f4")
_LABELS = _Raster("labels", 1, ("height", "width"), "u8", "row-major", "u1")


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

    Entries are (row, col, class) triples, or (row, col) pairs, which give
    no class (a payload row of class 0).  per_class_train is set for the
    fixed-count protocol; fraction for the percentage protocol (per-class
    counts then vary and are floor(fraction * class size), minimum 1).
    """

    seed: int
    train: list
    test: list
    per_class_train: int | None = None
    fraction: float | None = None


def _raw_path(json_path):
    s = str(json_path)
    if not s.endswith(".json"):
        raise FormatError(f"header or manifest path must end in .json: {s}")
    return s[: -len(".json")] + ".raw"


def _plain(value):
    """json's default hook: a numpy scalar encodes as the number it holds."""
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _write_file(path, chunks):
    """Write the bytes-like chunks back to back to <path>.partial, then
    rename it over path: a failed write or rename leaves the previous
    file, and no partial one."""
    partial = f"{path}.partial"
    try:
        with open(partial, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(partial, path)
    finally:
        if os.path.exists(partial):  # the write or the rename failed
            os.remove(partial)


def _write_container(header_path, version, header, payload=(), dtype=None):
    """Write header, plus format_version, as indented sorted-key JSON with a
    trailing newline; the payload arrays, when given, go back to back as
    C-order dtype scalars into the .raw beside it.  The header is rendered
    before any write, and the payload is written before the header, each
    through _write_file.  Returns the header as written."""
    header = {"format_version": version, **header}
    text = json.dumps(header, indent=2, sort_keys=True, default=_plain) + "\n"
    if payload:
        _write_file(_raw_path(header_path),
                    (np.ascontiguousarray(a, dtype=dtype) for a in payload))
    _write_file(header_path, [text.encode("utf-8")])
    return header


def _read_header(header_path, kind, versions, fields=(), optional=()):
    """A container's JSON header, checked to be UTF-8 JSON, an object
    carrying one of the format_versions given, then by _check_fields."""
    with open(header_path, "r", encoding="utf-8") as fh:
        try:
            header = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise FormatError(f"{kind} header is not valid JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise FormatError(f"{kind} header is a JSON {type(header).__name__}, not an object")
    if header.get("format_version") not in versions:
        raise FormatError(f"unknown {kind} format_version {header.get('format_version')!r}")
    return _check_fields(header, kind, fields, optional)


def _check_fields(header, kind, fields, optional):
    """header, checked on each (name, types) field in fields, and on each
    (name, types) field in optional that is present and not null."""
    for name, types in fields:
        _field(header, kind, name, types)
    for name, types in optional:
        if header.get(name) is not None:
            _field(header, kind, name, types)
    return header


def _field(doc, kind, name, types, minimum=None):
    """doc[name], which must be present, an instance of types (a type or a
    tuple of them) and at least minimum, when one is given; JSON true and
    false are not numbers."""
    types = types if isinstance(types, tuple) else (types,)
    if name not in doc:
        raise FormatError(f"{kind} header has no {name!r} field")
    value = doc[name]
    if not isinstance(value, types) or (isinstance(value, bool) and bool not in types):
        expected = " or ".join(t.__name__ for t in types)
        raise FormatError(
            f"{kind} header field {name!r} is {type(value).__name__}, expected {expected}"
        )
    if minimum is not None and value < minimum:
        raise FormatError(f"{kind} header field {name!r} is {value}, must be >= {minimum}")
    return value


@contextlib.contextmanager
def _open_payload(header_path, kind, dtype, count):
    """The file descriptor of the .raw beside header_path, open for the with
    block, the file checked to hold exactly count dtype scalars before the
    caller allocates anything, so a header declaring huge dims cannot
    exhaust memory."""
    itemsize = np.dtype(dtype).itemsize
    with open(_raw_path(header_path), "rb") as fh:
        nbytes = os.fstat(fh.fileno()).st_size
        if nbytes != count * itemsize:
            raise FormatError(
                f"{kind} payload holds {nbytes // itemsize} scalars, "
                f"its header requires exactly {count}"
            )
        yield fh.fileno()


def _read_into(fd, kind, array, offset):
    """Fill the C-contiguous array with the payload bytes at offset in fd,
    by positional reads, which share no file offset between threads; a
    file that ends first is a FormatError."""
    view = memoryview(array).cast("B")
    while view:
        got = os.preadv(fd, [view], offset)
        if not got:
            raise FormatError(f"{kind} payload changed while being read")
        view, offset = view[got:], offset + got


def _read_payload(header_path, kind, dtype, count):
    """The count dtype scalars stored in the .raw beside header_path, which
    must hold exactly that many (_open_payload)."""
    with _open_payload(header_path, kind, dtype, count) as fd:
        payload = np.empty(count, dtype=dtype)
        _read_into(fd, kind, payload, 0)
    return payload


def _write_raster(fmt: _Raster, header_path, dims, payload, **fields):
    """Write a raster's header, its dims, encoding and any extra fields,
    and its payload array, converted to fmt's scalar."""
    header = {**dict(zip(fmt.dims, dims)), "dtype": fmt.dtype, "order": fmt.order, **fields}
    _write_container(header_path, fmt.version, header, [payload], fmt.scalar)


def _read_raster(fmt: _Raster, header_path, optional=()):
    """(dims, header) of a raster, its header checked like _read_header's,
    then for fmt's encoding and each dim >= 1; its payload holds exactly the
    scalars the dims multiply out to."""
    header = _read_header(header_path, fmt.kind, (fmt.version,),
                          [(name, int) for name in fmt.dims], optional)
    encoding = header.get("dtype"), header.get("order")
    if encoding != (fmt.dtype, fmt.order):
        raise FormatError(f"unsupported {fmt.kind} encoding {encoding[0]!r}/{encoding[1]!r}")
    return [_field(header, fmt.kind, name, int, 1) for name in fmt.dims], header


# about this many bytes of the cube make one row block of a cube-sized pass
# (at least one image row), so that a block's strided copy stays in cache;
# load_cube's blocks are larger, so that each of a block's per-band reads
# (about 40 KB at PaviaU's width) costs little more than its bytes.  Block
# sizes are not part of any format.
_BLOCK_BYTES = 1 << 18
_LOAD_BLOCK_BYTES = 1 << 22


def _row_blocks(height, row_bytes, block_bytes, job):
    """Cut height rows of row_bytes each into slices of about block_bytes
    and run job(block) for each on fan_out; one block starts no thread."""
    rows = max(1, block_bytes // row_bytes)
    blocks = [slice(r, min(r + rows, height)) for r in range(0, height, rows)]
    parallel.fan_out(len(blocks), lambda j: job(blocks[j]))


def save_cube(cube: HsiCube, header_path):
    """Write the JSON header and the band-sequential f32le payload.

    The payload is filled a row block at a time (_row_blocks), converting
    any dtype or memory order in that copy, so no second cube-sized array
    is made; the bytes are those of values.transpose(2, 0, 1) as f32le,
    whatever the block size or the number of workers.  A value not finite
    as float32 is load_cube's FormatError, raised before any file opens.
    """
    values = cube.values
    bsq = np.empty((cube.bands, cube.height, cube.width), _CUBE.scalar)

    def fill(block):
        part = bsq[:, block]
        with np.errstate(over="ignore"):  # a float64 past float32's range is inf
            part[...] = values[block].transpose(2, 0, 1)
        # each band's extremes, which NaN and infinities reach, and no mask
        if not np.isfinite([part.min(axis=(1, 2)), part.max(axis=(1, 2))]).all():
            raise FormatError("cube payload contains non-finite values")

    _row_blocks(cube.height, values[0].nbytes, _BLOCK_BYTES, fill)
    _write_raster(_CUBE, header_path, values.shape, bsq)


def load_cube(header_path) -> HsiCube:
    """Load a cube, validating version, payload size, and finiteness.

    The (height, width, bands) array is the one cube-sized allocation.  It
    is filled a row block at a time (_row_blocks): each band's rows of the
    block come by one positional read into the block's (bands, rows, width)
    staging array, which is checked finite and transposed into place.  A
    block of every row is one read.
    """
    (p, q, s), _ = _read_raster(_CUBE, header_path)
    band_row = q * np.dtype(_CUBE.scalar).itemsize  # bytes of one band of one row
    with _open_payload(header_path, _CUBE.kind, _CUBE.scalar, p * q * s) as fd:
        values = np.empty((p, q, s), _CUBE.scalar)

        def read(block):
            part = np.empty((s, block.stop - block.start, q), _CUBE.scalar)
            if len(part[0]) == p:  # every row: the bands lie back to back
                _read_into(fd, _CUBE.kind, part, 0)
            else:
                for band, rows in enumerate(part):
                    _read_into(fd, _CUBE.kind, rows, (band * p + block.start) * band_row)
            if not np.isfinite(part).all():
                raise FormatError("cube payload contains non-finite values")
            values[block] = part.transpose(1, 2, 0)

        _row_blocks(p, s * band_row, _LOAD_BLOCK_BYTES, read)
    return HsiCube(values=values)


def save_labels(grid: LabelGrid, header_path):
    names = {"class_names": list(grid.class_names)} if grid.class_names else {}
    _write_raster(_LABELS, header_path, grid.labels.shape, grid.labels, **names)


def load_labels(header_path) -> LabelGrid:
    dims, header = _read_raster(_LABELS, header_path, [("class_names", list)])
    payload = _read_payload(header_path, _LABELS.kind, _LABELS.scalar, math.prod(dims))
    return LabelGrid(labels=payload.reshape(dims), class_names=header.get("class_names"))


# the split header's scalar fields, required and optional, on save and load
_SPLIT_FIELDS = [("seed", int)], [("per_class_train", int), ("fraction", (int, float))]


def _pixel_rows(entries, side=None):
    """The (n, 3) int64 rows of a pixel set's entries, a pair's class 0.
    An entry is a [row, col] or [row, col, class] list or tuple of ints or
    numpy integers (bools, JSON true and false among them, are not), its
    class >= 1 and each index in int64; any other is a FormatError naming
    the split side, if any, else the pixel set."""
    name = f"split {side}" if side else "pixel set"
    if not (set(map(type, entries)) <= {list, tuple} and set(map(len, entries)) <= {2, 3}
            and all(t is int or issubclass(t, np.integer)
                    for t in set(map(type, itertools.chain.from_iterable(entries))))):
        raise FormatError(f"{name} must hold [row, col] or [row, col, class] integers")
    padded = itertools.chain.from_iterable(e if len(e) == 3 else (*e, 0) for e in entries)
    try:
        rows = np.fromiter(padded, np.int64, 3 * len(entries)).reshape(-1, 3)
    except OverflowError:
        raise FormatError(f"{name} entries hold an index outside int64") from None
    for i in np.flatnonzero(rows[:, 2] < 1).tolist():
        if len(entries[i]) == 3:
            raise FormatError(f"{name} entry {tuple(rows[i].tolist())} has a class < 1")
    return rows


def _entries(rows):
    """A split side's (n, 3) payload rows as tuples of ints, a row of
    class 0 as its (row, col) pair."""
    triples = list(zip(*rows.T.tolist()))
    return triples if rows[:, 2].all() else [t if t[2] else t[:2] for t in triples]


def save_split(manifest: SplitManifest, path):
    """Write the split manifest in format 2 (see the module docstring); a
    field load_split refuses, or an entry _pixel_rows refuses, is a
    FormatError before any write."""
    header = {name: getattr(manifest, name) for name in ("seed", "per_class_train", "fraction")}
    header = {k: v.item() if isinstance(v, np.generic) else v for k, v in header.items()}
    _check_fields(header, "split", *_SPLIT_FIELDS)
    sides = _pixel_rows(manifest.train, "train"), _pixel_rows(manifest.test, "test")
    header.update(train_count=len(sides[0]), test_count=len(sides[1]))
    _write_container(path, SPLIT_FORMAT_VERSION, header, sides, "<i8")


def load_split(path) -> SplitManifest:
    """A split manifest of format 2, the only one read.  Its counts are
    checked before its payload is read, and the payload's size before any
    allocation; a negative class there is a FormatError."""
    doc = _read_header(path, "split", (SPLIT_FORMAT_VERSION,), *_SPLIT_FIELDS)
    n, m = (_field(doc, "split", name, int, 0) for name in ("train_count", "test_count"))
    rows = _read_payload(path, "split", "<i8", 3 * (n + m)).reshape(-1, 3)
    if (rows[:, 2] < 0).any():
        raise FormatError("split payload holds a negative class")
    return SplitManifest(seed=doc["seed"], per_class_train=doc.get("per_class_train"),
                         fraction=doc.get("fraction"), train=_entries(rows[:n]),
                         test=_entries(rows[n:]))


def normalize(cube: HsiCube, stats_source: SplitManifest) -> HsiCube:
    """Per-band min-max scaling fit on training-pixel spectra only.

    Test pixels outside the training range map outside [0, 1] (no
    clamping); a band constant over the training set maps to all zeros.
    A training pixel outside the cube raises SplitError.  A floating cube
    keeps its dtype; any other cube is scaled in float32, bitwise as its
    float32 copy would be.
    """
    rows, cols, _ = _pixel_rows(stats_source.train, "train").T
    if not len(rows):
        raise SplitError("normalization needs a non-empty training set")
    outside = (rows < 0) | (rows >= cube.height) | (cols < 0) | (cols >= cube.width)
    if outside.any():
        k = int(np.argmax(outside))
        raise SplitError(f"training pixel ({rows[k]}, {cols[k]}) lies outside the "
                         f"{cube.height}x{cube.width} cube")
    dtype = cube.values.dtype if np.issubdtype(cube.values.dtype, np.floating) else np.float32
    spectra = cube.values[rows, cols, :].astype(dtype, copy=False)
    band_min = spectra.min(axis=0)
    band_range = spectra.max(axis=0) - band_min
    safe = np.where(band_range > 0, band_range, 1.0)
    scale = np.where(band_range > 0, 1.0 / safe, 0.0).astype(dtype)
    values = np.empty(cube.values.shape, dtype)  # the one scene-sized array

    def scale_rows(block):
        np.subtract(cube.values[block], band_min, out=values[block], dtype=dtype)
        values[block] *= scale

    _row_blocks(cube.height, values[0].nbytes, _BLOCK_BYTES, scale_rows)
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
    return _cut(cube.values, row - half, col - half, window, window)


def _cut(values, row, col, rows, cols):
    """The (1, 1, rows, cols, S) window of the (height, width, S) raster
    values whose first position is pixel (row, col), zeros where it lies
    past the raster's edges: a training patch, or a stream step's input."""
    x = np.zeros((1, 1, rows, cols, values.shape[2]), values.dtype)
    r0, r1 = max(0, row), min(values.shape[0], row + rows)
    c0, c1 = max(0, col), min(values.shape[1], col + cols)
    if r0 < r1 and c0 < c1:
        x[0, 0, r0 - row:r1 - row, c0 - col:c1 - col] = values[r0:r1, c0:c1]
    return x


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
        for side, mask in ((train, chosen), (test, ~chosen)):
            rows, cols = coords[mask].T.tolist()
            side += zip(rows, cols, itertools.repeat(cls))
    return SplitManifest(
        seed=seed,
        per_class_train=per_class_train,
        fraction=fraction,
        train=train,
        test=test,
    )
