"""The on-disk containers of all five artifacts: cube, labels, split,
checkpoint and report.

The golden-bytes tests pin every byte the writers produce for tiny
hand-built inputs, so any change to the header serialisation or payload
layout shows up here. The checkpoint's weights are set by hand, not drawn,
so its pin does not depend on numpy's random stream.  The full-disk tests
at the end cover every file the package writes, the training history and
the class map included.
"""

import builtins
import errno
import hashlib
import json
import math
import re
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from specnet3d.data import (
    _write_container,
    HsiCube,
    LabelGrid,
    SplitManifest,
    load_cube,
    load_labels,
    load_split,
    save_cube,
    save_labels,
    save_split,
    stratified_split,
)
from specnet3d.errors import FormatError
from specnet3d.metrics import ConfusionMatrix, load_report, render_class_map, write_report
from specnet3d.network import ModelConfig, build_model, load_checkpoint, save_checkpoint
from specnet3d.training import OptimizerState, TrainConfig, train

from synth import overfit_scene


def _write_cube(path):
    # v[r, c, b] = (2 * (3r + c) + b - 4) / 4
    values = (np.arange(12, dtype=np.float32).reshape(2, 3, 2) - 4) / 4
    save_cube(HsiCube(values=values), path)


def _write_labels(path):
    grid = LabelGrid(labels=np.array([[0, 1, 2], [2, 1, 0]], dtype=np.uint8),
                     class_names=["a", "b"])
    save_labels(grid, path)


def _write_split(path):
    save_split(SplitManifest(seed=5, train=[(0, 1, 1)], test=[(1, 0, 2)],
                             fraction=0.5), path)


def _write_checkpoint(path):
    model = build_model(ModelConfig(8, 2, 5), 0)
    for i, arr in enumerate(model.parameters().values()):
        arr[...] = ((np.arange(arr.size) % 7 - 3) / 8 + i).reshape(arr.shape)
    save_checkpoint(model, path)


def _write_report(path):
    write_report(ConfusionMatrix([[3, 1], [0, 2]], class_names=["a", "b"]), path,
                 history=[{"epoch": 1, "mean_loss": 0.5}])


# kind -> (header file name, writer, loader, payload scalar size or None)
CONTAINERS = {
    "cube": ("c.hsc.json", _write_cube, load_cube, 4),
    "labels": ("l.lbl.json", _write_labels, load_labels, 1),
    "split": ("s.split.json", _write_split, load_split, 8),
    "checkpoint": ("m.ckpt.json", _write_checkpoint, load_checkpoint, 4),
    "report": ("r.json", _write_report, load_report, None),
}
PAYLOAD_KINDS = [k for k, v in CONTAINERS.items() if v[3] is not None]


def _written(kind, tmp_path):
    name, write, _, _ = CONTAINERS[kind]
    path = tmp_path / name
    write(path)
    return path


def _raw(path):
    return path.with_name(path.name[: -len(".json")] + ".raw")


GOLDEN_HEADERS = {
    "cube": """{
  "bands": 2,
  "dtype": "f32le",
  "format_version": 1,
  "height": 2,
  "order": "bsq",
  "width": 3
}
""",
    "labels": """{
  "class_names": [
    "a",
    "b"
  ],
  "dtype": "u8",
  "format_version": 1,
  "height": 2,
  "order": "row-major",
  "width": 3
}
""",
    "split": """{
  "format_version": 2,
  "fraction": 0.5,
  "per_class_train": null,
  "seed": 5,
  "test_count": 1,
  "train_count": 1
}
""",
    "report": """{
  "class_names": [
    "a",
    "b"
  ],
  "format_version": 1,
  "history": [
    {
      "epoch": 1,
      "mean_loss": 0.5
    }
  ],
  "kappa": 0.6666666666666667,
  "matrix": [
    [
      3,
      1
    ],
    [
      0,
      2
    ]
  ],
  "overall_accuracy": 0.8333333333333334,
  "per_class_accuracy": [
    0.75,
    1.0
  ]
}
""",
}
GOLDEN_PAYLOADS = {
    # band-sequential: band 0's 2x3 plane row-major, then band 1's
    "cube": struct.pack("<12f", -1.0, -0.5, 0.0, 0.5, 1.0, 1.5,
                        -0.75, -0.25, 0.25, 0.75, 1.25, 1.75),
    "labels": bytes([0, 1, 2, 2, 1, 0]),
    # int64 [row, col, class] rows: the train side's, then the test side's
    "split": struct.pack("<6q", 0, 1, 1, 1, 0, 2),
}
# the same split as format 1 wrote it, header only, which no longer loads
V1_SPLIT_HEADER = """{
  "format_version": 1,
  "fraction": 0.5,
  "per_class_train": null,
  "seed": 5,
  "test": [
    [
      1,
      0,
      2
    ]
  ],
  "train": [
    [
      0,
      1,
      1
    ]
  ]
}
"""
# the checkpoint's 9-layer manifest and 29,962-scalar blob, by length and sha256
GOLDEN_CHECKPOINT = {
    "m.ckpt.json": (1614, "2e5f6902294907777688e2215566fc67b9a8f7696b3341863101ffb045e3ba02"),
    "m.ckpt.raw": (119848, "49e1d5d83587394331a8b48fc86fce6b48577f0be35c2890c0a39f79d761235e"),
}


class TestGoldenBytes:
    @pytest.mark.parametrize("kind", ["cube", "labels", "split", "report"])
    def test_exact_bytes(self, kind, tmp_path):
        path = _written(kind, tmp_path)
        assert path.read_bytes() == GOLDEN_HEADERS[kind].encode("utf-8")
        if kind in GOLDEN_PAYLOADS:
            assert _raw(path).read_bytes() == GOLDEN_PAYLOADS[kind]
        else:
            assert not _raw(path).exists()

    def test_checkpoint_exact_bytes(self, tmp_path):
        path = _written("checkpoint", tmp_path)
        for name, (size, digest) in GOLDEN_CHECKPOINT.items():
            data = (tmp_path / name).read_bytes()
            assert (len(data), hashlib.sha256(data).hexdigest()) == (size, digest), name
        # Conv1.weight starts (0 % 7 - 3) / 8, (1 % 7 - 3) / 8, ...
        assert _raw(path).read_bytes()[:12] == struct.pack("<3f", -0.375, -0.25, -0.125)

    def test_v1_split_is_refused_by_its_version(self, tmp_path, capsys):
        from specnet3d.cli import main

        path = tmp_path / "v1.split.json"
        path.write_text(V1_SPLIT_HEADER)
        with pytest.raises(FormatError) as exc:
            load_split(path)
        assert str(exc.value) == "unknown split format_version 1"
        inputs = ["--checkpoint", str(_written("checkpoint", tmp_path)),
                  "--cube", str(_written("cube", tmp_path)), "--split", str(path)]
        for argv in (["eval", *inputs, "--labels", str(_written("labels", tmp_path)),
                      "--out", str(tmp_path / "eval.json")],
                     ["predict-map", *inputs, "--out", str(tmp_path / "map.ppm")]):
            capsys.readouterr()
            assert main(argv) == 1
            assert capsys.readouterr().err == (
                "error[E_FORMAT]: unknown split format_version 1\n"), argv[0]


@pytest.mark.parametrize("kind", PAYLOAD_KINDS)
@pytest.mark.parametrize("delta", [-1, 1], ids=["short", "long"])
def test_payload_size_rejected(kind, delta, tmp_path):
    path = _written(kind, tmp_path)
    itemsize = CONTAINERS[kind][3]
    raw = _raw(path)
    data = raw.read_bytes()
    required = len(data) // itemsize
    raw.write_bytes(data[:-itemsize] if delta < 0 else data + data[:itemsize])
    with pytest.raises(FormatError) as exc:
        CONTAINERS[kind][2](path)
    # the message names the scalar count found and the count required
    assert f" {required + delta} " in str(exc.value)
    assert str(exc.value).endswith(f" {required}")


@pytest.mark.parametrize("kind", list(CONTAINERS))
def test_unknown_format_version_rejected(kind, tmp_path):
    path = _written(kind, tmp_path)
    doc = json.loads(path.read_text())
    doc["format_version"] = 9
    path.write_text(json.dumps(doc))
    with pytest.raises(FormatError, match=f"unknown {kind} format_version 9"):
        CONTAINERS[kind][2](path)


@pytest.mark.parametrize("kind, dims, count", [
    ("cube", {"height": 10**6, "width": 10**6, "bands": 1000}, 10**15),
    ("labels", {"height": 10**6, "width": 10**6}, 10**12),
])
def test_huge_declared_dims_rejected_before_allocation(kind, dims, count, tmp_path):
    # the payload size is checked before memory for the declared dims is taken
    path = _written(kind, tmp_path)
    doc = json.loads(path.read_text())
    doc.update(dims)
    path.write_text(json.dumps(doc))
    with pytest.raises(FormatError, match=f"exactly {count}$"):
        CONTAINERS[kind][2](path)


@pytest.mark.parametrize("kind, dims", [
    # (-2)(-3) is 6, so the payload size alone does not catch these
    ("cube", {"height": -2, "width": -3}),
    ("labels", {"height": -2, "width": -3}),
    ("labels", {"height": 0}),
    ("cube", {"bands": 0}),
])
def test_non_positive_dims_rejected(kind, dims, tmp_path):
    path = _written(kind, tmp_path)
    doc = json.loads(path.read_text())
    doc.update(dims)
    path.write_text(json.dumps(doc))
    # a payload of exactly the scalars the declared dims multiply out to
    count = math.prod(doc[name] for name in ("height", "width", "bands") if name in doc)
    _raw(path).write_bytes(bytes(count * CONTAINERS[kind][3]))
    with pytest.raises(FormatError, match=f"^{kind} header field '{next(iter(dims))}' "):
        CONTAINERS[kind][2](path)


# kind -> (a required header field, a value of the wrong type for it)
REQUIRED_FIELDS = {
    "cube": ("height", "2"),
    "labels": ("width", [3]),
    "split": ("test_count", "1"),
    "checkpoint": ("layers", 9),
    "report": ("matrix", "3 1 0 2"),
}


@pytest.mark.parametrize("kind", list(CONTAINERS))
@pytest.mark.parametrize("edit", ["deleted", "wrong type", "not an object"])
def test_bad_header_field_raises_format_error(kind, edit, tmp_path):
    path = _written(kind, tmp_path)
    doc = json.loads(path.read_text())
    field, wrong = REQUIRED_FIELDS[kind]
    if edit == "deleted":
        del doc[field]
    elif edit == "wrong type":
        doc[field] = wrong
    else:
        doc = [doc]
    path.write_text(json.dumps(doc))
    with pytest.raises(FormatError) as exc:
        CONTAINERS[kind][2](path)
    message = str(exc.value)
    assert message.startswith(kind)
    if edit != "not an object":
        assert repr(field) in message


@pytest.mark.parametrize("kind, edit", [
    ("checkpoint", lambda doc: doc["config"].pop("spectral_depth")),
    ("checkpoint", lambda doc: doc["config"].update(num_classes=2.5)),
    ("checkpoint", lambda doc: doc["layers"][3].pop("weight_shape")),
    ("checkpoint", lambda doc: doc["layers"].__setitem__(0, "Conv1")),
    ("checkpoint", lambda doc: doc.update(rng_seed="0")),
    # each a config no model builds from; spectral_depth 2 is a valid
    # ModelConfig whose Conv1 outgrows the depth
    ("checkpoint", lambda doc: doc["config"].update(spectral_depth=0)),
    ("checkpoint", lambda doc: doc["config"].update(num_classes=0)),
    ("checkpoint", lambda doc: doc["config"].update(spatial_window=4)),
    ("checkpoint", lambda doc: doc["config"].update(spectral_depth=2)),
    # a layer entry with a key the table lacks, and two swapped entries
    ("checkpoint", lambda doc: doc["layers"][5].update(dtype="<f4")),
    ("checkpoint", lambda doc: doc["layers"].insert(1, doc["layers"].pop(0))),
    # optional split fields of the wrong type
    ("split", lambda doc: doc.update(per_class_train="lots")),
    ("split", lambda doc: doc.update(fraction=[1, 2])),
    ("split", lambda doc: doc.update(fraction=True)),
    ("labels", lambda doc: doc.update(class_names="a,b")),
    ("report", lambda doc: doc.update(class_names="a,b")),
    ("report", lambda doc: doc.update(history={"epoch": 1})),
    # format 2 splits: a bool or negative count, each before the payload
    ("split", lambda doc: doc.update(train_count=True)),
    ("split", lambda doc: doc.update(test_count=False)),
    ("split", lambda doc: doc.update(train_count=-1)),
    # counts that sum to the payload's two rows
    ("split", lambda doc: doc.update(test_count=-2, train_count=4)),
    ("split", lambda doc: doc.update(per_class_train=True)),
    ("split", lambda doc: doc.update(seed=None)),
])
def test_bad_nested_header_field_raises_format_error(kind, edit, tmp_path):
    path = _written(kind, tmp_path)
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(FormatError, match=f"^{kind}"):
        CONTAINERS[kind][2](path)


def test_checkpoint_without_rng_seed_is_refused(tmp_path):
    path = _written("checkpoint", tmp_path)
    doc = json.loads(path.read_text())
    del doc["rng_seed"]
    path.write_text(json.dumps(doc))
    with pytest.raises(FormatError) as exc:
        load_checkpoint(path)
    assert str(exc.value) == "checkpoint header has no 'rng_seed' field"


def test_cli_reports_missing_header_field(tmp_path, capsys):
    from specnet3d.cli import main

    ckpt = _written("checkpoint", tmp_path)
    cube = _written("cube", tmp_path)
    doc = json.loads(cube.read_text())
    del doc["height"]
    cube.write_text(json.dumps(doc))
    rc = main(["predict-map", "--checkpoint", str(ckpt), "--cube", str(cube),
               "--split", str(_written("split", tmp_path)),
               "--out", str(tmp_path / "map.ppm")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error[E_FORMAT]: cube header has no 'height' field")


# a few examples each, so the properties add little to the suite's time
PROPERTY = settings(max_examples=30, deadline=None)
DIMS = ("height", "width", "bands")


@PROPERTY
@given(
    values=hnp.arrays(np.float32, hnp.array_shapes(min_dims=3, max_dims=3, max_side=4),
                      elements=st.floats(width=32, allow_nan=False, allow_infinity=False)),
    labels=hnp.arrays(np.uint8, hnp.array_shapes(min_dims=2, max_dims=2, max_side=5)),
    class_names=st.none() | st.lists(st.text(max_size=4), min_size=1, max_size=3),
)
def test_round_trip_is_bitwise(values, labels, class_names):
    with tempfile.TemporaryDirectory() as d:
        save_cube(HsiCube(values=values), Path(d) / "c.hsc.json")
        save_labels(LabelGrid(labels=labels, class_names=class_names), Path(d) / "l.lbl.json")
        cube = load_cube(Path(d) / "c.hsc.json")
        grid = load_labels(Path(d) / "l.lbl.json")
    assert cube.values.dtype == np.float32 and cube.values.shape == values.shape
    assert cube.values.tobytes() == values.tobytes()
    assert grid.labels.dtype == np.uint8 and grid.labels.shape == labels.shape
    assert grid.labels.tobytes() == labels.tobytes()
    assert grid.class_names == class_names


@PROPERTY
@given(
    kind=st.sampled_from(["cube", "labels"]),
    dims=st.fixed_dictionaries({name: st.integers(-3, 4) | st.integers(2**31, 2**70)
                                | st.integers(-2**70, -2**31) for name in DIMS}),
    # a scalar count, or "declared": the count the dims multiply out to
    scalars=st.integers(0, 64) | st.just("declared"),
)
def test_load_gives_declared_shape_or_format_error(kind, dims, scalars):
    with tempfile.TemporaryDirectory() as d:
        path = _written(kind, Path(d))
        doc = json.loads(path.read_text())
        declared = tuple(dims[name] for name in DIMS if name in doc)
        doc.update(zip(DIMS, declared))
        path.write_text(json.dumps(doc))
        if scalars == "declared":
            scalars = min(max(math.prod(declared), 0), 4096)
        _raw(path).write_bytes(bytes(scalars * CONTAINERS[kind][3]))
        try:
            loaded = CONTAINERS[kind][2](path)
        except FormatError:
            return
    assert (loaded.values if kind == "cube" else loaded.labels).shape == declared


# pixel entries as a split holds them: (row, col) pairs and (row, col,
# class) triples, with negative ints and ints beyond 32 bits among them;
# a triple's class is at least 1
INTS = st.integers(-5, 5) | st.integers(2**31, 2**40) | st.integers(-2**40, -2**31)
CLASSES = st.integers(1, 5) | st.integers(2**31, 2**40)
ENTRIES = st.lists(st.tuples(INTS, INTS) | st.tuples(INTS, INTS, CLASSES), max_size=6)


def _indented(header):
    return (json.dumps(header, indent=2, sort_keys=True) + "\n").encode("utf-8")


def _payload(*sides):
    """A split payload's bytes: each entry as int64 (row, col, class), a
    pair's class 0."""
    rows = [(*e, 0)[:3] for side in sides for e in side]
    return struct.pack(f"<{3 * len(rows)}q", *(v for row in rows for v in row))


@PROPERTY
@given(seed=INTS, train=ENTRIES, test=ENTRIES,
       sizes=st.sampled_from([(None, None), (3, None), (None, 0.25)]))
@example(seed=0, train=[], test=[(7, -3)], sizes=(None, None))
@example(seed=2**33, train=[(0, 1, 2), (3, 4)], test=[(2**31, -2**35, 1)], sizes=(3, None))
def test_split_bytes_are_the_indented_encoders(seed, train, test, sizes):
    manifest = SplitManifest(seed=seed, train=train, test=test,
                             per_class_train=sizes[0], fraction=sizes[1])
    header = {"format_version": 2, "seed": seed, "per_class_train": sizes[0],
              "fraction": sizes[1], "train_count": len(train), "test_count": len(test)}
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "s.split.json"
        save_split(manifest, path)
        assert path.read_bytes() == _indented(header)
        assert _raw(path).read_bytes() == _payload(train, test)
        assert load_split(path) == manifest


INT64 = st.integers(-2**63, 2**63 - 1)


@PROPERTY
@given(sides=st.lists(st.lists(st.tuples(INT64, INT64)
                               | st.tuples(INT64, INT64, st.integers(1, 2**63 - 1)),
                               max_size=8), min_size=2, max_size=2),
       seed=INT64)
@example(sides=[[(-2**63, 2**63 - 1, 2**63 - 1), (0, 0)], [(0, 0), (5, 5, 1)]], seed=-1)
def test_split_round_trip_keeps_pairs_and_triples(sides, seed):
    manifest = SplitManifest(seed=seed, train=sides[0], test=sides[1])
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "s.split.json"
        save_split(manifest, path)
        loaded = load_split(path)
        # pairs come back as pairs, and every value as a Python int
        assert loaded == manifest
        assert {type(v) for e in loaded.train + loaded.test for v in e} <= {int}
        save_split(loaded, Path(d) / "again.split.json")
        assert _raw(Path(d) / "again.split.json").read_bytes() == _raw(path).read_bytes()


@PROPERTY
@given(matrix=st.integers(1, 4).flatmap(lambda n: hnp.arrays(
    np.int64, (n, n), elements=st.integers(0, 5) | st.integers(2**31, 2**40))))
def test_report_bytes_are_the_indented_encoders(matrix):
    matrix[0, 0] += 1  # an empty matrix has no accuracy
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "r.json"
        header = write_report(ConfusionMatrix(matrix), path)
        assert path.read_bytes() == _indented(header)


# any JSON a header field may hold: rows of scalars, empty rows, and
# strings and keys made of the characters the row layout edits
TEXT = st.text(alphabet='[]{},:" \n\\a', max_size=3)
SCALARS = st.none() | st.booleans() | st.integers(-2**40, 2**40) | st.floats() | TEXT
JSON_VALUES = st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=3)
                           | st.dictionaries(TEXT, inner, max_size=3), max_leaves=12)
ROW_ITEMS = SCALARS | st.dictionaries(TEXT, SCALARS, max_size=1) | st.lists(SCALARS, max_size=2)
ROWS = st.lists(st.lists(ROW_ITEMS, max_size=3) | st.tuples(ROW_ITEMS) | SCALARS, max_size=4)


@PROPERTY
@given(header=st.dictionaries(TEXT, JSON_VALUES | ROWS, max_size=5))
# lists that are not rows of scalars but could pass for them
@example(header={"a": [[1], 2, [[3]]], "b": [[]], "c": [["]]"]], "d": [[{}], (None, 1.5)]})
def test_any_header_bytes_are_the_indented_encoders(header):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "h.json"
        written = _write_container(path, 1, header)
        assert path.read_bytes() == _indented(written)


def test_split_header_bytes_do_not_depend_on_the_entry_count(tmp_path):
    # the entries go to the payload: splits of 0 to 10,000 entries have
    # headers that differ in the two counts' digits alone
    entries = [(i // 100, i % 100, i % 9 + 1) for i in range(10_000)]
    headers = set()
    for n in (0, 1, 10, 10_000):
        path = tmp_path / f"s{n}.split.json"
        save_split(SplitManifest(seed=0, train=entries[:n // 10], test=entries[n // 10:n],
                                 per_class_train=100), path)
        text = path.read_text()
        doc = json.loads(text)
        assert (doc["train_count"], doc["test_count"]) == (n // 10, n - n // 10)
        headers.add(re.sub(r'"(train|test)_count": \d+', "count", text))
        assert len(_raw(path).read_bytes()) == 24 * n
        assert load_split(path).test == entries[n // 10:n]
    assert len(headers) == 1


@pytest.mark.parametrize("edit, message", [
    ({"train_count": True}, "split header field 'train_count' is bool, expected int"),
    ({"test_count": -1}, "split header field 'test_count' is -1, must be >= 0"),
    # the counts sum to the payload's two rows
    ({"train_count": 4, "test_count": -2}, "split header field 'test_count' is -2, must be >= 0"),
    ({"train_count": 2**62}, "split payload holds 6 scalars, its header requires exactly "
                             f"{3 * (2**62 + 1)}"),
])
def test_v2_split_counts_are_checked_before_the_payload(edit, message, tmp_path):
    path = _written("split", tmp_path)
    path.write_text(json.dumps({**json.loads(path.read_text()), **edit}))
    with pytest.raises(FormatError) as exc:
        load_split(path)
    assert str(exc.value) == message


def test_v2_split_negative_class_rejected(tmp_path):
    path = _written("split", tmp_path)
    _raw(path).write_bytes(struct.pack("<6q", 0, 1, 1, 1, 0, -2))
    with pytest.raises(FormatError, match="^split payload holds a negative class$"):
        load_split(path)


def _saved_twins(save, suffix, twins, tmp_path):
    """Save each (numpy-scalar, Python-number) twin pair, check that both
    sides wrote the same bytes, and yield (numpy side's path, Python side)."""
    for i, (numpy_side, python_side) in enumerate(twins):
        paths = [tmp_path / f"{side}{i}{suffix}" for side in ("numpy", "python")]
        save(numpy_side, paths[0])
        save(python_side, paths[1])
        assert paths[0].read_bytes() == paths[1].read_bytes(), i
        yield paths[0], python_side


def test_numpy_scalar_split_headers_save_as_their_numbers(tmp_path):
    _, labels, _ = overfit_scene()
    twins = [
        (stratified_split(labels, np.int64(2), seed=np.int64(3)),
         stratified_split(labels, 2, seed=3)),
        (stratified_split(labels, fraction=np.float32(0.5), seed=np.uint8(4)),
         stratified_split(labels, fraction=0.5, seed=4)),
    ]
    for path, python_side in _saved_twins(save_split, ".split.json", twins, tmp_path):
        assert load_split(path) == python_side


def test_numpy_scalar_checkpoint_headers_save_as_their_numbers(tmp_path):
    twins = [
        (build_model(ModelConfig(np.int64(8), 2, 5), 0), build_model(ModelConfig(8, 2, 5), 0)),
        (build_model(ModelConfig(8, np.int32(2), np.int16(5)), np.int64(1)),
         build_model(ModelConfig(8, 2, 5), 1)),
    ]
    for path, python_side in _saved_twins(save_checkpoint, ".ckpt.json", twins, tmp_path):
        loaded = load_checkpoint(path)
        assert (loaded.config, loaded.rng_seed) == (python_side.config, python_side.rng_seed)
        for got, want in zip(loaded.parameters().values(), python_side.parameters().values()):
            assert got.tobytes() == want.tobytes()


def test_other_unencodable_header_values_keep_json_type_error(tmp_path):
    with pytest.raises(TypeError, match="^Object of type set is not JSON serializable$"):
        _write_container(tmp_path / "h.json", 1, {"a": {1}})
    assert list(tmp_path.iterdir()) == []


class _FailingFile:
    """A text file whose write stores half of the text, then fails as a
    full disk would."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text):
        self.fh.write(text[: len(text) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")

    def writelines(self, lines):
        self.write("".join(lines))


@pytest.mark.parametrize("kind", ["split", "report"])
def test_failed_header_write_keeps_the_previous_file(kind, tmp_path, monkeypatch):
    # only the header's write fails; a split's payload, written first,
    # lands with the same bytes as before
    path = _written(kind, tmp_path)
    before = CONTAINERS[kind][2](path)
    _disk_fills_on(monkeypatch, path.name)
    with pytest.raises(OSError, match="No space left"):
        CONTAINERS[kind][1](path)
    monkeypatch.undo()
    assert path.read_bytes() == GOLDEN_HEADERS[kind].encode("utf-8")
    assert CONTAINERS[kind][2](path) == before
    names = [path.name]
    if kind in GOLDEN_PAYLOADS:
        assert _raw(path).read_bytes() == GOLDEN_PAYLOADS[kind]
        names.append(_raw(path).name)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names)


def _disk_fills_on(monkeypatch, name):
    """From now on, a file opened at a path ending in name, or in name plus
    ".partial", stores half of its first write and then fails as a full
    disk would, whichever module opens it."""
    real_open = builtins.open

    def fake_open(file, *args, **kwargs):
        fh = real_open(file, *args, **kwargs)
        if str(file).removesuffix(".partial").endswith(name):
            return _FailingFile(fh)
        return fh

    monkeypatch.setattr(builtins, "open", fake_open)


@pytest.mark.parametrize("kind", PAYLOAD_KINDS)
def test_failed_payload_write_keeps_the_previous_file(kind, tmp_path, monkeypatch):
    # the payload goes before the header, so the header never describes a
    # payload that did not land
    path = _written(kind, tmp_path)
    header, payload = path.read_bytes(), _raw(path).read_bytes()
    _disk_fills_on(monkeypatch, ".raw")
    with pytest.raises(OSError, match="No space left"):
        CONTAINERS[kind][1](path)
    monkeypatch.undo()
    assert (path.read_bytes(), _raw(path).read_bytes()) == (header, payload)
    CONTAINERS[kind][2](path)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([path.name, _raw(path).name])


def test_failed_class_map_write_keeps_the_previous_map(tmp_path, monkeypatch):
    path = tmp_path / "map.ppm"
    render_class_map([[1, 2], [3, 4]], path)
    before = path.read_bytes()
    _disk_fills_on(monkeypatch, "map.ppm")
    with pytest.raises(OSError, match="No space left"):
        render_class_map([[4, 3], [2, 1]], path)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def test_failed_history_write_leaves_no_file(tmp_path, monkeypatch):
    cube, labels, split = overfit_scene()
    model = build_model(ModelConfig(cube.bands, 9, 7), 3)
    _disk_fills_on(monkeypatch, "history.jsonl")
    with pytest.raises(OSError, match="No space left"):
        train(model, cube, labels, split, TrainConfig(epochs=1), OptimizerState(),
              history_path=tmp_path / "history.jsonl")
    assert list(tmp_path.iterdir()) == []
