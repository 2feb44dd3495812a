"""The error contract of the reading commands: whatever value a header
field of an input artifact holds, eval and predict-map exit 0 or name the
fault with one of the input error codes, never with a traceback or
E_INTERNAL.

Every top-level header field of the cube, labels, split and checkpoint,
and every field of the checkpoint's config, is set in turn to each of
VALUES, on a small 12-band scene.
"""

import json

import numpy as np
import pytest

from specnet3d.cli import main
from specnet3d.data import HsiCube, LabelGrid, save_cube, save_labels, save_split, stratified_split
from specnet3d.network import ModelConfig, build_model, save_checkpoint

# null, true, -1, 0, 2**70, 1.5, a string, [], {} and four nested lists
VALUES = [None, True, -1, 0, 2**70, 1.5, "x", [], {},
          [[0]], [[0, 0, 1]], [[1, 2], [3, 4]], [[[1]]]]

# each artifact's header file, the fields its writer puts there, and the
# commands that read it
ARTIFACTS = {
    "cube": ("scene.hsc.json", ["format_version", "height", "width", "bands", "dtype",
                                "order"], ["eval", "predict-map"]),
    "labels": ("scene.lbl.json", ["format_version", "height", "width", "dtype", "order",
                                  "class_names"], ["eval"]),
    "split": ("scene.split.json", ["format_version", "seed", "per_class_train", "fraction",
                                   "train_count", "test_count"], ["eval", "predict-map"]),
    "checkpoint": ("model.ckpt.json", ["format_version", "config", "rng_seed", "layers"],
                   ["eval", "predict-map"]),
}
CONFIG_FIELDS = ["spectral_depth", "num_classes", "spatial_window"]
CASES = ([(kind, (name,)) for kind, (_, names, _) in ARTIFACTS.items() for name in names]
         + [("checkpoint", ("config", name)) for name in CONFIG_FIELDS])

ALLOWED = ("E_FORMAT", "E_SPLIT", "E_MISMATCH", "E_SHAPE")
EMPTY_SET = "error[E_CONFIG]: the pixel set to evaluate is empty\n"


@pytest.fixture(scope="module")
def scene(tmp_path_factory):
    """A 9x6 three-class 12-band scene, its split, and an untrained model."""
    d = tmp_path_factory.mktemp("contract")
    rng = np.random.default_rng(80)
    labels = LabelGrid(labels=np.arange(54).reshape(9, 6) % 3 + 1,
                       class_names=["a", "b", "c"])
    save_cube(HsiCube(values=rng.random((9, 6, 12), dtype=np.float32)), d / "scene.hsc.json")
    save_labels(labels, d / "scene.lbl.json")
    save_split(stratified_split(labels, 3, seed=1), d / "scene.split.json")
    save_checkpoint(build_model(ModelConfig(12, 3, 7), 0), d / "model.ckpt.json")
    return d


def _run(d, command):
    inputs = ["--checkpoint", d / "model.ckpt.json", "--cube", d / "scene.hsc.json",
              "--split", d / "scene.split.json"]
    if command == "eval":
        argv = ["eval", *inputs, "--labels", d / "scene.lbl.json", "--out", d / "report.json"]
    else:
        argv = ["predict-map", *inputs, "--out", d / "map.ppm"]
    return main([str(a) for a in argv])


def test_every_header_field_is_covered(scene):
    for kind, (name, fields, _) in ARTIFACTS.items():
        header = json.loads((scene / name).read_text())
        assert sorted(header) == sorted(fields), kind
        if kind == "checkpoint":
            assert sorted(header["config"]) == sorted(CONFIG_FIELDS)


def test_unchanged_scene_runs(scene, capsys):
    assert [_run(scene, command) for command in ("eval", "predict-map")] == [0, 0]


@pytest.mark.parametrize("kind, path", CASES, ids=[f"{k}.{'.'.join(p)}" for k, p in CASES])
def test_any_field_value_ends_in_an_input_error(scene, capsys, kind, path):
    name, _, commands = ARTIFACTS[kind]
    header_path = scene / name
    original = header_path.read_text()
    faults = []
    try:
        for value in VALUES:
            header_path.write_text(_with(original, path, value))
            for command in commands:
                capsys.readouterr()
                try:
                    rc = _run(scene, command)
                except Exception as exc:  # a traceback out of main
                    faults.append((value, command, repr(exc)))
                    continue
                err = capsys.readouterr().err
                code = err[len("error["):err.find("]")] if err.startswith("error[") else None
                if not (rc == 0 or code in ALLOWED
                        or (command == "eval" and err == EMPTY_SET)):
                    faults.append((value, command, rc, err))
    finally:
        header_path.write_text(original)
    assert faults == []


def _with(text, path, value):
    """The JSON header text with the field at path set to value."""
    header = json.loads(text)
    node = header
    for parent in path[:-1]:
        node = node[parent]
    node[path[-1]] = value
    return json.dumps(header)
