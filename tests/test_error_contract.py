"""The error contract of the reading commands: whatever value a header
field of an input artifact holds, or lacks, and whatever its payload
bytes hold, eval and predict-map exit 0 or name the fault with one of
the input error codes, never with a traceback or E_INTERNAL.

Every top-level header field of the cube, labels, split and checkpoint,
and every field of the checkpoint's config, is set in turn to each of
VALUES and then deleted, on a small 12-band scene.  Each of PAYLOADS
writes one value into one payload.
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
MISSING = object()  # _with's value that deletes the field

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

# each payload fault: the artifact, its payload's dtype, the element
# written and its value; a scene row of 9 lies outside the 9x6 scene
PAYLOADS = {
    "cube-nan": ("cube", "<f4", 0, np.nan),
    "cube-inf": ("cube", "<f4", 100, -np.inf),
    "split-negative-class": ("split", "<i8", 2, -1),
    "split-row-outside-the-scene": ("split", "<i8", 0, 9),
    "checkpoint-nan": ("checkpoint", "<f4", 500, np.nan),
}

# the outcomes a case may end in: exit 0 or one of the input error codes
ALLOWED = (0, "E_FORMAT", "E_SPLIT", "E_MISMATCH", "E_SHAPE")
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


def _faults(d, capsys, commands, case, allowed=ALLOWED):
    """The runs of commands on d that end outside the contract: a traceback
    out of main, or an outcome neither allowed nor an empty eval set."""
    faults = []
    for command in commands:
        capsys.readouterr()
        try:
            rc = _run(d, command)
        except Exception as exc:  # a traceback out of main
            faults.append((case, command, repr(exc)))
            continue
        err = capsys.readouterr().err
        code = err[len("error["):err.find("]")] if err.startswith("error[") else None
        if not ((0 if rc == 0 else code) in allowed
                or (command == "eval" and err == EMPTY_SET)):
            faults.append((case, command, rc, err))
    return faults


@pytest.mark.parametrize("kind, path", CASES, ids=[f"{k}.{'.'.join(p)}" for k, p in CASES])
def test_any_field_value_ends_in_an_input_error(scene, capsys, kind, path):
    name, _, commands = ARTIFACTS[kind]
    header_path = scene / name
    original = header_path.read_text()
    faults = []
    try:
        for value in VALUES + [MISSING]:
            header_path.write_text(_with(original, path, value))
            faults += _faults(scene, capsys, commands, value)
    finally:
        header_path.write_text(original)
    assert faults == []


@pytest.mark.parametrize("case", PAYLOADS)
def test_any_payload_fault_ends_in_an_input_error(scene, capsys, case):
    kind, dtype, index, value = PAYLOADS[case]
    name, _, commands = ARTIFACTS[kind]
    raw_path = scene / name.replace(".json", ".raw")
    original = raw_path.read_bytes()
    payload = np.frombuffer(original, dtype).copy()
    payload[index] = value
    # a non-finite weight is the checkpoint's own fault, never an exit 0
    allowed = ("E_FORMAT",) if kind == "checkpoint" else ALLOWED
    try:
        raw_path.write_bytes(payload.tobytes())
        faults = _faults(scene, capsys, commands, case, allowed)
    finally:
        raw_path.write_bytes(original)
    assert faults == []


def _with(text, path, value):
    """The JSON header text with the field at path set to value, or
    deleted for MISSING."""
    header = json.loads(text)
    node = header
    for parent in path[:-1]:
        node = node[parent]
    if value is MISSING:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return json.dumps(header)
