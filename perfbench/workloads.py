"""The four benchmark workloads, each driving the package through the
public calls ``specnet3d.cli`` makes.

A workload has a ``setup`` that builds its seeded inputs (and writes the
files its command path reads), an ``op`` that is one closed-loop
operation, a ``check`` run on each op's result, and ``final_checks`` run
once after the timed loop.  Checks return a list of problems; an empty
list means the output is correct.  ``items`` is the work one op does
(training samples, classified pixels, labeled pixels or cube MB).

``Size`` holds every shape a workload uses; ``FULL`` is what the
benchmark measures and ``TINY`` is for the benchmark's own tests.
"""

import hashlib
import math
import os
import time
from dataclasses import dataclass

import numpy as np

import specnet3d as sn
from specnet3d.network import ModelConfig
from specnet3d.training import OptimizerState, TrainConfig

import scenes

CLASSES = 9


@dataclass(frozen=True)
class Size:
    bands: int
    train_per_class: int      # train: training pixels per class
    train_test_per_class: int
    map_hw: tuple             # map: tile height, width
    eval_hw: tuple            # eval_sparse: scene height, width
    io_hw: tuple              # scene_io: scene height, width
    io_per_class: int


# train: 9 x 64 = 576 samples, nine full batch-64 steps per epoch.
# eval_sparse: ~11% labeled, ~10% of all pixels on the test side.
# scene_io: PaviaU's 610x340x103 cube (~86 MB payload) and ~21% labels.
FULL = Size(bands=103, train_per_class=64, train_test_per_class=16,
            map_hw=(16, 24), eval_hw=(64, 64), io_hw=(610, 340), io_per_class=200)
TINY = Size(bands=12, train_per_class=4, train_test_per_class=2,
            map_hw=(6, 7), eval_hw=(12, 12), io_hw=(20, 16), io_per_class=2)

BATCH = 64
# The default learning rate (0.02, momentum 0.9) drives the loss to inf/NaN
# within the first epoch at 103 bands on most seeds, on these scenes and on
# the test fixtures' striped_scene alike.  train keeps every other default
# and steps at a rate that stays finite, so its finiteness check can hold.
TRAIN_LEARNING_RATE = 0.002


def sha256_files(*paths):
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _raw(json_path):
    return json_path[: -len(".json")] + ".raw"


def bitwise_equal(a, b):
    """Same dtype, shape and bits, compared as unsigned integers of the
    same width so that no copy of either array is made."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    if a.dtype != b.dtype or a.shape != b.shape:
        return False
    bits = np.dtype(f"u{a.itemsize}")
    return bool(np.array_equal(a.reshape(-1).view(bits), b.reshape(-1).view(bits)))


def _same_params(model_a, model_b):
    pa, pb = model_a.parameters(), model_b.parameters()
    return pa.keys() == pb.keys() and all(bitwise_equal(pa[k], pb[k]) for k in pa)


def _labeled_pixels(labels):
    return [(int(r), int(c), int(labels[r, c])) for r, c in np.argwhere(labels > 0)]


class Workload:
    name = ""
    item = ""

    def __init__(self, size, workdir):
        self.size = size
        self.workdir = workdir
        self.first = None  # first op's result, the reference for later ops

    def path(self, name):
        return os.path.join(self.workdir, name)

    def same_as_first(self, key, what):
        if self.first is None:
            self.first = key
            return []
        return [] if key == self.first else [f"{what} differs from the first repetition"]

    def final_checks(self):
        return []


class Train(Workload):
    """train(): batch 64, eval_test off, from a fresh seeded model each op
    so every repetition must be bitwise identical."""

    name = "train"
    item = "training samples"

    def setup(self, seed):
        s = self.size
        values, labels = scenes.striped_scene(
            seed, CLASSES, (s.train_per_class + s.train_test_per_class) // 8 + 1,
            8, s.bands)
        self.seed = seed
        self.cube = sn.HsiCube(values)
        self.labels = sn.LabelGrid(labels)
        self.split = sn.stratified_split(self.labels, s.train_per_class, seed=seed)
        self.config = ModelConfig(spectral_depth=s.bands, num_classes=CLASSES)
        self.items = len(self.split.train)

    def op(self):
        model = sn.build_model(self.config, self.seed)
        history = sn.train(
            model, self.cube, self.labels, self.split,
            TrainConfig(epochs=1, batch_size=BATCH, shuffle_seed=self.seed),
            OptimizerState(learning_rate=TRAIN_LEARNING_RATE), eval_test=False,
            checkpoint_path=self.path("model.ckpt.json"),
            history_path=self.path("history.jsonl"),
        )
        return history

    def check(self, history):
        problems = [f"epoch {e['epoch']} loss {e['mean_loss']} is not finite"
                    for e in history if not math.isfinite(e["mean_loss"])]
        ckpt = self.path("model.ckpt.json")
        digest = sha256_files(self.path("history.jsonl"), ckpt, _raw(ckpt))
        return problems + self.same_as_first(digest, "history/checkpoint sha256")


class _SavedScene(Workload):
    """Shared setup: a clumped scene, its split and an initialised model
    written to disk as the CLI's input files."""

    def _write_inputs(self, seed, hw, fraction, per_class_train):
        height, width = hw
        values, labels = scenes.clumped_scene(
            seed, height, width, self.size.bands, CLASSES, fraction,
            min_per_class=per_class_train + 1)
        self.cube = sn.HsiCube(values)
        self.labels = sn.LabelGrid(labels)
        self.split = sn.stratified_split(self.labels, per_class_train, seed=seed)
        self.model = sn.build_model(
            ModelConfig(spectral_depth=self.size.bands, num_classes=CLASSES), seed)
        sn.save_cube(self.cube, self.path("scene.hsc.json"))
        sn.save_labels(self.labels, self.path("scene.lbl.json"))
        sn.save_split(self.split, self.path("scene.split.json"))
        sn.save_checkpoint(self.model, self.path("model.ckpt.json"))


class Map(_SavedScene):
    """The predict-map command path over a whole tile, border pixels
    included: load checkpoint and cube, normalize, predict_map, render."""

    name = "map"
    item = "classified pixels"

    def setup(self, seed):
        self._write_inputs(seed, self.size.map_hw, fraction=0.3, per_class_train=1)
        self.items = self.cube.height * self.cube.width

    def op(self):
        model = sn.load_checkpoint(self.path("model.ckpt.json"))
        cube = sn.load_cube(self.path("scene.hsc.json"))
        split = sn.load_split(self.path("scene.split.json"))
        cube = sn.normalize(cube, split)
        grid = sn.predict_map(model, cube)
        sn.render_class_map(grid, self.path("map.ppm"))
        self.grid = grid
        return grid

    def check(self, grid):
        problems = []
        if grid.shape != self.labels.labels.shape:
            problems.append(f"map shape {grid.shape} != scene {self.labels.labels.shape}")
        elif grid.min() < 1 or grid.max() > CLASSES:
            problems.append(f"map classes outside [1, {CLASSES}]")
        key = (grid.tobytes(), sha256_files(self.path("map.ppm")))
        return problems + self.same_as_first(key, "class map")

    def final_checks(self):
        problems = []
        # the timed ops classified a bitwise copy of this cube (scene_io
        # checks the round trip), so their grid is predict_map's on it
        norm = sn.normalize(self.cube, self.split)
        pixels = _labeled_pixels(self.labels.labels)
        from_grid = sn.ConfusionMatrix.zeros(CLASSES)
        for r, c, cls in pixels:
            from_grid.add(cls, int(self.grid[r, c]))
        evaluated = sn.evaluate(self.model, norm, self.labels, pixels)
        if not np.array_equal(from_grid.counts, evaluated.counts):
            problems.append("confusion matrix from the predict_map grid != evaluate()")
        # a handful of pixels alone must match the same pixels inside a batch
        window = self.model.config.spatial_window
        coords = [(r, c) for r in range(norm.height) for c in range(norm.width)][:BATCH]
        batch = np.concatenate([sn.extract_patch(norm, r, c, window) for r, c in coords])
        logits, _ = sn.forward(self.model, batch)
        for i in np.linspace(0, len(coords) - 1, 5).astype(int):
            alone, _ = sn.forward(self.model, batch[i:i + 1])
            if not bitwise_equal(alone[0], logits[i]):
                problems.append(f"forward of pixel {coords[i]} alone != inside a batch")
        return problems


class EvalSparse(_SavedScene):
    """The eval command path on a scene whose test side is ~10% of pixels,
    in scattered clumps: load everything, normalize, evaluate, report."""

    name = "eval_sparse"
    item = "labeled test pixels"

    def setup(self, seed):
        self._write_inputs(seed, self.size.eval_hw, fraction=0.11, per_class_train=2)
        self.items = len(self.split.test)

    def op(self):
        model = sn.load_checkpoint(self.path("model.ckpt.json"))
        cube = sn.load_cube(self.path("scene.hsc.json"))
        labels = sn.load_labels(self.path("scene.lbl.json"))
        split = sn.load_split(self.path("scene.split.json"))
        norm = sn.normalize(cube, split)
        matrix = sn.evaluate(model, norm, labels, split.test)
        sn.write_report(matrix, self.path("report.json"))
        return matrix

    def check(self, matrix):
        problems = []
        if matrix.total != self.items:
            problems.append(f"matrix total {matrix.total} != {self.items} test pixels")
        key = (matrix.counts.tobytes(), sha256_files(self.path("report.json")))
        return problems + self.same_as_first(key, "confusion matrix/report")


class SceneIO(Workload):
    """Write then read back a PaviaU-shaped cube with its labels, split and
    checkpoint, then normalize the reloaded cube."""

    name = "scene_io"
    item = "cube MB"

    def setup(self, seed):
        height, width = self.size.io_hw
        values, labels = scenes.clumped_scene(
            seed, height, width, self.size.bands, CLASSES, fraction=0.21,
            min_per_class=self.size.io_per_class + 1)
        self.cube = sn.HsiCube(values)
        self.labels = sn.LabelGrid(labels)
        self.split = sn.stratified_split(self.labels, self.size.io_per_class, seed=seed)
        self.model = sn.build_model(
            ModelConfig(spectral_depth=self.size.bands, num_classes=CLASSES), seed)
        self.items = values.nbytes / 1e6
        self.save_s = []
        self.load_s = []

    def op(self):
        paths = [self.path(n) for n in
                 ("scene.hsc.json", "scene.lbl.json", "scene.split.json", "model.ckpt.json")]
        t0 = time.perf_counter()
        sn.save_cube(self.cube, paths[0])
        t1 = time.perf_counter()
        sn.save_labels(self.labels, paths[1])
        sn.save_split(self.split, paths[2])
        sn.save_checkpoint(self.model, paths[3])
        t2 = time.perf_counter()
        cube = sn.load_cube(paths[0])
        t3 = time.perf_counter()
        labels = sn.load_labels(paths[1])
        split = sn.load_split(paths[2])
        model = sn.load_checkpoint(paths[3])
        norm = sn.normalize(cube, split)
        self.save_s.append(t1 - t0)
        self.load_s.append(t3 - t2)
        return cube, labels, split, model, norm

    def check(self, result):
        cube, labels, split, model, norm = result
        problems = []
        if not bitwise_equal(cube.values, self.cube.values):
            problems.append("reloaded cube is not bitwise equal to the saved one")
        if not bitwise_equal(labels.labels, self.labels.labels):
            problems.append("reloaded labels differ")
        if split.train != self.split.train or split.test != self.split.test:
            problems.append("reloaded split differs")
        if not _same_params(model, self.model):
            problems.append("reloaded checkpoint is not bitwise equal to the saved one")
        if norm.values.shape != cube.values.shape or not np.isfinite(norm.values).all():
            problems.append("normalized cube has the wrong shape or non-finite values")
        return problems


WORKLOADS = {w.name: w for w in (Train, Map, EvalSparse, SceneIO)}
