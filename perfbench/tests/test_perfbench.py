"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402

run.import_package()

import scenes  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _generated(seed):
    """Every array the workloads' scene generators produce for a seed."""
    s = workloads.FULL
    out = []
    out += scenes.striped_scene(seed, workloads.CLASSES, 11, 8, s.bands)
    out += scenes.clumped_scene(seed, *s.map_hw, s.bands, workloads.CLASSES, 0.3, 2)
    out += scenes.clumped_scene(seed, *s.eval_hw, s.bands, workloads.CLASSES, 0.11, 3)
    out += scenes.clumped_scene(seed, 120, 90, s.bands, workloads.CLASSES, 0.21, 201)
    return [a.tobytes() for a in out]


def test_generators_are_byte_identical_for_a_seed():
    first, again, other = _generated(5), _generated(5), _generated(6)
    assert first == again
    # index 1 holds the stripe labels, which are the same for every seed
    assert all(a != b for i, (a, b) in enumerate(zip(first, other)) if i != 1)


def test_clumped_labels_meet_fraction_and_class_minimum():
    rng = np.random.default_rng(0)
    labels = scenes.clumped_labels(rng, 64, 64, 9, 0.11, 3)
    labeled = np.count_nonzero(labels) / labels.size
    assert 0.11 <= labeled < 0.2
    assert np.bincount(labels.ravel(), minlength=10)[1:].min() >= 3


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_listed_metric(tmp_path, name, trace):
    failures = []
    record = run.measure(name, seed=1, seconds=0.01, trace=trace,
                         size=workloads.TINY, out_dir=str(tmp_path), log=failures.append)
    assert failures == []
    line = json.loads(run.metrics_line(record))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 2
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert list(line["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        assert line["metrics"][m["name"]]["unit"] == m["unit"]
        assert np.isfinite(line["metrics"][m["name"]]["value"])
    assert spans.installed() == []
    assert [p for p in tmp_path.iterdir() if p.is_dir()] == []  # work dir removed


def test_train_spans_cover_the_traced_train_wall_time(tmp_path):
    wl = workloads.Train(workloads.FULL, str(tmp_path))
    wl.setup(1)
    with spans.Tracer("coverage") as tracer:
        wl.op()
    assert spans.installed() == []
    assert tracer.coverage("training.train") >= 0.9
    summary = tracer.summary()
    model = workloads.sn.build_model(wl.config, 0)
    traced = sum(s["flops"] for n, s in summary.items() if n.startswith("ops."))
    assert traced == 3 * wl.items * spans.patch_flops_per_pixel(model)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
