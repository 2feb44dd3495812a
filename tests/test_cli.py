import collections
import hashlib
import json

import numpy as np
import pytest

from specnet3d import cli
from specnet3d.cli import main
from specnet3d.data import (
    HsiCube, LabelGrid, SplitManifest, load_labels, load_split, save_cube, save_labels,
    save_split,
)
from specnet3d.metrics import PALETTE
from specnet3d.network import ModelConfig, build_model, load_checkpoint, save_checkpoint
from specnet3d.training import OptimizerState, TrainConfig, predict_map, train

from synth import overfit_scene
from test_training import run_python


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def scene_dir(tmp_path_factory):
    """Overfit scene on disk plus a fully trained checkpoint."""
    d = tmp_path_factory.mktemp("scene")
    cube, labels, split = overfit_scene()
    save_cube(cube, d / "scene.hsc.json")
    save_labels(labels, d / "scene.lbl.json")
    save_split(split, d / "all.split.json")

    model = build_model(ModelConfig(cube.bands, 9, 7), 3)
    train(model, cube, labels, split, TrainConfig(epochs=200, shuffle_seed=5),
          OptimizerState(), checkpoint_path=d / "model.ckpt.json")
    return d


@pytest.fixture
def one_class_dir(tmp_path):
    """A 6x6 scene labeled class 1 throughout: a one-class model predicts
    every pixel right, so kappa is undefined."""
    rng = np.random.default_rng(60)
    save_cube(HsiCube(values=rng.random((6, 6, 12), dtype=np.float32)),
              tmp_path / "one.hsc.json")
    save_labels(LabelGrid(labels=np.ones((6, 6), dtype=np.uint8)), tmp_path / "one.lbl.json")
    return tmp_path


def _train_one_class(d):
    return main(["train", "--cube", str(d / "one.hsc.json"),
                 "--labels", str(d / "one.lbl.json"), "--out-dir", str(d / "run"),
                 "--per-class-train", "5", "--epochs", "1", "--learning-rate", "0.001"])


def _split_lines(labels_path, split_path):
    """What split prints: per class "<name> <train> <test>", counted over
    the split file it wrote, then the file written."""
    labels = load_labels(labels_path)
    split = load_split(split_path)
    train, test = (collections.Counter(k for _, _, k in side)
                   for side in (split.train, split.test))
    return [f"{labels.class_name(k)} {train[k]} {test[k]}"
            for k in range(1, labels.num_classes + 1)] + [f"wrote {split_path}"]


class TestSplitCommand:
    def test_writes_manifest_and_prints_counts(self, tmp_path, scene_dir, capsys):
        out = tmp_path / "s.split.json"
        rc = main(["split", "--labels", str(scene_dir / "scene.lbl.json"),
                   "--out", str(out), "--per-class-train", "2", "--seed", "5"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == _split_lines(scene_dir / "scene.lbl.json", out)
        assert all(line.split()[-2] == "2" for line in lines[:9])
        assert len(load_split(out).train) == 18

    def test_rerun_same_seed_identical_hash(self, tmp_path, scene_dir, capsys):
        a = tmp_path / "a.split.json"
        b = tmp_path / "b.split.json"
        for out in (a, b):
            assert main(["split", "--labels", str(scene_dir / "scene.lbl.json"),
                         "--out", str(out), "--per-class-train", "3",
                         "--seed", "9"]) == 0
        capsys.readouterr()
        assert sha(a) == sha(b)
        assert sha(a.with_suffix(".raw")) == sha(b.with_suffix(".raw"))

    def test_fraction_mode(self, tmp_path, scene_dir, capsys):
        out = tmp_path / "f.split.json"
        rc = main(["split", "--labels", str(scene_dir / "scene.lbl.json"),
                   "--out", str(out), "--fraction", "0.5", "--seed", "1"])
        assert rc == 0
        assert capsys.readouterr().out.splitlines() == _split_lines(
            scene_dir / "scene.lbl.json", out)
        split = load_split(out)
        assert split.fraction == 0.5
        # floor(0.5 * 4) = 2 for four-pixel classes, floor(0.5 * 3) = 1 for
        # three-pixel classes
        counts = {}
        for _, _, cls in split.train:
            counts[cls] = counts.get(cls, 0) + 1
        assert set(counts.values()) == {1, 2}

    def test_small_class_error_code(self, tmp_path, scene_dir, capsys):
        rc = main(["split", "--labels", str(scene_dir / "scene.lbl.json"),
                   "--out", str(tmp_path / "x.split.json"),
                   "--per-class-train", "100"])
        assert rc == 1
        assert "error[E_SPLIT]" in capsys.readouterr().err

    def test_explicit_flag_beats_config_fraction(self, tmp_path, scene_dir, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"fraction": 0.5}))
        out = tmp_path / "o.split.json"
        rc = main(["split", "--labels", str(scene_dir / "scene.lbl.json"),
                   "--out", str(out), "--config", str(cfg),
                   "--per-class-train", "2"])
        assert rc == 0
        capsys.readouterr()
        doc = json.loads(out.read_text())
        assert doc["per_class_train"] == 2
        assert doc["fraction"] is None

    @pytest.mark.parametrize("config, flags, want", [
        ({"per_class_train": 2}, ["--fraction", "0.5"], (None, 0.5)),
        ({"per_class_train": 2, "fraction": 0.5}, [], (None, 0.5)),
    ])
    def test_split_size_precedence(self, tmp_path, scene_dir, capsys, config, flags, want):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "o.split.json"
        rc = main(["split", "--labels", str(scene_dir / "scene.lbl.json"),
                   "--out", str(out), "--config", str(cfg), *flags])
        assert rc == 0
        capsys.readouterr()
        doc = json.loads(out.read_text())
        assert (doc["per_class_train"], doc["fraction"]) == want

    # 200 is the default object itself, which argparse's group check skips
    @pytest.mark.parametrize("count", ["2", "200"])
    @pytest.mark.parametrize("fraction_first", [False, True])
    def test_both_size_flags_are_a_usage_error(self, tmp_path, scene_dir, capsys,
                                               count, fraction_first):
        sizes = ["--per-class-train", count, "--fraction", "0.5"]
        if fraction_first:
            sizes = sizes[2:] + sizes[:2]
        out = tmp_path / "o.split.json"
        with pytest.raises(SystemExit) as exc:
            main(["split", "--labels", str(scene_dir / "scene.lbl.json"),
                  "--out", str(out), *sizes])
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err
        assert not out.exists()


class TestTrainCommand:
    def test_trains_and_writes_artifacts(self, tmp_path, scene_dir, capsys):
        out_dir = tmp_path / "run"
        rc = main(["train", "--cube", str(scene_dir / "scene.hsc.json"),
                   "--labels", str(scene_dir / "scene.lbl.json"),
                   "--split", str(scene_dir / "all.split.json"),
                   "--out-dir", str(out_dir), "--epochs", "3",
                   "--model-seed", "1", "--shuffle-seed", "2"])
        assert rc == 0
        history = (out_dir / "history.jsonl").read_text().strip().splitlines()
        assert len(history) == 3
        assert all("mean_loss" in json.loads(ln) for ln in history)
        assert (out_dir / "model.ckpt.json").exists()
        assert (out_dir / "model.ckpt.raw").exists()
        report = json.loads((out_dir / "report.json").read_text())
        assert set(report) >= {"matrix", "overall_accuracy", "kappa",
                               "per_class_accuracy"}

    def test_divergence_exits_with_numeric_code(self, tmp_path, scene_dir, capsys):
        out_dir = tmp_path / "run"
        with np.errstate(over="ignore", invalid="ignore"):
            rc = main(["train", "--cube", str(scene_dir / "scene.hsc.json"),
                       "--labels", str(scene_dir / "scene.lbl.json"),
                       "--split", str(scene_dir / "all.split.json"),
                       "--out-dir", str(out_dir), "--epochs", "5",
                       "--learning-rate", "1e6", "--model-seed", "3",
                       "--shuffle-seed", "5"])
        assert rc == 1
        assert "error[E_NUMERIC]" in capsys.readouterr().err
        # no checkpoint and no history, partial or whole
        assert sorted(p.name for p in out_dir.iterdir()) == []

    def test_divergence_stderr_starts_with_the_error_code(self, tmp_path, scene_dir):
        # a fresh interpreter, so numpy's warnings are not filtered by the
        # test run
        out_dir = tmp_path / "run"
        proc = run_python(["-m", "specnet3d.cli", "train",
                           "--cube", str(scene_dir / "scene.hsc.json"),
                           "--labels", str(scene_dir / "scene.lbl.json"),
                           "--split", str(scene_dir / "all.split.json"),
                           "--out-dir", str(out_dir), "--epochs", "5",
                           "--learning-rate", "1e6", "--model-seed", "3",
                           "--shuffle-seed", "5"])
        assert proc.returncode == 1
        assert proc.stderr.startswith("error[E_NUMERIC]"), proc.stderr
        assert sorted(p.name for p in out_dir.iterdir()) == []

    def test_default_hyperparameter_echo(self, tmp_path, capsys):
        rc = main(["train", "--cube", str(tmp_path / "missing.hsc.json"),
                   "--labels", str(tmp_path / "missing.lbl.json"),
                   "--split", str(tmp_path / "missing.split.json"),
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 1
        captured = capsys.readouterr()
        assert ("learning_rate=0.02 momentum=0.9 weight_decay=0.0005 "
                "epochs=100 batch_size=64 window=7") in captured.out
        assert "error[E_IO]" in captured.err

    def test_zero_epochs_rejected(self, scene_dir, tmp_path, capsys):
        rc = main(["train", "--cube", str(scene_dir / "scene.hsc.json"),
                   "--labels", str(scene_dir / "scene.lbl.json"),
                   "--split", str(scene_dir / "all.split.json"),
                   "--out-dir", str(tmp_path / "out"), "--epochs", "0"])
        assert rc == 1
        assert "error[E_CONFIG]" in capsys.readouterr().err

    def test_config_file_with_flag_override(self, tmp_path, scene_dir, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"epochs": 2, "learning_rate": 0.01}))
        out_dir = tmp_path / "run"
        rc = main(["train", "--cube", str(scene_dir / "scene.hsc.json"),
                   "--labels", str(scene_dir / "scene.lbl.json"),
                   "--split", str(scene_dir / "all.split.json"),
                   "--out-dir", str(out_dir), "--config", str(cfg),
                   "--epochs", "4"])
        assert rc == 0
        echo = capsys.readouterr().out
        assert "epochs=4" in echo            # flag wins
        assert "learning_rate=0.01" in echo  # config fills the rest
        history = (out_dir / "history.jsonl").read_text().strip().splitlines()
        assert len(history) == 4

    def test_eval_test_from_config_file(self, tmp_path, scene_dir, capsys):
        from specnet3d.data import load_labels, stratified_split

        split = tmp_path / "held_out.split.json"
        save_split(stratified_split(load_labels(scene_dir / "scene.lbl.json"), 2, seed=0),
                   split)
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"eval_test": True, "epochs": 1}))
        out_dir = tmp_path / "run"
        rc = main(["train", "--cube", str(scene_dir / "scene.hsc.json"),
                   "--labels", str(scene_dir / "scene.lbl.json"), "--split", str(split),
                   "--out-dir", str(out_dir), "--config", str(cfg)])
        assert rc == 0
        assert "test_oa=" in capsys.readouterr().out
        entry = json.loads((out_dir / "history.jsonl").read_text())
        assert "test_overall_accuracy" in entry
        cfg.write_text(json.dumps({"eval_test": "yes", "epochs": 1}))
        rc = main(["train", "--cube", str(scene_dir / "scene.hsc.json"),
                   "--labels", str(scene_dir / "scene.lbl.json"), "--split", str(split),
                   "--out-dir", str(tmp_path / "bad"), "--config", str(cfg)])
        assert rc == 1
        assert "error[E_CONFIG]: eval_test" in capsys.readouterr().err

    def test_split_from_config_file(self, tmp_path, scene_dir, capsys):
        # "on" is eval's option: one file may serve several commands
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"split": str(scene_dir / "all.split.json"),
                                   "epochs": 1, "on": "test"}))
        out_dir = tmp_path / "run"
        rc = main(["train", "--cube", str(scene_dir / "scene.hsc.json"),
                   "--labels", str(scene_dir / "scene.lbl.json"),
                   "--out-dir", str(out_dir), "--config", str(cfg)])
        assert rc == 0, capsys.readouterr().err
        assert "sampled split" not in capsys.readouterr().out
        assert not (out_dir / "train.split.json").exists()

    def test_unknown_config_key_rejected(self, tmp_path, scene_dir, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"eval_test": True, "learning_rat": 0.5}))
        out_dir = tmp_path / "run"
        rc = main(["train", "--cube", str(scene_dir / "scene.hsc.json"),
                   "--labels", str(scene_dir / "scene.lbl.json"),
                   "--split", str(scene_dir / "all.split.json"),
                   "--out-dir", str(out_dir), "--config", str(cfg)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error[E_CONFIG]") and "'learning_rat'" in err
        assert not out_dir.exists()

    def test_inline_split_sampling(self, tmp_path, scene_dir, capsys):
        out_dir = tmp_path / "run"
        rc = main(["train", "--cube", str(scene_dir / "scene.hsc.json"),
                   "--labels", str(scene_dir / "scene.lbl.json"),
                   "--out-dir", str(out_dir), "--epochs", "1",
                   "--per-class-train", "2", "--seed", "3"])
        assert rc == 0
        capsys.readouterr()
        split = load_split(out_dir / "train.split.json")
        assert split.per_class_train == 2
        assert len(split.train) == 18

    def test_required_options_from_config_file(self, tmp_path, scene_dir, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "cube": str(scene_dir / "scene.hsc.json"),
            "labels": str(scene_dir / "scene.lbl.json"),
            "out-dir": str(tmp_path / "run"), "per_class_train": 2, "epochs": 1,
        }))
        assert main(["train", "--config", str(cfg)]) == 0, capsys.readouterr().err
        capsys.readouterr()
        for name in ("model.ckpt.json", "history.jsonl", "report.json",
                     "train.split.json"):
            assert (tmp_path / "run" / name).exists()

    @pytest.mark.parametrize("key, value", [
        ("fraction", "0.3"), ("epochs", [3]), ("epochs", True), ("window", 5.9),
        ("eval_test", 1), ("learning_rate", None), ("split", 3),
    ])
    def test_mistyped_config_value_rejected(self, tmp_path, scene_dir, capsys,
                                            key, value):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({key: value}))
        out_dir = tmp_path / "run"
        rc = main(["train", "--cube", str(scene_dir / "scene.hsc.json"),
                   "--labels", str(scene_dir / "scene.lbl.json"),
                   "--out-dir", str(out_dir), "--epochs", "1", "--config", str(cfg)])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error[E_CONFIG]: {key} must be")
        assert not out_dir.exists()

    def test_zero_log_every_rejected(self, scene_dir, tmp_path, capsys):
        out_dir = tmp_path / "out"
        rc = main(["train", "--cube", str(scene_dir / "scene.hsc.json"),
                   "--labels", str(scene_dir / "scene.lbl.json"),
                   "--split", str(scene_dir / "all.split.json"),
                   "--out-dir", str(out_dir), "--epochs", "1", "--log-every", "0"])
        assert rc == 1
        assert "error[E_CONFIG]: log_every" in capsys.readouterr().err
        assert not (out_dir / "model.ckpt.json").exists()

    def test_config_file_read_from_command_line(self, tmp_path, scene_dir):
        # main() with no argv reads sys.argv, --config included
        cfg = tmp_path / "run.json"
        doc = {"cube": str(scene_dir / "scene.hsc.json"),
               "labels": str(scene_dir / "scene.lbl.json"),
               "split": str(scene_dir / "all.split.json"),
               "out_dir": str(tmp_path / "run"), "epochs": 1}
        cfg.write_text(json.dumps(doc))
        proc = run_python(["-m", "specnet3d.cli", "train", "--config", str(cfg)])
        assert proc.returncode == 0, proc.stderr
        for name in ("model.ckpt.json", "model.ckpt.raw", "history.jsonl", "report.json"):
            assert (tmp_path / "run" / name).exists()
        cfg.write_text(json.dumps({**doc, "out_dir": str(tmp_path / "bad"),
                                   "epochs": "1"}))
        proc = run_python(["-m", "specnet3d.cli", "train", "--config", str(cfg)])
        assert proc.returncode == 1
        assert proc.stderr.startswith("error[E_CONFIG]: epochs")
        assert not (tmp_path / "bad").exists()

    def test_normalizes_once_and_evaluates_once_per_epoch(self, tmp_path, scene_dir,
                                                          capsys, monkeypatch):
        from specnet3d import cli, training
        from specnet3d.data import load_labels, stratified_split

        split = tmp_path / "held_out.split.json"
        save_split(stratified_split(load_labels(scene_dir / "scene.lbl.json"), 2, seed=0),
                   split)
        calls = []
        # each epoch counts through _confusion over the rows train checked
        # once, evaluate's own counting helper; the report reuses the last
        for module, name in ((training, "normalize"), (cli, "normalize"),
                             (training, "evaluate"), (cli, "evaluate"),
                             (training, "_confusion")):
            def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
        out_dir = tmp_path / "run"
        rc = main(["train", "--cube", str(scene_dir / "scene.hsc.json"),
                   "--labels", str(scene_dir / "scene.lbl.json"), "--split", str(split),
                   "--out-dir", str(out_dir), "--epochs", "2", "--eval-test"])
        assert rc == 0
        assert calls.count("normalize") == 1
        assert calls.count("_confusion") == 2
        assert calls.count("evaluate") == 0
        history = [json.loads(ln) for ln in
                   (out_dir / "history.jsonl").read_text().splitlines()]
        report = json.loads((out_dir / "report.json").read_text())
        assert report["overall_accuracy"] == history[-1]["test_overall_accuracy"]
        assert f"final overall_accuracy={report['overall_accuracy']:.4f}" in (
            capsys.readouterr().out
        )

    def test_deterministic_artifacts(self, tmp_path, scene_dir, capsys):
        hashes = []
        for name in ("r1", "r2"):
            out_dir = tmp_path / name
            rc = main(["train", "--cube", str(scene_dir / "scene.hsc.json"),
                       "--labels", str(scene_dir / "scene.lbl.json"),
                       "--split", str(scene_dir / "all.split.json"),
                       "--out-dir", str(out_dir), "--epochs", "4",
                       "--model-seed", "5", "--shuffle-seed", "6"])
            assert rc == 0
            hashes.append(tuple(
                sha(out_dir / f) for f in
                ("model.ckpt.json", "model.ckpt.raw", "history.jsonl", "report.json")
            ))
        capsys.readouterr()
        assert hashes[0] == hashes[1]


    def test_undefined_kappa_written_as_null(self, one_class_dir, capsys):
        assert _train_one_class(one_class_dir) == 0, capsys.readouterr().err
        out = capsys.readouterr().out
        assert "final overall_accuracy=1.0000 kappa=undefined (test side)" in out
        run = one_class_dir / "run"
        assert sorted(p.name for p in run.iterdir()) == [
            "history.jsonl", "model.ckpt.json", "model.ckpt.raw", "report.json",
            "train.split.json", "train.split.raw",
        ]
        assert json.loads((run / "report.json").read_text())["kappa"] is None


class TestEvalCommand:
    def test_perfect_on_training_side(self, tmp_path, scene_dir, capsys):
        out = tmp_path / "report.json"
        rc = main(["eval", "--checkpoint", str(scene_dir / "model.ckpt.json"),
                   "--cube", str(scene_dir / "scene.hsc.json"),
                   "--labels", str(scene_dir / "scene.lbl.json"),
                   "--split", str(scene_dir / "all.split.json"),
                   "--out", str(out), "--on", "train"])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["overall_accuracy"] == 1.0
        assert report["kappa"] == 1.0
        assert "overall_accuracy=1.0000" in capsys.readouterr().out

    def test_undefined_kappa_written_as_null(self, one_class_dir, capsys):
        # train exits 1 on an undefined kappa without this fix; its
        # checkpoint is written before the report either way
        _train_one_class(one_class_dir)
        run = one_class_dir / "run"
        capsys.readouterr()
        rc = main(["eval", "--checkpoint", str(run / "model.ckpt.json"),
                   "--cube", str(one_class_dir / "one.hsc.json"),
                   "--labels", str(one_class_dir / "one.lbl.json"),
                   "--split", str(run / "train.split.json"), "--out", str(run / "eval.json")])
        assert rc == 0, capsys.readouterr().err
        assert capsys.readouterr().out.startswith(
            "overall_accuracy=1.0000 kappa=undefined pixels=31\n")
        assert json.loads((run / "eval.json").read_text())["kappa"] is None

    def test_band_mismatch_reports_both(self, tmp_path, scene_dir, capsys):
        rng = np.random.default_rng(0)
        other = HsiCube(values=rng.standard_normal((8, 4, 20)).astype(np.float32))
        save_cube(other, tmp_path / "other.hsc.json")
        rc = main(["eval", "--checkpoint", str(scene_dir / "model.ckpt.json"),
                   "--cube", str(tmp_path / "other.hsc.json"),
                   "--labels", str(scene_dir / "scene.lbl.json"),
                   "--split", str(scene_dir / "all.split.json"),
                   "--out", str(tmp_path / "r.json")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error[E_MISMATCH]" in err
        assert "12" in err and "20" in err

    def test_class_the_checkpoint_lacks_reported(self, tmp_path, scene_dir, capsys):
        # the scene's labels hold classes 1-9
        save_checkpoint(build_model(ModelConfig(overfit_scene()[0].bands, 2, 7), 0),
                        tmp_path / "two.ckpt.json")
        rc = main(["eval", "--checkpoint", str(tmp_path / "two.ckpt.json"),
                   "--cube", str(scene_dir / "scene.hsc.json"),
                   "--labels", str(scene_dir / "scene.lbl.json"),
                   "--split", str(scene_dir / "all.split.json"),
                   "--out", str(tmp_path / "r.json"), "--on", "train"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error[E_MISMATCH]: pixel (")
        assert err.endswith("but the model has 2 classes\n")
        assert not (tmp_path / "r.json").exists()

    def test_empty_test_side_rejected(self, tmp_path, scene_dir, capsys):
        rc = main(["eval", "--checkpoint", str(scene_dir / "model.ckpt.json"),
                   "--cube", str(scene_dir / "scene.hsc.json"),
                   "--labels", str(scene_dir / "scene.lbl.json"),
                   "--split", str(scene_dir / "all.split.json"),
                   "--out", str(tmp_path / "r.json")])
        assert rc == 1
        assert "error[E_CONFIG]" in capsys.readouterr().err

    def test_required_options_from_config_file(self, tmp_path, scene_dir, capsys):
        cfg = tmp_path / "eval.json"
        out = tmp_path / "report.json"
        cfg.write_text(json.dumps({"checkpoint": str(scene_dir / "model.ckpt.json"),
                                   "split": str(scene_dir / "all.split.json"),
                                   "out": str(out), "on": "train"}))
        rc = main(["eval", "--cube", str(scene_dir / "scene.hsc.json"),
                   "--labels", str(scene_dir / "scene.lbl.json"), "--config", str(cfg)])
        assert rc == 0, capsys.readouterr().err
        assert json.loads(out.read_text())["overall_accuracy"] == 1.0

    def test_unknown_side_in_config_rejected(self, tmp_path, scene_dir, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"on": "tset"}))
        out = tmp_path / "r.json"
        rc = main(["eval", "--checkpoint", str(scene_dir / "model.ckpt.json"),
                   "--cube", str(scene_dir / "scene.hsc.json"),
                   "--labels", str(scene_dir / "scene.lbl.json"),
                   "--split", str(scene_dir / "all.split.json"),
                   "--out", str(out), "--config", str(cfg)])
        assert rc == 1
        assert "error[E_CONFIG]" in capsys.readouterr().err
        assert not out.exists()


class TestPredictMapCommand:
    @pytest.mark.parametrize("pixel", [(9, 0, 1), (-1, 0, 1)])
    def test_split_pixel_outside_cube_rejected(self, tmp_path, scene_dir, capsys, pixel):
        rng = np.random.default_rng(1)
        save_cube(HsiCube(values=rng.random((6, 6, 12), dtype=np.float32)),
                  tmp_path / "small.hsc.json")
        save_split(SplitManifest(seed=0, train=[(1, 1, 1), pixel], test=[]),
                   tmp_path / "bad.split.json")
        out = tmp_path / "map.ppm"
        rc = main(["predict-map", "--checkpoint", str(scene_dir / "model.ckpt.json"),
                   "--cube", str(tmp_path / "small.hsc.json"),
                   "--split", str(tmp_path / "bad.split.json"), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error[E_SPLIT]" in err and f"({pixel[0]}, {pixel[1]})" in err
        assert not out.exists()

    def test_huge_declared_classes_are_a_format_error(self, tmp_path, scene_dir, capsys):
        # numpy's "Maximum allowed dimension exceeded" used to surface as E_CONFIG
        doc = json.loads((scene_dir / "model.ckpt.json").read_text())
        doc["config"]["num_classes"] = 2**70
        (tmp_path / "m.ckpt.json").write_text(json.dumps(doc))
        (tmp_path / "m.ckpt.raw").write_bytes((scene_dir / "model.ckpt.raw").read_bytes())
        out = tmp_path / "map.ppm"
        rc = main(["predict-map", "--checkpoint", str(tmp_path / "m.ckpt.json"),
                   "--cube", str(scene_dir / "scene.hsc.json"),
                   "--split", str(scene_dir / "all.split.json"), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error[E_FORMAT]: checkpoint payload holds ")
        assert not out.exists()

    def test_split_is_required(self, tmp_path, scene_dir, capsys):
        # a checkpoint expects the input train normalized from its split
        out = tmp_path / "map.ppm"
        with pytest.raises(SystemExit) as exc:
            main(["predict-map", "--checkpoint", str(scene_dir / "model.ckpt.json"),
                  "--cube", str(scene_dir / "scene.hsc.json"), "--out", str(out)])
        assert exc.value.code == 2
        assert "--split" in capsys.readouterr().err
        assert not out.exists()

    def test_writes_p6_and_is_idempotent(self, tmp_path, scene_dir, capsys):
        a = tmp_path / "a.ppm"
        b = tmp_path / "b.ppm"
        for out in (a, b):
            rc = main(["predict-map",
                       "--checkpoint", str(scene_dir / "model.ckpt.json"),
                       "--cube", str(scene_dir / "scene.hsc.json"),
                       "--split", str(scene_dir / "all.split.json"),
                       "--out", str(out)])
            assert rc == 0
        capsys.readouterr()
        blob = a.read_bytes()
        assert blob.startswith(b"P6\n4 8\n255\n")
        assert sha(a) == sha(b)

    def test_split_from_config_file(self, tmp_path, scene_dir, capsys):
        # a split the map must reject, so it shows the split was read
        save_split(SplitManifest(seed=0, train=[(1, 1, 1), (9, 0, 1)], test=[]),
                   tmp_path / "bad.split.json")
        cfg = tmp_path / "map.json"
        cfg.write_text(json.dumps({"split": str(tmp_path / "bad.split.json")}))
        out = tmp_path / "map.ppm"
        rc = main(["predict-map", "--checkpoint", str(scene_dir / "model.ckpt.json"),
                   "--cube", str(scene_dir / "scene.hsc.json"), "--out", str(out),
                   "--config", str(cfg)])
        assert rc == 1
        assert "error[E_SPLIT]" in capsys.readouterr().err
        assert not out.exists()

    def test_required_options_from_config_file(self, tmp_path, scene_dir, capsys):
        cfg = tmp_path / "map.json"
        out = tmp_path / "map.ppm"
        cfg.write_text(json.dumps({"checkpoint": str(scene_dir / "model.ckpt.json"),
                                   "split": str(scene_dir / "all.split.json"),
                                   "out": str(out)}))
        rc = main(["predict-map", "--cube", str(scene_dir / "scene.hsc.json"),
                   "--config", str(cfg)])
        assert rc == 0, capsys.readouterr().err
        assert out.read_bytes().startswith(b"P6\n4 8\n255\n")

    def test_pixels_use_documented_palette(self, tmp_path, scene_dir, capsys):
        from specnet3d.data import load_cube, load_split, normalize
        from specnet3d.network import load_checkpoint

        out = tmp_path / "map.ppm"
        rc = main(["predict-map",
                   "--checkpoint", str(scene_dir / "model.ckpt.json"),
                   "--cube", str(scene_dir / "scene.hsc.json"),
                   "--split", str(scene_dir / "all.split.json"),
                   "--out", str(out)])
        assert rc == 0
        capsys.readouterr()
        model = load_checkpoint(scene_dir / "model.ckpt.json")
        cube = normalize(load_cube(scene_dir / "scene.hsc.json"),
                         load_split(scene_dir / "all.split.json"))
        grid = predict_map(model, cube)
        pixels = out.read_bytes().split(b"255\n", 1)[1]
        assert pixels[0:3] == bytes(PALETTE[grid[0, 0]])


class TestInspectCommand:
    def test_parameter_ledger(self, capsys):
        rc = main(["inspect", "--spectral-depth", "102", "--classes", "9"])
        assert rc == 0
        out = capsys.readouterr().out
        for name, count in [("Conv1", 560), ("Conv1_1", 420), ("Conv2", 18935),
                            ("Conv2_1", 1260), ("Conv3", 3710), ("Conv3_1", 1260),
                            ("Conv4", 2485), ("Conv4_1", 1260)]:
            assert f"{name:<8} {count}" in out
        assert "conv subtotal 29890" in out
        assert "FC       36864" in out
        assert "flatten  4095" in out

    def test_from_checkpoint(self, scene_dir, capsys):
        rc = main(["inspect", "--checkpoint", str(scene_dir / "model.ckpt.json")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "12 bands" in out
        assert "conv subtotal 29890" in out

    def test_checkpoint_from_config_file(self, tmp_path, scene_dir, capsys):
        cfg = tmp_path / "inspect.json"
        cfg.write_text(json.dumps({"checkpoint": str(scene_dir / "model.ckpt.json")}))
        assert main(["inspect", "--config", str(cfg)]) == 0
        assert "12 bands" in capsys.readouterr().out

    def test_shape_error_code(self, capsys):
        rc = main(["inspect", "--spectral-depth", "4"])
        assert rc == 1
        assert "error[E_SHAPE]" in capsys.readouterr().err

    def test_checkpoint_config_that_builds_no_model_is_a_format_error(
            self, tmp_path, scene_dir, capsys):
        ckpt = tmp_path / "model.ckpt.json"
        doc = json.loads((scene_dir / "model.ckpt.json").read_text())
        doc["config"]["spectral_depth"] = 2
        ckpt.write_text(json.dumps(doc))
        (tmp_path / "model.ckpt.raw").write_bytes((scene_dir / "model.ckpt.raw").read_bytes())
        assert main(["inspect", "--checkpoint", str(ckpt)]) == 1
        assert capsys.readouterr().err.startswith("error[E_FORMAT]: checkpoint config in ")


class TestHelpAndGlobals:
    def test_stray_value_error_is_internal(self, monkeypatch, capsys):
        # it used to be labeled E_CONFIG, blaming the user's configuration
        def broken(args):
            raise ValueError("some numpy complaint")

        monkeypatch.setitem(cli._COMMANDS, "inspect", broken)
        assert main(["inspect"]) == 1
        assert capsys.readouterr().err == "error[E_INTERNAL]: ValueError: some numpy complaint\n"

    @pytest.mark.parametrize("text", [b"{", b"\xff{}"], ids=["json", "utf8"])
    def test_config_file_not_utf8_json_is_a_config_error(self, tmp_path, capsys, text):
        cfg = tmp_path / "run.json"
        cfg.write_bytes(text)
        assert main(["inspect", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith(
            f"error[E_CONFIG]: config file {cfg} is not UTF-8 JSON: ")

    def test_header_not_utf8_is_a_format_error(self, tmp_path, capsys):
        ckpt = tmp_path / "model.ckpt.json"
        ckpt.write_bytes(b"\xff{}")
        assert main(["inspect", "--checkpoint", str(ckpt)]) == 1
        assert capsys.readouterr().err.startswith(
            "error[E_FORMAT]: checkpoint header is not valid JSON: 'utf-8' codec")

    def test_train_help_lists_defaults(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        for needle in ("0.02", "0.9", "0.0005", "100", "64", "7"):
            assert f"default: {needle}" in text

    def test_split_help_lists_default_count(self, capsys):
        with pytest.raises(SystemExit):
            main(["split", "--help"])
        assert "default: 200" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["eval", "predict-map"])
def test_non_finite_checkpoint_is_a_format_error(tmp_path, scene_dir, capsys, command):
    # one NaN in Conv2.weight used to predict class 1 everywhere and exit 0
    (tmp_path / "m.ckpt.json").write_bytes((scene_dir / "model.ckpt.json").read_bytes())
    params = load_checkpoint(scene_dir / "model.ckpt.json").parameters()
    params["Conv2.weight"].flat[0] = np.nan
    blob = np.concatenate([p.ravel() for p in params.values()]).astype("<f4")
    blob.tofile(tmp_path / "m.ckpt.raw")
    out = tmp_path / ("eval.json" if command == "eval" else "map.ppm")
    argv = [command, "--checkpoint", str(tmp_path / "m.ckpt.json"),
            "--cube", str(scene_dir / "scene.hsc.json"),
            "--split", str(scene_dir / "all.split.json"), "--out", str(out)]
    if command == "eval":
        argv += ["--labels", str(scene_dir / "scene.lbl.json")]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        "error[E_FORMAT]: checkpoint payload contains non-finite values\n")
    assert not out.exists()
