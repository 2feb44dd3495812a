import hashlib
import json

import numpy as np
import pytest

from specnet3d.cli import main
from specnet3d.data import save_cube, save_labels, save_split
from specnet3d.metrics import PALETTE
from specnet3d.network import ModelConfig, build_model
from specnet3d.training import OptimizerState, TrainConfig, predict_map, train

from synth import overfit_scene


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


class TestSplitCommand:
    def test_writes_manifest_and_prints_counts(self, tmp_path, scene_dir, capsys):
        out = tmp_path / "s.split.json"
        rc = main(["split", "--labels", str(scene_dir / "scene.lbl.json"),
                   "--out", str(out), "--per-class-train", "2", "--seed", "5"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        # nine per-class lines: "<name> <train> <test>"
        per_class = [ln.split() for ln in lines[:9]]
        assert all(row[-2] == "2" for row in per_class)
        doc = json.loads(out.read_text())
        assert len(doc["train"]) == 18

    def test_rerun_same_seed_identical_hash(self, tmp_path, scene_dir, capsys):
        a = tmp_path / "a.split.json"
        b = tmp_path / "b.split.json"
        for out in (a, b):
            assert main(["split", "--labels", str(scene_dir / "scene.lbl.json"),
                         "--out", str(out), "--per-class-train", "3",
                         "--seed", "9"]) == 0
        capsys.readouterr()
        assert sha(a) == sha(b)

    def test_fraction_mode(self, tmp_path, scene_dir, capsys):
        out = tmp_path / "f.split.json"
        rc = main(["split", "--labels", str(scene_dir / "scene.lbl.json"),
                   "--out", str(out), "--fraction", "0.5", "--seed", "1"])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["fraction"] == 0.5
        # floor(0.5 * 4) = 2 for four-pixel classes, floor(0.5 * 3) = 1 for
        # three-pixel classes
        counts = {}
        for _, _, cls in doc["train"]:
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
        assert not (out_dir / "model.ckpt.json").exists()
        assert not (out_dir / "model.ckpt.raw").exists()

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

    def test_inline_split_sampling(self, tmp_path, scene_dir, capsys):
        out_dir = tmp_path / "run"
        rc = main(["train", "--cube", str(scene_dir / "scene.hsc.json"),
                   "--labels", str(scene_dir / "scene.lbl.json"),
                   "--out-dir", str(out_dir), "--epochs", "1",
                   "--per-class-train", "2", "--seed", "3"])
        assert rc == 0
        capsys.readouterr()
        doc = json.loads((out_dir / "train.split.json").read_text())
        assert doc["per_class_train"] == 2
        assert len(doc["train"]) == 18

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

    def test_band_mismatch_reports_both(self, tmp_path, scene_dir, capsys):
        from specnet3d.data import HsiCube

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

    def test_empty_test_side_rejected(self, tmp_path, scene_dir, capsys):
        rc = main(["eval", "--checkpoint", str(scene_dir / "model.ckpt.json"),
                   "--cube", str(scene_dir / "scene.hsc.json"),
                   "--labels", str(scene_dir / "scene.lbl.json"),
                   "--split", str(scene_dir / "all.split.json"),
                   "--out", str(tmp_path / "r.json")])
        assert rc == 1
        assert "error[E_CONFIG]" in capsys.readouterr().err


class TestPredictMapCommand:
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

    def test_shape_error_code(self, capsys):
        rc = main(["inspect", "--spectral-depth", "4"])
        assert rc == 1
        assert "error[E_SHAPE]" in capsys.readouterr().err


class TestHelpAndGlobals:
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

    def test_threads_env_mirror(self, scene_dir, capsys, monkeypatch):
        monkeypatch.setenv("SPECNET3D_THREADS", "4")
        rc = main(["inspect", "--spectral-depth", "102"])
        assert rc == 0
        monkeypatch.setenv("SPECNET3D_THREADS", "0")
        rc = main(["inspect", "--spectral-depth", "102"])
        assert rc == 1
        assert "error[E_CONFIG]" in capsys.readouterr().err
