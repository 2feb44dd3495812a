"""Command-line workflow: split, train, eval, predict-map, inspect.

All randomness flows from two explicit seeds (--model-seed for weight
init, --seed/--shuffle-seed for the split and batch order).  A JSON
config file can pre-fill any option; explicit flags win.
"""

import argparse
import json
import os
import sys

from . import __version__
from .data import (
    load_cube,
    load_labels,
    load_split,
    normalize,
    save_split,
    stratified_split,
)
from .errors import ConfigError, MismatchError, SpecnetError
from .metrics import kappa, overall_accuracy, render_class_map, write_report
from .network import (
    CONV_LAYER_NAMES,
    ModelConfig,
    build_model,
    load_checkpoint,
    param_count,
    shape_trace,
)
from .training import OptimizerState, TrainConfig, evaluate, predict_map, train

# Defaults applied after the flag -> config file -> default chain.
DEFAULTS = {
    "per_class_train": 200,
    "fraction": None,
    "seed": 0,
    "model_seed": 0,
    "shuffle_seed": 0,
    "learning_rate": 0.02,
    "momentum": 0.9,
    "weight_decay": 0.0005,
    "epochs": 100,
    "batch_size": 64,
    "window": 7,
    "log_every": 1,
    "spectral_depth": 103,
    "classes": 9,
    "on": "test",
    "eval_test": False,
}


def _add_config_opt(p):
    p.add_argument("--config", metavar="JSON",
                   help="JSON file pre-filling any option of this command "
                        "(explicit flags win)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="specnet3d",
        description="Residual 3D CNN engine for per-pixel hyperspectral "
                    "image classification.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("split", help="write a stratified train/test manifest")
    p.add_argument("--labels", required=True, help="label grid header (.lbl.json)")
    p.add_argument("--out", required=True, help="output manifest path (.split.json)")
    p.add_argument("--per-class-train", type=int, default=None,
                   help="training pixels per class (default: 200)")
    p.add_argument("--fraction", type=float, default=None,
                   help="training fraction per class instead of a fixed count; "
                        "per-class counts are floor(fraction * size), min 1")
    p.add_argument("--seed", type=int, default=None,
                   help="sampling seed (default: 0)")
    _add_config_opt(p)

    p = sub.add_parser("train", help="train on a cube/labels/split triple")
    p.add_argument("--cube", required=True, help="cube header (.hsc.json)")
    p.add_argument("--labels", required=True, help="label grid header (.lbl.json)")
    p.add_argument("--split", default=None,
                   help="split manifest (.split.json); omit to sample one here "
                        "from --per-class-train/--fraction and --seed (it is "
                        "then written to the output directory)")
    p.add_argument("--per-class-train", type=int, default=None,
                   help="training pixels per class when sampling inline "
                        "(default: 200)")
    p.add_argument("--fraction", type=float, default=None,
                   help="training fraction per class when sampling inline")
    p.add_argument("--seed", type=int, default=None,
                   help="split sampling seed when sampling inline (default: 0)")
    p.add_argument("--out-dir", required=True,
                   help="directory for model.ckpt.json/.raw, history.jsonl, report.json")
    p.add_argument("--model-seed", type=int, default=None,
                   help="weight initialization seed (default: 0)")
    p.add_argument("--shuffle-seed", type=int, default=None,
                   help="mini-batch order seed (default: 0)")
    p.add_argument("--learning-rate", type=float, default=None,
                   help="SGD learning rate (default: 0.02)")
    p.add_argument("--momentum", type=float, default=None,
                   help="SGD momentum (default: 0.9)")
    p.add_argument("--weight-decay", type=float, default=None,
                   help="coupled weight decay, biases exempt (default: 0.0005)")
    p.add_argument("--epochs", type=int, default=None,
                   help="training epochs (default: 100)")
    p.add_argument("--batch-size", type=int, default=None,
                   help="mini-batch size; the last short batch is kept (default: 64)")
    p.add_argument("--window", type=int, default=None,
                   help="odd spatial window around each pixel (default: 7)")
    p.add_argument("--eval-test", action="store_true", default=None,
                   help="record test overall accuracy in the history each epoch")
    p.add_argument("--log-every", type=int, default=None,
                   help="progress print interval in epochs (default: 1)")
    _add_config_opt(p)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a split")
    p.add_argument("--checkpoint", required=True, help="checkpoint manifest (.ckpt.json)")
    p.add_argument("--cube", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--out", required=True, help="report output path (.json)")
    p.add_argument("--on", choices=("test", "train"), default=None,
                   help="which side of the split to evaluate (default: test)")
    _add_config_opt(p)

    p = sub.add_parser("predict-map", help="classify every pixel into a PPM map")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--cube", required=True)
    p.add_argument("--out", required=True, help="output image path (.ppm)")
    p.add_argument("--split", default=None,
                   help="optional manifest supplying the normalization "
                        "statistics used at training time")
    _add_config_opt(p)

    p = sub.add_parser("inspect",
                       help="print the shape trace and parameter ledger")
    p.add_argument("--spectral-depth", type=int, default=None,
                   help="number of bands (default: 103)")
    p.add_argument("--classes", type=int, default=None,
                   help="number of classes (default: 9)")
    p.add_argument("--window", type=int, default=None,
                   help="odd spatial window (default: 7)")
    p.add_argument("--checkpoint", default=None,
                   help="read the configuration from a checkpoint instead")
    _add_config_opt(p)

    return parser


def _resolve(args, key):
    """Flag value if given, else config-file value, else the default."""
    value = getattr(args, key, None)
    if value is not None:
        return value
    config = getattr(args, "_config_doc", None) or {}
    if key in config:
        return config[key]
    return DEFAULTS.get(key)


def _resolve_path(args, key):
    """_resolve for an optional file path, which must be a string."""
    value = _resolve(args, key)
    if value is not None and not isinstance(value, str):
        raise ConfigError(f"{key} must be a path string, got {value!r}")
    return value


def _option_keys(parser):
    """The option names of every subcommand, as a config file spells them."""
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {a.dest for p in sub.choices.values() for a in p._actions} - {"help"}


def _load_config_file(args, parser):
    """Read --config into args._config_doc.  A key may be any subcommand's
    option, so one file can serve several commands; any other key is an
    error, not silently ignored."""
    path = getattr(args, "config", None)
    if not path:
        args._config_doc = {}
        return
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    args._config_doc = {str(k).replace("-", "_"): v for k, v in doc.items()}
    unknown = sorted(args._config_doc.keys() - _option_keys(parser))
    if unknown:
        raise ConfigError(
            f"config file {path}: {', '.join(map(repr, unknown))} is no option "
            f"of any command"
        )


def _split_parameters(args):
    """(per_class, fraction, seed): explicit flags first, then the config
    file, then the 200-per-class default."""
    if args.fraction is not None:
        per_class, fraction = None, args.fraction
    elif args.per_class_train is not None:
        per_class, fraction = args.per_class_train, None
    else:
        fraction = (getattr(args, "_config_doc", None) or {}).get("fraction")
        per_class = None if fraction is not None else int(_resolve(args, "per_class_train"))
    return per_class, fraction, int(_resolve(args, "seed"))


def cmd_split(args):
    labels = load_labels(args.labels)
    per_class, fraction, seed = _split_parameters(args)
    manifest = stratified_split(
        labels, per_class, fraction=fraction, seed=seed
    )
    save_split(manifest, args.out)
    counts = manifest.train_counts()
    test_counts = {}
    for _, _, cls in manifest.test:
        test_counts[cls] = test_counts.get(cls, 0) + 1
    for cls in range(1, labels.num_classes + 1):
        print(f"{labels.class_name(cls)} {counts.get(cls, 0)} {test_counts.get(cls, 0)}")
    print(f"wrote {args.out}")
    return 0


def cmd_train(args):
    window = int(_resolve(args, "window"))
    learning_rate = float(_resolve(args, "learning_rate"))
    momentum = float(_resolve(args, "momentum"))
    weight_decay = float(_resolve(args, "weight_decay"))
    epochs = int(_resolve(args, "epochs"))
    batch_size = int(_resolve(args, "batch_size"))
    shuffle_seed = int(_resolve(args, "shuffle_seed"))
    model_seed = int(_resolve(args, "model_seed"))
    eval_test = _resolve(args, "eval_test")
    if not isinstance(eval_test, bool):
        raise ConfigError(f"eval_test must be true or false, got {eval_test!r}")
    split_path = _resolve_path(args, "split")
    print(
        f"training: learning_rate={learning_rate} momentum={momentum} "
        f"weight_decay={weight_decay} epochs={epochs} "
        f"batch_size={batch_size} window={window} "
        f"model_seed={model_seed} shuffle_seed={shuffle_seed}"
    )

    opt = OptimizerState(
        learning_rate=learning_rate, momentum=momentum, weight_decay=weight_decay,
    )
    config = TrainConfig(
        epochs=epochs,
        batch_size=batch_size,
        shuffle_seed=shuffle_seed,
        log_every=int(_resolve(args, "log_every")),
    )
    cube = load_cube(args.cube)
    labels = load_labels(args.labels)
    os.makedirs(args.out_dir, exist_ok=True)
    if split_path:
        split = load_split(split_path)
    else:
        per_class, fraction, seed = _split_parameters(args)
        split = stratified_split(labels, per_class, fraction=fraction, seed=seed)
        split_path = os.path.join(args.out_dir, "train.split.json")
        save_split(split, split_path)
        print(f"sampled split ({len(split.train)} train / {len(split.test)} test "
              f"pixels), wrote {split_path}")
    model_config = ModelConfig(
        spectral_depth=cube.bands,
        num_classes=labels.num_classes,
        spatial_window=window,
    )
    model = build_model(model_config, model_seed)
    checkpoint_path = os.path.join(args.out_dir, "model.ckpt.json")
    history_path = os.path.join(args.out_dir, "history.jsonl")
    history = train(
        model, cube, labels, split, config, opt,
        eval_test=eval_test,
        checkpoint_path=checkpoint_path,
        history_path=history_path,
        log=lambda entry: print(
            f"epoch {entry['epoch']}: mean_loss={entry['mean_loss']:.6f}"
            + (
                f" test_oa={entry['test_overall_accuracy']:.4f}"
                if "test_overall_accuracy" in entry
                else ""
            )
        ),
    )

    # final report over the test side when present, else over train
    norm = normalize(cube, split)
    side = split.test if split.test else split.train
    matrix = evaluate(model, norm, labels, side)
    report_path = os.path.join(args.out_dir, "report.json")
    write_report(matrix, report_path, history=history)
    print(
        f"final overall_accuracy={overall_accuracy(matrix):.4f} "
        f"kappa={kappa(matrix):.4f} ({'test' if split.test else 'train'} side)"
    )
    print(f"wrote {checkpoint_path}, {history_path}, {report_path}")
    return 0


def cmd_eval(args):
    model = load_checkpoint(args.checkpoint)
    cube = load_cube(args.cube)
    labels = load_labels(args.labels)
    split = load_split(args.split)
    if model.config.spectral_depth != cube.bands:
        raise MismatchError(
            f"checkpoint was trained on {model.config.spectral_depth} bands "
            f"but the cube has {cube.bands}"
        )
    norm = normalize(cube, split)
    side_name = _resolve(args, "on")
    if side_name not in ("test", "train"):
        raise ConfigError(f"on must be 'test' or 'train', got {side_name!r}")
    side = split.test if side_name == "test" else split.train
    if not side:
        raise ConfigError(f"split has no {side_name} pixels to evaluate")
    matrix = evaluate(model, norm, labels, side)
    write_report(matrix, args.out)
    print(
        f"overall_accuracy={overall_accuracy(matrix):.4f} "
        f"kappa={kappa(matrix):.4f} pixels={matrix.total}"
    )
    print(f"wrote {args.out}")
    return 0


def cmd_predict_map(args):
    model = load_checkpoint(args.checkpoint)
    cube = load_cube(args.cube)
    split_path = _resolve_path(args, "split")
    if split_path:
        cube = normalize(cube, load_split(split_path))
    grid = predict_map(model, cube)
    render_class_map(grid, args.out)
    print(f"wrote {args.out} ({cube.height}x{cube.width})")
    return 0


def cmd_inspect(args):
    checkpoint = _resolve_path(args, "checkpoint")
    if checkpoint:
        model = load_checkpoint(checkpoint)
        config = model.config
    else:
        config = ModelConfig(
            spectral_depth=int(_resolve(args, "spectral_depth")),
            num_classes=int(_resolve(args, "classes")),
            spatial_window=int(_resolve(args, "window")),
        )
        model = build_model(config, rng_seed=0)

    print(f"shape trace (window {config.spatial_window}, "
          f"{config.spectral_depth} bands, {config.num_classes} classes)")
    for stage, dims in shape_trace(config):
        if stage == "flatten":
            print(f"  {stage:<8} {dims} features")
        else:
            c, h, w, d = dims
            print(f"  {stage:<8} channels={c:<3} height={h:<3} width={w:<3} depth={d}")

    counts, conv_total, total = param_count(model)
    print("trainable parameters")
    for name in CONV_LAYER_NAMES:
        print(f"  {name:<8} {counts[name]}")
    print(f"  conv subtotal {conv_total}")
    print(f"  FC       {counts['FC']}")
    print(f"  total    {total}")
    return 0


_COMMANDS = {
    "split": cmd_split,
    "train": cmd_train,
    "eval": cmd_eval,
    "predict-map": cmd_predict_map,
    "inspect": cmd_inspect,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _load_config_file(args, parser)
        return _COMMANDS[args.command](args)
    except SpecnetError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error[E_CONFIG]: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error[E_IO]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
