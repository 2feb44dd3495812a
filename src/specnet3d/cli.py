"""Command-line workflow: split, train, eval, predict-map, inspect.

All randomness flows from three explicit seeds: --model-seed for weight
init, --seed for a split sampled inline, and --shuffle-seed for the batch
order.  The commands check nothing themselves: each precondition is
checked once, by the library call that needs it, and train writes the
report.

Each option's default is declared once, on its add_argument, and taken
from OptimizerState, TrainConfig or ModelConfig where the library has
one.  A JSON config file (--config) may set any option, required ones
included: main reads it before parsing, checks each value against the
option it names, and installs it as that option's default, so argparse
resolves flag > config file > default.  --per-class-train and --fraction
exclude each other on the command line, either flag also overrides the
other's config value, and within the file fraction wins.
"""

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .data import (
    _pixel_rows,
    load_cube,
    load_labels,
    load_split,
    normalize,
    save_split,
    stratified_split,
)
from .errors import ConfigError, SpecnetError
from .metrics import load_report, render_class_map, write_report
from .network import (
    CONV_LAYER_NAMES,
    ModelConfig,
    build_model,
    load_checkpoint,
    param_count,
    shape_trace,
)
from .training import OptimizerState, TrainConfig, evaluate, predict_map, train


class _SplitSize(argparse.Action):
    """--per-class-train or --fraction: sets its option and clears the
    other, so the flag also beats the other's config-file value.  Giving
    both is a usage error, checked here too: argparse's exclusive-group
    check passes over a value that is the default object itself, as
    int("200") is."""

    def __call__(self, parser, namespace, values, option_string=None):
        given = getattr(namespace, "_size_flag", option_string)
        if given != option_string:
            raise argparse.ArgumentError(self, f"not allowed with argument {given}")
        namespace._size_flag = option_string
        namespace.per_class_train = namespace.fraction = None
        setattr(namespace, self.dest, values)


def _add_split_opts(p, when=""):
    size = p.add_mutually_exclusive_group()
    size.add_argument("--per-class-train", type=int, default=200, action=_SplitSize,
                      help=f"training pixels per class{when} (default: %(default)s)")
    size.add_argument("--fraction", type=float, action=_SplitSize,
                      help=f"training fraction per class{when} instead of a fixed "
                           "count; per-class counts are floor(fraction * size), min 1")
    p.add_argument("--seed", type=int, default=0,
                   help=f"split sampling seed{when} (default: %(default)s)")


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
    _add_split_opts(p)

    p = sub.add_parser("train", help="train on a cube/labels/split triple")
    p.add_argument("--cube", required=True, help="cube header (.hsc.json)")
    p.add_argument("--labels", required=True, help="label grid header (.lbl.json)")
    p.add_argument("--split",
                   help="split manifest (.split.json); omit to sample one here "
                        "from --per-class-train/--fraction and --seed (it is "
                        "then written to the output directory)")
    _add_split_opts(p, " when sampling inline")
    p.add_argument("--out-dir", required=True,
                   help="directory for model.ckpt.json/.raw, history.jsonl, report.json")
    p.add_argument("--model-seed", type=int, default=0,
                   help="weight initialization seed (default: %(default)s)")
    p.add_argument("--shuffle-seed", type=int, default=TrainConfig.shuffle_seed,
                   help="mini-batch order seed (default: %(default)s)")
    p.add_argument("--learning-rate", type=float, default=OptimizerState.learning_rate,
                   help="SGD learning rate (default: %(default)s)")
    p.add_argument("--momentum", type=float, default=OptimizerState.momentum,
                   help="SGD momentum (default: %(default)s)")
    p.add_argument("--weight-decay", type=float, default=OptimizerState.weight_decay,
                   help="coupled weight decay, biases exempt (default: %(default)s)")
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs,
                   help="training epochs (default: %(default)s)")
    p.add_argument("--batch-size", type=int, default=TrainConfig.batch_size,
                   help="mini-batch size; the last short batch is kept "
                        "(default: %(default)s)")
    p.add_argument("--window", type=int, default=ModelConfig.spatial_window,
                   help="odd spatial window around each pixel (default: %(default)s)")
    p.add_argument("--eval-test", action="store_true",
                   help="record test overall accuracy in the history each epoch")
    p.add_argument("--log-every", type=int, default=TrainConfig.log_every,
                   help="progress print interval in epochs (default: %(default)s)")

    p = sub.add_parser("eval", help="evaluate a checkpoint on a split")
    p.add_argument("--checkpoint", required=True, help="checkpoint manifest (.ckpt.json)")
    p.add_argument("--cube", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--out", required=True, help="report output path (.json)")
    p.add_argument("--on", choices=("test", "train"), default="test",
                   help="which side of the split to evaluate (default: %(default)s)")

    p = sub.add_parser("predict-map", help="classify every pixel into a PPM map")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--cube", required=True)
    p.add_argument("--out", required=True, help="output image path (.ppm)")
    p.add_argument("--split", required=True,
                   help="split manifest (.split.json) the checkpoint was trained "
                        "on; it supplies the normalization statistics")

    p = sub.add_parser("inspect",
                       help="print the shape trace and parameter ledger")
    p.add_argument("--spectral-depth", type=int, default=103,
                   help="number of bands (default: %(default)s)")
    p.add_argument("--classes", type=int, default=9,
                   help="number of classes (default: %(default)s)")
    p.add_argument("--window", type=int, default=ModelConfig.spatial_window,
                   help="odd spatial window (default: %(default)s)")
    p.add_argument("--checkpoint",
                   help="read the configuration from a checkpoint instead")

    for p in sub.choices.values():
        p.add_argument("--config", metavar="JSON",
                       help="JSON file setting any option of this command "
                            "(explicit flags win)")
    return parser


def _subcommands(parser):
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices.values()


def _config_value(key, value, action):
    """A config file's value for the option action, typed as the flag's
    would be; anything the flag could not have given is a ConfigError."""
    if action.choices is not None:
        ok, want = value in action.choices, "one of " + ", ".join(map(repr, action.choices))
    elif action.nargs == 0:
        ok, want = isinstance(value, bool), "true or false"
    elif action.type is int:
        ok, want = isinstance(value, int) and not isinstance(value, bool), "an integer"
    elif action.type is float:
        ok = isinstance(value, (int, float)) and not isinstance(value, bool)
        want = "a number"
    else:
        ok, want = isinstance(value, str), "a string"
    if not ok:
        raise ConfigError(f"{key} must be {want}, got {value!r}")
    try:
        return action.type(value) if action.type else value
    except OverflowError as exc:
        raise ConfigError(f"{key}: {exc}") from None


def _apply_config_file(parser, argv):
    """Install the values of argv's --config file as the defaults of the
    options they name, in every subcommand that has the option, and clear
    its required.  A key may be any subcommand's option, so one file can
    serve several commands; any other key is an error, not silently
    ignored."""
    pre = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    pre.add_argument("--config")
    try:
        path = pre.parse_known_args(argv)[0].config
    except argparse.ArgumentError:
        return  # the full parse reports it
    if not path:
        return
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError(f"config file {path} is not UTF-8 JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    doc = {str(k).replace("-", "_"): v for k, v in doc.items()}
    options = {a.dest: a for p in _subcommands(parser) for a in p._actions
               if a.dest not in ("help", "config")}
    unknown = sorted(doc.keys() - options.keys())
    if unknown:
        raise ConfigError(
            f"config file {path}: {', '.join(map(repr, unknown))} is no option "
            f"of any command"
        )
    values = {key: _config_value(key, value, options[key]) for key, value in doc.items()}
    if "fraction" in values:
        values["per_class_train"] = None
    for p in _subcommands(parser):
        mine = [a for a in p._actions if a.dest in values]
        for action in mine:
            action.required = False
        p.set_defaults(**{a.dest: values[a.dest] for a in mine})


def cmd_split(args):
    labels = load_labels(args.labels)
    manifest = stratified_split(
        labels, args.per_class_train, fraction=args.fraction, seed=args.seed
    )
    save_split(manifest, args.out)
    train, test = (np.bincount(_pixel_rows(getattr(manifest, side), side)[:, 2],
                               minlength=labels.num_classes + 1) for side in ("train", "test"))
    for cls in range(1, labels.num_classes + 1):
        print(f"{labels.class_name(cls)} {train[cls]} {test[cls]}")
    print(f"wrote {args.out}")
    return 0


def _scores(report):
    """A written report's overall accuracy and kappa, as train and eval
    print them."""
    kappa = report["kappa"]
    return (f"overall_accuracy={report['overall_accuracy']:.4f} "
            f"kappa={'undefined' if kappa is None else f'{kappa:.4f}'}")


def cmd_train(args):
    print(
        f"training: learning_rate={args.learning_rate} momentum={args.momentum} "
        f"weight_decay={args.weight_decay} epochs={args.epochs} "
        f"batch_size={args.batch_size} window={args.window} "
        f"model_seed={args.model_seed} shuffle_seed={args.shuffle_seed}"
    )

    opt = OptimizerState(args.learning_rate, args.momentum, args.weight_decay)
    config = TrainConfig(args.epochs, args.batch_size, args.shuffle_seed, args.log_every)
    cube = load_cube(args.cube)
    labels = load_labels(args.labels)
    os.makedirs(args.out_dir, exist_ok=True)
    if args.split:
        split = load_split(args.split)
    else:
        split = stratified_split(labels, args.per_class_train, fraction=args.fraction,
                                 seed=args.seed)
        split_path = os.path.join(args.out_dir, "train.split.json")
        save_split(split, split_path)
        print(f"sampled split ({len(split.train)} train / {len(split.test)} test "
              f"pixels), wrote {split_path}")
    model_config = ModelConfig(
        spectral_depth=cube.bands,
        num_classes=labels.num_classes,
        spatial_window=args.window,
    )
    model = build_model(model_config, args.model_seed)
    checkpoint_path = os.path.join(args.out_dir, "model.ckpt.json")
    history_path = os.path.join(args.out_dir, "history.jsonl")
    report_path = os.path.join(args.out_dir, "report.json")
    train(
        model, cube, labels, split, config, opt,
        eval_test=args.eval_test,
        checkpoint_path=checkpoint_path,
        history_path=history_path,
        report_path=report_path,
        log=lambda entry: print(
            f"epoch {entry['epoch']}: mean_loss={entry['mean_loss']:.6f}"
            + (
                f" test_oa={entry['test_overall_accuracy']:.4f}"
                if "test_overall_accuracy" in entry
                else ""
            )
        ),
    )
    print(f"final {_scores(load_report(report_path))} "
          f"({'test' if split.test else 'train'} side)")
    print(f"wrote {checkpoint_path}, {history_path}, {report_path}")
    return 0


def cmd_eval(args):
    model = load_checkpoint(args.checkpoint)
    cube = load_cube(args.cube)
    labels = load_labels(args.labels)
    split = load_split(args.split)
    norm = normalize(cube, split)
    side = split.test if args.on == "test" else split.train
    matrix = evaluate(model, norm, labels, side)
    print(f"{_scores(write_report(matrix, args.out))} pixels={matrix.total}")
    print(f"wrote {args.out}")
    return 0


def cmd_predict_map(args):
    model = load_checkpoint(args.checkpoint)
    cube = normalize(load_cube(args.cube), load_split(args.split))
    grid = predict_map(model, cube)
    render_class_map(grid, args.out)
    print(f"wrote {args.out} ({cube.height}x{cube.width})")
    return 0


def cmd_inspect(args):
    if args.checkpoint:
        model = load_checkpoint(args.checkpoint)
        config = model.config
    else:
        config = ModelConfig(args.spectral_depth, args.classes, args.window)
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
    try:
        _apply_config_file(parser, argv)
        args = parser.parse_args(argv)
        # a diverging run overflows float32 before train's finiteness checks
        # stop it with E_NUMERIC, which must be the first line on stderr
        with np.errstate(over="ignore", invalid="ignore"):
            return _COMMANDS[args.command](args)
    except SpecnetError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        # every precondition raises a SpecnetError: a bare ValueError is a
        # fault of the program, not of the user's input
        print(f"error[{SpecnetError.code}]: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error[E_IO]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
