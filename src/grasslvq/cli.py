"""Command-line interface: train, eval, predict, inspect, synth.

All diagnostics go to stderr, data output to stdout or files; every command is
deterministic given argv, input files, and the seed. Failures exit nonzero
with a single machine-parseable line ``error: <Category>: <detail>``.
"""

import argparse
import os
import sys
from dataclasses import replace
from functools import partial

import numpy as np

from . import dataio, synth
from .errors import (
    ConfigError,
    GrasslvqError,
    InconsistentDims,
    ModelNotFound,
    RankDeficient,
)
from .manifold import (
    image_contribution,
    principal_decomposition,
    subspace_from_set,
    unit_columns,
)
from .model import (
    TrainConfig,
    confusion_from_scores,
    eval_block_size,
    evaluate,
    fit,
    score_blocks,
    scores,
)

# Presets bundle the hyperparameters reported for each benchmark. Epoch counts
# for yaleb/eth80/ucf and the m / sets-per-class draws for mnist/yale are
# artifact defaults, not reported values.
PRESETS = {
    "mnist": dict(task="idx", d=12, eta=1e-4, gamma=1e-7, epochs=40,
                  init="pca", m=50, sets_per_class=100),
    "yale": dict(task="idx", d=7, eta=1e-2, gamma=1e-5, epochs=200,
                 init="pca", m=20, sets_per_class=50),
    "yaleb": dict(task="sets", d=25, eta=0.05, gamma=1e-4, epochs=100,
                  init="example"),
    "eth80": dict(task="sets", d=5, eta=0.05, gamma=1e-4, epochs=100,
                  init="example"),
    "ucf": dict(task="sets", d=22, eta=0.05, gamma=1e-4, epochs=100,
                init="example"),
}

TRAIN_DEFAULTS = dict(
    mode="grlgq", task="sets", d=3, eta=0.05, gamma=1e-4, epochs=50, seed=0,
    init="example", prototypes_per_class=1, m=None, sets_per_class=None,
)


def _read_config_file(path):
    values, first = {}, {}
    for lineno, line in dataio.read_text_lines(path):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        if key in first:
            raise ConfigError(f"{path}:{lineno}: key {key!r} repeats line {first[key]}")
        values[key], first[key] = value, lineno
    return values


def _resolve_train_config(args):
    """Defaults, then --preset, then --config, then flags; later wins. An idx
    task left without m or sets_per_class gets max(d, 20) and 50; the sets
    task takes neither, from any source."""
    resolved = dict(TRAIN_DEFAULTS)
    if args.preset:
        resolved.update(PRESETS[args.preset])
    if args.config:
        for key, text in _read_config_file(args.config).items():
            if key not in args.options:
                raise ConfigError(f"unknown config key {key!r}")
            resolved[key] = _config_value(args.options[key], text)
    for key in args.options:
        flag = getattr(args, key)
        if flag is not None:
            resolved[key] = flag
    if resolved["task"] == "idx":
        if resolved["m"] is None:
            resolved["m"] = max(resolved["d"], 20)
        if resolved["sets_per_class"] is None:
            resolved["sets_per_class"] = 50
    else:
        # the sets task reads neither key, so it drops them from the config
        given = [key for key in ("m", "sets_per_class") if resolved.pop(key) is not None]
        if given:
            raise ConfigError(f"{given[0]} applies only to the idx task, not task = sets")
    for key in ("m", "sets_per_class", "prototypes_per_class"):
        if resolved.get(key) is not None and resolved[key] < 1:
            raise ConfigError(f"{key} must be at least 1, got {resolved[key]}")
    return resolved


def _config_value(action, text):
    """Parse one config-file value as the flag ``action`` parses its argument."""
    key = action.dest
    try:
        value = action.type(text) if action.type else text
    except ValueError:
        raise ConfigError(f"config key {key!r}: invalid "
                          f"{action.type.__name__} value {text!r}") from None
    if action.choices is not None and value not in action.choices:
        raise ConfigError(f"config key {key!r}: {value!r} is not one of "
                          f"{', '.join(action.choices)}")
    return value


def _load_training_data(args, cfg):
    """Returns (dataset, class_matrices): ``class_matrices(kept)`` is the pca
    init's label -> D x n mapping (``dataio.class_image_matrices``) for the
    dataset items at the indices ``kept``, or None for any other init.

    The idx task's mapping holds every image whatever ``kept`` is: sets are
    independent draws from a class's whole pool, so a held-out set shares
    images with the kept ones. The sets task's mapping holds the uint8 frames
    of the kept sets only, in item order. Either mapping builds one class
    matrix at a time, when it is read.
    """
    pca = cfg["init"] == "pca"
    if cfg["task"] == "idx":
        if not args.images or not args.labels:
            raise ConfigError("idx task requires --images and --labels")
        images, labels, _, _ = dataio.read_idx_dataset(args.images, args.labels)
        dataset = dataio.build_classwise_subspace_dataset(
            images, labels, cfg["d"], cfg["m"], cfg["sets_per_class"], cfg["seed"])
        matrices = dataio.class_image_matrices(images, labels) if pca else None
        return dataset, lambda kept: matrices
    if not args.data:
        raise ConfigError("sets task requires --data <imageset root>")
    sets, _, _ = dataio.read_imageset_dirs(args.data)
    dataset = dataio.build_per_set_subspace_dataset(sets, cfg["d"])
    if not pca:
        return dataset, lambda kept: None
    # one (n, D) uint8 array of the kept frames, one label per frame
    return dataset, lambda kept: dataio.class_image_matrices(
        np.concatenate([sets[i][0].T for i in kept]),
        np.repeat([sets[i][1] for i in kept], [sets[i][0].shape[1] for i in kept]))


def _cross_validate(train, dataset, class_matrices, train_config, folds, repeats):
    """Repeated k-fold cross-validation over the training samples.

    Fold membership is a seeded permutation taken round-robin; each repeat
    reshuffles with seed + repeat index. Each fold trains on its kept
    samples with ``class_matrices`` of their indices (see
    ``_load_training_data``). Returns one accuracy per fold run.
    """
    if folds < 2 or folds > len(dataset):
        raise ConfigError(f"--folds must be in [2, {len(dataset)}]")
    accuracies = []
    for r in range(repeats):
        seed = train_config.seed + r
        order = np.random.default_rng(seed).permutation(len(dataset))
        for k in range(folds):
            held = set(order[k::folds].tolist())
            kept = [i for i in range(len(dataset)) if i not in held]
            model, _ = train([dataset[i] for i in kept],
                             replace(train_config, seed=seed),
                             class_matrices=class_matrices(kept))
            accuracy, _ = evaluate(model, [dataset[i] for i in sorted(held)], "sets")
            accuracies.append(accuracy)
            print(f"repeat={r + 1} fold={k + 1} accuracy={float(accuracy)!r}",
                  file=sys.stderr)
    return accuracies


def cmd_train(args):
    if args.data and (args.images or args.labels):
        raise ConfigError("train takes --data (sets task) or --images/--labels "
                          "(idx task), not both")
    cfg = _resolve_train_config(args)
    if args.repeats < 1:
        raise ConfigError(f"--repeats must be at least 1, got {args.repeats}")
    train_config = TrainConfig(eta=cfg["eta"], gamma=cfg["gamma"],
                               epochs=cfg["epochs"], seed=cfg["seed"],
                               mode=cfg["mode"])
    dataset, class_matrices = _load_training_data(args, cfg)
    train = partial(fit, init=cfg["init"],
                    prototypes_per_class=cfg["prototypes_per_class"])
    if args.folds is not None:
        accs = _cross_validate(train, dataset, class_matrices, train_config,
                               args.folds, args.repeats)
        print(f"cv_accuracy={float(np.mean(accs))!r}")
        print(f"cv_std={float(np.std(accs))!r}")
    every = class_matrices(range(len(dataset)))
    del class_matrices  # it holds the sets task's frames, which every copies
    model, stats = train(dataset, train_config, class_matrices=every)
    if args.repeats > 1 and args.folds is None:
        # independent restarts with consecutive seeds; the saved model is run 1's
        run_stats = stats
        for r in range(args.repeats):
            seed = train_config.seed + r
            if r:
                _, run_stats = train(dataset, replace(train_config, seed=seed),
                                     class_matrices=every)
            print(f"run={r + 1} seed={seed} "
                  f"train_accuracy={float(run_stats[-1][2])!r}")
    dataio.save_model(model, args.model_out)
    if args.log_out:
        dataio.write_csv(args.log_out, ["epoch", "mean_cost", "train_accuracy"], stats)
    if args.summary_out:
        with open(args.summary_out, "w") as f:
            for key in sorted(cfg):
                f.write(f"{key} = {cfg[key]}\n")
            f.write(f"model_out = {args.model_out}\n")
            f.write(f"samples = {len(dataset)}\n")
    print(f"trained {cfg['mode']} model on {len(dataset)} samples; "
          f"final mean cost {stats[-1][1]:.6f}", file=sys.stderr)
    return 0


def _load_model(path):
    if not os.path.isfile(path):
        raise ModelNotFound(path)
    return dataio.load_model(path)


def _idx_image_blocks(args, model):
    """(N,) labels and pixel-major (D, B, 1) blocks of the IDX images, each
    ``eval_block_size`` pixel rows through ``unit_columns``. Every check runs
    before the first block is made: the files' decode and counts, all-black
    images, then the pixel count against the model's D."""
    pixels, labels, _, _ = dataio.read_idx_dataset(args.images, args.labels)
    black = np.flatnonzero(~pixels.any(axis=1))
    if black.size:
        raise RankDeficient(f"{args.images}: image {black[0]} is all black "
                            "(rank 0 < 1)")
    if pixels.shape[1] != model.ambient_dim:
        raise InconsistentDims(f"{args.images}: images have D = {pixels.shape[1]} "
                               f"pixels, prototypes have D = {model.ambient_dim}")
    block = eval_block_size(model, "vectors")
    return labels, (unit_columns(pixels[start:start + block].T)[:, :, None]
                    for start in range(0, len(pixels), block))


def cmd_eval(args):
    if args.data and (args.images or args.labels):
        raise ConfigError("eval takes --data or --images/--labels, not both")
    if bool(args.images) != bool(args.labels):
        given, missing = ("--images", "--labels") if args.images else ("--labels", "--images")
        raise ConfigError(f"eval {given} requires {missing}")
    if not args.data and not args.images:
        raise ConfigError("eval requires --data or --images/--labels")
    model = _load_model(args.model)
    kind = "vectors" if args.images else "sets"
    # the IDX files, or the tree and its labels.txt, are checked here
    labels, blocks = (_idx_image_blocks(args, model) if args.images else
                      dataio.iter_imageset_blocks(args.data, model.subspace_dim,
                                                  eval_block_size(model, kind)))
    accuracy, confusion = confusion_from_scores(model, score_blocks(model, blocks, kind), labels)
    print(f"accuracy={accuracy!r}")
    if args.confusion_out:
        dataio.write_csv(args.confusion_out, None, confusion)
    return 0


def cmd_predict(args):
    if args.image and args.set:
        raise ConfigError("predict takes --set or --image, not both")
    if args.image and (args.explain or args.out_dir):
        raise ConfigError("--explain and --out-dir apply to --set, not --image")
    if args.out_dir and not args.explain:
        raise ConfigError("--out-dir applies only with --explain")
    if not args.image and not args.set:
        raise ConfigError("predict requires --set <dir> or --image <pgm>")
    model = _load_model(args.model)
    if args.image:
        sample = dataio.read_pgm(args.image).ravel()  # pixels; scores normalises them
        if not sample.any():
            raise RankDeficient(f"{args.image}: all-black image has rank 0 < 1")
        kind, column = "vectors", "theta1"
    else:
        pixels, (height, width) = dataio.read_set(args.set)
        X = unit_columns(pixels)
        sample = subspace_from_set(X, model.subspace_dim)
        kind, column = "sets", "distance"
    row = scores(model, [sample], kind)[0]
    winner = int(np.argmin(row))
    print(f"label={model.labels[winner]}")
    for i, score in enumerate(row):
        print(f"prototype_{i + 1} label={model.labels[i]} "
              f"{column}={float(score)!r}")
    if args.explain:
        out_dir = args.out_dir or "."
        os.makedirs(out_dir, exist_ok=True)
        pd = principal_decomposition(sample, model.subspace(winner))
        for k in range(model.subspace_dim):
            dataio.export_pixel_influence(
                pd, k, width, height,
                os.path.join(out_dir, f"influence_angle_{k + 1}.pgm"))
        M = image_contribution(X, pd)
        dataio.write_csv(os.path.join(out_dir, "image_contribution.csv"),
                         [f"vector_{k + 1}" for k in range(M.shape[1])], M)
    return 0


def cmd_inspect(args):
    if args.prototype_dir and (not args.width or not args.height):
        raise ConfigError("--prototype-dir requires --width and --height")
    if (args.width, args.height) != (None, None) and not args.prototype_dir:
        raise ConfigError("--width and --height apply only with --prototype-dir")
    if args.distance_out and not args.data:
        raise ConfigError("--distance-out requires --data")
    if args.data and not args.distance_out:
        raise ConfigError("--data applies only with --distance-out")
    if not (args.relevance_out or args.prototype_dir or args.distance_out):
        raise ConfigError("inspect requires --relevance-out, --prototype-dir "
                          "or --distance-out")
    model = _load_model(args.model)
    if args.relevance_out:
        dataio.write_csv(args.relevance_out, ["index", "lambda"],
                         enumerate(model.relevance, 1))
    if args.prototype_dir:
        dataio.export_prototype_images(model, args.width, args.height,
                                       args.prototype_dir)
    if args.distance_out:
        labels, blocks = dataio.iter_imageset_blocks(
            args.data, model.subspace_dim, eval_block_size(model, "sets"))
        dataio.export_distance_matrix_csv(model, len(labels), blocks, args.distance_out)
    return 0


def cmd_synth(args):
    synth.generate(args.out, classes=args.classes, ambient=args.ambient,
                   dim=args.dim, train_sets=args.train_sets,
                   test_sets=args.test_sets, frames=args.frames,
                   noise=args.noise, seed=args.seed,
                   width=args.width, height=args.height)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="grasslvq",
        description="Prototype subspaces on the Grassmann manifold: "
                    "train, evaluate, and inspect GLGQ/GRLGQ models.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model")
    p.add_argument("--config", help="key = value config file; flags override")
    p.add_argument("--preset", choices=sorted(PRESETS))
    p.add_argument("--data", help="image-set root directory (sets task)")
    p.add_argument("--images", help="IDX image file (idx task)")
    p.add_argument("--labels", help="IDX label file (idx task)")
    # one flag per TRAIN_DEFAULTS key; config-file values use its type and choices
    options = [
        p.add_argument("--mode", choices=("glgq", "grlgq")),
        p.add_argument("--task", choices=("idx", "sets")),
        p.add_argument("--d", type=int, help="subspace dimension"),
        p.add_argument("--m", type=int, help="images per sampled subspace (idx task)"),
        p.add_argument("--sets-per-class", type=int, help="subspace draws per class (idx task)"),
        p.add_argument("--eta", type=float, help="prototype learning rate"),
        p.add_argument("--gamma", type=float, help="relevance learning rate"),
        p.add_argument("--epochs", type=int),
        p.add_argument("--seed", type=int),
        p.add_argument("--init", choices=("random", "example", "pca")),
        p.add_argument("--prototypes-per-class", type=int),
    ]
    p.add_argument("--repeats", type=int, default=1,
                   help="independent restarts with consecutive seeds; "
                        "the saved model is run 1's")
    p.add_argument("--folds", type=int,
                   help="k-fold cross-validation before the final fit")
    p.add_argument("--model-out", default="model.bin")
    p.add_argument("--log-out", help="per-epoch cost/accuracy CSV")
    p.add_argument("--summary-out", help="resolved-config text file")
    p.set_defaults(func=cmd_train, options={a.dest: a for a in options})

    p = sub.add_parser("eval", help="evaluate a model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", help="image-set root directory")
    p.add_argument("--images", help="IDX image file")
    p.add_argument("--labels", help="IDX label file")
    p.add_argument("--confusion-out")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="predict one image set or one image")
    p.add_argument("--model", required=True)
    p.add_argument("--set", help="directory of PGM frames")
    p.add_argument("--image", help="single PGM image")
    p.add_argument("--explain", action="store_true",
                   help="write pixel-influence maps and the image-contribution matrix")
    p.add_argument("--out-dir")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("inspect", help="export relevance, prototypes, distances")
    p.add_argument("--model", required=True)
    p.add_argument("--relevance-out")
    p.add_argument("--prototype-dir")
    p.add_argument("--width", type=int)
    p.add_argument("--height", type=int)
    p.add_argument("--data", help="dataset for the distance matrix")
    p.add_argument("--distance-out")
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("synth", help="generate a synthetic image-set benchmark")
    p.add_argument("--out", required=True)
    p.add_argument("--classes", type=int, default=3)
    p.add_argument("--ambient", type=int, default=20)
    p.add_argument("--dim", type=int, default=3)
    p.add_argument("--train-sets", type=int, default=10,
                   help="training sets per class")
    p.add_argument("--test-sets", type=int, default=10,
                   help="test sets per class")
    p.add_argument("--frames", type=int, default=8)
    p.add_argument("--noise", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--width", type=int)
    p.add_argument("--height", type=int)
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GrasslvqError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        category = type(exc).__name__.removesuffix("Error")
        print(f"error: {category}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
