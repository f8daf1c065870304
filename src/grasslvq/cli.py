"""Command-line interface: train, eval, predict, inspect, synth.

All diagnostics go to stderr, data output to stdout or files; every command is
deterministic given argv, input files, and the seed. Failures exit nonzero
with a single machine-parseable line ``error: <Category>: <detail>``.
"""

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from . import dataio, synth
from .errors import ConfigError, GrasslvqError, ModelNotFound, RankDeficient
from .manifold import (
    image_contribution,
    principal_decomposition,
    subspace_from_set,
)
from .model import TrainConfig, evaluate, fit, predict_set, predict_vector

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
    values = {}
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            key, value = (part.strip() for part in line.split("=", 1))
            values[key.replace("-", "_")] = value
    return values


_INT_KEYS = ("d", "epochs", "seed", "prototypes_per_class", "m", "sets_per_class")
_FLOAT_KEYS = ("eta", "gamma")


def _coerce(key, value):
    try:
        if key in _INT_KEYS:
            return int(value)
        if key in _FLOAT_KEYS:
            return float(value)
    except ValueError:
        raise ConfigError(f"config key {key!r}: {value!r} is not a number") from None
    return value


def _resolve_train_config(args):
    resolved = dict(TRAIN_DEFAULTS)
    if args.preset:
        if args.preset not in PRESETS:
            raise ConfigError(f"unknown preset {args.preset!r}")
        resolved.update(PRESETS[args.preset])
    if args.config:
        file_values = _read_config_file(args.config)
        for key, value in file_values.items():
            if key not in resolved and key not in ("mode",):
                raise ConfigError(f"unknown config key {key!r}")
            resolved[key] = _coerce(key, value)
    for key in resolved:
        flag = getattr(args, key, None)
        if flag is not None:
            resolved[key] = flag
    return resolved


def _load_training_data(args, cfg):
    """Returns (dataset, class_matrices or None, eval_kind)."""
    if cfg["task"] == "idx":
        if not args.images or not args.labels:
            raise ConfigError("idx task requires --images and --labels")
        images, labels, _, _ = dataio.read_idx_dataset(args.images, args.labels)
        m = cfg["m"] or max(cfg["d"], 20)
        sets_per_class = cfg["sets_per_class"] or 50
        dataset = dataio.build_classwise_subspace_dataset(
            images, labels, cfg["d"], m, sets_per_class, cfg["seed"])
        matrices = dataio.class_image_matrices(images, labels)
        return dataset, matrices, "vectors"
    if not args.data:
        raise ConfigError("sets task requires --data <imageset root>")
    sets, _, _ = dataio.read_imageset_dirs(args.data)
    dataset = dataio.build_per_set_subspace_dataset(sets, cfg["d"])
    matrices = {}
    for X, label in sets:
        matrices.setdefault(label, []).append(X)
    matrices = {lab: np.hstack(xs) for lab, xs in matrices.items()}
    return dataset, matrices, "sets"


def _cross_validate(dataset, train_config, cfg, folds, repeats, class_matrices):
    """Repeated k-fold cross-validation over the training samples.

    Fold membership is a seeded permutation taken round-robin; each repeat
    reshuffles with seed + repeat index. Returns one accuracy per fold run.
    """
    if folds < 2 or folds > len(dataset):
        raise ConfigError(f"--folds must be in [2, {len(dataset)}]")
    accuracies = []
    for r in range(repeats):
        seed = cfg["seed"] + r
        order = np.random.default_rng(seed).permutation(len(dataset))
        for k in range(folds):
            held = set(order[k::folds].tolist())
            train_part = [s for i, s in enumerate(dataset) if i not in held]
            test_part = [dataset[i] for i in sorted(held)]
            model, _ = fit(train_part, replace(train_config, seed=seed),
                           init=cfg["init"],
                           prototypes_per_class=cfg["prototypes_per_class"],
                           class_matrices=class_matrices)
            accuracy, _ = evaluate(model, test_part, "sets")
            accuracies.append(accuracy)
            print(f"repeat={r + 1} fold={k + 1} accuracy={float(accuracy)!r}",
                  file=sys.stderr)
    return accuracies


def cmd_train(args):
    cfg = _resolve_train_config(args)
    train_config = TrainConfig(eta=cfg["eta"], gamma=cfg["gamma"],
                               epochs=cfg["epochs"], seed=cfg["seed"],
                               mode=cfg["mode"])
    dataset, class_matrices, _ = _load_training_data(args, cfg)
    if args.folds:
        accs = _cross_validate(dataset, train_config, cfg, args.folds,
                               args.repeats or 1, class_matrices)
        print(f"cv_accuracy={float(np.mean(accs))!r}")
        print(f"cv_std={float(np.std(accs))!r}")
    elif args.repeats and args.repeats > 1:
        # independent restarts with consecutive seeds; the saved model below
        # always comes from the base seed
        for r in range(args.repeats):
            _, run_stats = fit(dataset, replace(train_config,
                                                seed=cfg["seed"] + r),
                               init=cfg["init"],
                               prototypes_per_class=cfg["prototypes_per_class"],
                               class_matrices=class_matrices)
            print(f"run={r + 1} seed={cfg['seed'] + r} "
                  f"train_accuracy={float(run_stats[-1][2])!r}")
    model, stats = fit(dataset, train_config, init=cfg["init"],
                       prototypes_per_class=cfg["prototypes_per_class"],
                       class_matrices=class_matrices)
    dataio.save_model(model, args.model_out)
    if args.log_out:
        with open(args.log_out, "w") as f:
            f.write("epoch,mean_cost,train_accuracy\n")
            for epoch, cost, acc in stats:
                f.write(f"{epoch},{cost!r},{acc!r}\n")
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


def _eval_dataset(args, model):
    if args.images and args.labels:
        images, labels, _, _ = dataio.read_idx_dataset(args.images, args.labels)
        return list(zip(images, labels)), "vectors"
    if not args.data:
        raise ConfigError("eval requires --data or --images/--labels")
    sets, _, _ = dataio.read_imageset_dirs(args.data)
    dataset = dataio.build_per_set_subspace_dataset(sets, model.subspace_dim)
    return dataset, "sets"


def cmd_eval(args):
    model = _load_model(args.model)
    dataset, kind = _eval_dataset(args, model)
    accuracy, confusion = evaluate(model, dataset, kind)
    print(f"accuracy={accuracy!r}")
    if args.confusion_out:
        with open(args.confusion_out, "w") as f:
            for row in confusion:
                f.write(",".join(str(v) for v in row) + "\n")
    return 0


def cmd_predict(args):
    model = _load_model(args.model)
    if args.image:
        vec = dataio.normalize_pixels(dataio.read_pgm(args.image).reshape(1, -1))[0]
        if not vec.any():
            raise RankDeficient(f"{args.image}: all-black image has rank 0 < 1")
        label, angles = predict_vector(model, vec)
        print(f"label={label}")
        for i, angle in enumerate(angles):
            print(f"prototype_{i + 1} label={model.prototypes[i].label} "
                  f"theta1={float(angle)!r}")
        return 0
    if not args.set:
        raise ConfigError("predict requires --set <dir> or --image <pgm>")
    X, (height, width) = dataio.read_set(args.set)
    factors = subspace_from_set(X, model.subspace_dim)
    label, dists = predict_set(model, factors.subspace)
    print(f"label={label}")
    for i, dist in enumerate(dists):
        print(f"prototype_{i + 1} label={model.prototypes[i].label} "
              f"distance={float(dist)!r}")
    if args.explain:
        out_dir = args.out_dir or "."
        os.makedirs(out_dir, exist_ok=True)
        winner = int(np.argmin(dists))
        pd = principal_decomposition(factors.subspace,
                                     model.prototypes[winner].subspace)
        for k in range(model.subspace_dim):
            dataio.export_pixel_influence(
                pd, k, width, height,
                os.path.join(out_dir, f"influence_angle_{k + 1}.pgm"))
        M = image_contribution(factors, pd.rot_left)
        with open(os.path.join(out_dir, "image_contribution.csv"), "w") as f:
            f.write(",".join(f"vector_{k + 1}" for k in range(M.shape[1])) + "\n")
            for row in M:
                f.write(",".join(repr(float(v)) for v in row) + "\n")
    return 0


def cmd_inspect(args):
    model = _load_model(args.model)
    if args.relevance_out:
        dataio.export_relevance_csv(model, args.relevance_out)
    if args.prototype_dir:
        if not args.width or not args.height:
            raise ConfigError("--prototype-dir requires --width and --height")
        for i in range(len(model.prototypes)):
            dataio.export_prototype_images(model, i, args.width, args.height,
                                           args.prototype_dir)
    if args.distance_out:
        if not args.data:
            raise ConfigError("--distance-out requires --data")
        sets, _, _ = dataio.read_imageset_dirs(args.data)
        dataset = dataio.build_per_set_subspace_dataset(sets, model.subspace_dim)
        dataio.export_distance_matrix_csv(model, dataset, args.distance_out)
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
    p.add_argument("--mode", choices=("glgq", "grlgq"))
    p.add_argument("--task", choices=("idx", "sets"))
    p.add_argument("--data", help="image-set root directory (sets task)")
    p.add_argument("--images", help="IDX image file (idx task)")
    p.add_argument("--labels", help="IDX label file (idx task)")
    p.add_argument("--d", type=int, help="subspace dimension")
    p.add_argument("--m", type=int, help="images per sampled subspace (idx task)")
    p.add_argument("--sets-per-class", type=int, help="subspace draws per class (idx task)")
    p.add_argument("--eta", type=float, help="prototype learning rate")
    p.add_argument("--gamma", type=float, help="relevance learning rate")
    p.add_argument("--epochs", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--init", choices=("random", "example", "pca"))
    p.add_argument("--prototypes-per-class", type=int)
    p.add_argument("--repeats", type=int,
                   help="independent restarts with consecutive seeds")
    p.add_argument("--folds", type=int,
                   help="k-fold cross-validation before the final fit")
    p.add_argument("--model-out", default="model.bin")
    p.add_argument("--log-out", help="per-epoch cost/accuracy CSV")
    p.add_argument("--summary-out", help="resolved-config text file")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", help="image-set root directory")
    p.add_argument("--images", help="IDX image file")
    p.add_argument("--labels", help="IDX label file")
    p.add_argument("--confusion-out")
    p.add_argument("--threads", type=int,
                   help="accepted for compatibility; ignored")
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
    except FileNotFoundError as exc:
        print(f"error: FileNotFound: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
