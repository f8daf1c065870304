"""The three benchmark workloads: seeded inputs, the timed CLI command, gates.

Each workload writes its inputs from the seed in ``generate``, makes itself
ready to run (trains the model an eval needs) in ``setup``, computes an
in-process reference once in ``reference``, and checks every CLI invocation
against it in ``check``. The CLI only ever sees the generated files.
"""

import contextlib
import io
import os
import struct
import time

import numpy as np

from grasslvq import cli, dataio
from grasslvq.model import TrainConfig, evaluate, fit

ORTHO_TOL = 1e-8
SIMPLEX_TOL = 1e-12
PROTOTYPE_TOL = 1e-10

CLASSES = 10

# MNIST-shaped IDX data: each class spans a shared and a class-specific set
# of sparse nonnegative pixel patterns (6 + 6 = d = 12), plus pixel noise.
MNIST_SIDE = 28
MNIST_D, MNIST_M = 12, 50
SHARED, SPECIFIC, SUPPORT = 6, 6, 80
SPECIFIC_SCALE = 0.25
PIXEL_NOISE = 0.3

# YaleB-shaped image sets from the package's own generator. Noise 0.19 keeps
# eval accuracy near 0.9; at 0.05 it reads exactly 1.0 and hides regressions.
YALEB_SIDE = 20
YALEB_D = 25
YALEB_NOISE = 0.19

SIZES = {
    "full": dict(mnist_train_per_class=100, mnist_test_per_class=200,
                 sets_per_class=5, mnist_epochs=3, yaleb_train_sets=4,
                 yaleb_test_sets=10, yaleb_frames=30, yaleb_epochs=3,
                 floor=0.7),
    # for the smoke run only: too small for accuracy to mean much
    "tiny": dict(mnist_train_per_class=60, mnist_test_per_class=10,
                 sets_per_class=1, mnist_epochs=1, yaleb_train_sets=1,
                 yaleb_test_sets=2, yaleb_frames=26, yaleb_epochs=1,
                 floor=0.15),
}


class CheckFailed(Exception):
    """A CLI result that fails a correctness gate."""


def run_cli(argv):
    """Run grasslvq.cli.main in-process; returns (stdout, seconds).

    A non-zero exit raises CheckFailed. Only the call itself is timed. ``cli.main`` is looked up at call time so
    that the tracer's wrapper is used while it is installed.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            rc = exc.code
        wall = time.perf_counter() - start
    if rc != 0:
        raise CheckFailed(f"{argv[0]} exited {rc}: {err.getvalue().strip()}")
    return out.getvalue(), wall


def check_model(path):
    """Prototypes orthonormal and relevance on the simplex; returns the model."""
    model = dataio.load_model(path)
    for i, proto in enumerate(model.prototypes):
        basis = proto.subspace.basis
        err = np.max(np.abs(basis.T @ basis - np.eye(basis.shape[1])))
        if not err <= ORTHO_TOL:
            raise CheckFailed(f"prototype {i}: max |B^T B - I| = {err:.3g}")
    rel = model.relevance
    if np.any(rel < 0) or abs(rel.sum() - 1.0) > SIMPLEX_TOL:
        raise CheckFailed(f"relevance off the simplex: {rel}")
    return model


def check_floor(accuracy, floor):
    if not accuracy >= floor:
        raise CheckFailed(f"accuracy {accuracy} below the floor {floor}")


# ---------------------------------------------------------------- inputs

def _sparse_patterns(rng, count):
    D = MNIST_SIDE * MNIST_SIDE
    patterns = np.zeros((D, count))
    for k in range(count):
        rows = rng.choice(D, SUPPORT, replace=False)
        patterns[rows, k] = rng.uniform(0.2, 1.0, SUPPORT)
    return patterns


def _draw_images(rng, shared, specific, per_class):
    pixels, labels = [], []
    for label, spec in enumerate(specific):
        x = (shared @ rng.uniform(0, 1, (SHARED, per_class))
             + spec @ (SPECIFIC_SCALE * rng.uniform(0, 1, (SPECIFIC, per_class)))
             + PIXEL_NOISE * rng.standard_normal((shared.shape[0], per_class)))
        pixels.append(np.rint(np.clip(x, 0.0, 1.0) * 255).astype(np.uint8).T)
        labels += [label] * per_class
    order = rng.permutation(len(labels))
    return np.vstack(pixels)[order], np.array(labels, dtype=np.uint8)[order]


def write_mnist_like(directory, seed, train_per_class, test_per_class=0):
    """Write seeded IDX files; returns {split: (images path, labels path)}.

    The class patterns and the train split depend only on the seed, so the
    train files of a seed are the same whether or not a test split is made.
    """
    bases_rng, train_rng, test_rng = (
        np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(3))
    shared = _sparse_patterns(bases_rng, SHARED)
    specific = [_sparse_patterns(bases_rng, SPECIFIC) for _ in range(CLASSES)]
    splits = {"train": (train_rng, train_per_class),
              "test": (test_rng, test_per_class)}
    paths = {}
    for split, (rng, per_class) in splits.items():
        if per_class == 0:
            continue
        pixels, labels = _draw_images(rng, shared, specific, per_class)
        images_path = os.path.join(directory, f"{split}-images-idx3-ubyte")
        labels_path = os.path.join(directory, f"{split}-labels-idx1-ubyte")
        with open(images_path, "wb") as f:
            f.write(struct.pack(">iiii", dataio.IDX_IMAGES_MAGIC, len(labels),
                                MNIST_SIDE, MNIST_SIDE))
            f.write(pixels.tobytes())
        with open(labels_path, "wb") as f:
            f.write(struct.pack(">ii", dataio.IDX_LABELS_MAGIC, len(labels)))
            f.write(labels.tobytes())
        paths[split] = (images_path, labels_path)
    return paths


def _mnist_train_argv(paths, size, model_out, log_out):
    images, labels = paths["train"]
    return ["train", "--task", "idx", "--preset", "mnist", "--mode", "grlgq",
            "--init", "pca", "--images", images, "--labels", labels,
            "--d", str(MNIST_D), "--m", str(MNIST_M),
            "--sets-per-class", str(size["sets_per_class"]),
            "--epochs", str(size["mnist_epochs"]),
            "--model-out", model_out, "--log-out", log_out]


# ---------------------------------------------------------------- workloads

class TrainMnist:
    """``train --task idx --preset mnist`` on seeded 28x28 IDX files.

    Most of the time goes to training: find_winners runs P decompositions per
    sample and apply_prototype_update re-orthonormalises the winners. Ingest is
    one vectorised IDX read.
    """

    name = "train-mnist"

    def __init__(self, seed, size):
        self.seed, self.size = seed, size
        samples = CLASSES * size["sets_per_class"]
        self.items = samples * size["mnist_epochs"]
        self.shapes = dict(D=MNIST_SIDE ** 2, d=MNIST_D, P=CLASSES, N=samples,
                           m=MNIST_M, epochs=size["mnist_epochs"],
                           images=CLASSES * size["mnist_train_per_class"],
                           items="sample-steps (N x epochs)")

    def generate(self, directory):
        self.paths = write_mnist_like(directory, self.seed,
                                      self.size["mnist_train_per_class"])
        self.model_out = os.path.join(directory, "model.bin")
        self.log_out = os.path.join(directory, "log.csv")
        self.argv = _mnist_train_argv(self.paths, self.size, self.model_out,
                                      self.log_out)

    def setup(self):
        """Nothing to prepare: the timed command is the training."""

    def reference(self):
        """The same training run through the library, in-process."""
        preset = cli.PRESETS["mnist"]
        images, labels, _, _ = dataio.read_idx_dataset(*self.paths["train"])
        seed = cli.TRAIN_DEFAULTS["seed"]
        dataset = dataio.build_classwise_subspace_dataset(
            images, labels, MNIST_D, MNIST_M, self.size["sets_per_class"], seed)
        config = TrainConfig(eta=preset["eta"], gamma=preset["gamma"],
                             epochs=self.size["mnist_epochs"], seed=seed,
                             mode="grlgq")
        self.ref_model, stats = fit(
            dataset, config, init="pca",
            class_matrices=dataio.class_image_matrices(images, labels))
        self.ref_accuracy = stats[-1][2]

    def check(self, stdout):
        model = check_model(self.model_out)
        with open(self.log_out) as f:
            accuracy = float(f.read().strip().splitlines()[-1].split(",")[2])
        if accuracy != self.ref_accuracy:
            raise CheckFailed(f"final train accuracy {accuracy} != in-process "
                              f"{self.ref_accuracy}")
        for i, (p, q) in enumerate(zip(model.prototypes,
                                       self.ref_model.prototypes)):
            diff = np.max(np.abs(p.subspace.basis - q.subspace.basis))
            if p.label != q.label or not diff <= PROTOTYPE_TOL:
                raise CheckFailed(f"prototype {i} differs from in-process fit "
                                  f"by {diff:.3g}")
        check_floor(accuracy, self.size["floor"])
        return accuracy


class _Eval:
    """Shared gate of the eval workloads: accuracy= and the confusion file."""

    kind = None

    def setup(self):
        """Train the model that the timed eval loads."""
        run_cli(self.train_argv)

    def _eval_argv(self, directory, inputs):
        self.confusion_out = os.path.join(directory, "confusion.csv")
        return ["eval", "--model", self.model_out, *inputs,
                "--confusion-out", self.confusion_out]

    def reference(self):
        model = check_model(self.model_out)
        self.ref_accuracy, self.ref_confusion = evaluate(
            model, self._dataset(model), self.kind)

    def check(self, stdout):
        values = [line.split("=", 1)[1] for line in stdout.splitlines()
                  if line.startswith("accuracy=")]
        if len(values) != 1:
            raise CheckFailed(f"expected one accuracy= line, got {stdout!r}")
        accuracy = float(values[0])
        if accuracy != self.ref_accuracy:
            raise CheckFailed(f"CLI accuracy {accuracy} != in-process "
                              f"evaluate {self.ref_accuracy}")
        confusion = np.loadtxt(self.confusion_out, delimiter=",",
                               dtype=np.int64, ndmin=2)
        if confusion.sum() != self.items:
            raise CheckFailed(f"confusion counts sum to {confusion.sum()}, "
                              f"not {self.items}")
        if not np.array_equal(confusion, self.ref_confusion):
            raise CheckFailed("confusion matrix differs from in-process evaluate")
        check_floor(accuracy, self.size["floor"])
        return accuracy


class EvalSetsYaleb(_Eval):
    """``eval --data`` on a synth image-set tree of 20x20 PGM frames.

    read_pgm runs once per frame and subspace_from_set once per set; the
    distance kernel runs P times per set, read-only. At d=25 the kernel takes
    about two thirds of the command and ingest the rest.
    """

    name = "eval-sets-yaleb"
    kind = "sets"

    def __init__(self, seed, size):
        self.seed, self.size = seed, size
        self.items = CLASSES * size["yaleb_test_sets"]
        self.shapes = dict(D=YALEB_SIDE ** 2, d=YALEB_D, P=CLASSES,
                           N=self.items, frames=size["yaleb_frames"],
                           train_sets=CLASSES * size["yaleb_train_sets"],
                           epochs=size["yaleb_epochs"], noise=YALEB_NOISE,
                           items="test sets")

    def generate(self, directory):
        data = os.path.join(directory, "sets")
        run_cli(["synth", "--out", data, "--classes", str(CLASSES),
                 "--ambient", str(YALEB_SIDE ** 2), "--width", str(YALEB_SIDE),
                 "--height", str(YALEB_SIDE), "--dim", str(YALEB_D),
                 "--train-sets", str(self.size["yaleb_train_sets"]),
                 "--test-sets", str(self.size["yaleb_test_sets"]),
                 "--frames", str(self.size["yaleb_frames"]),
                 "--noise", str(YALEB_NOISE), "--seed", str(self.seed)])
        self.model_out = os.path.join(directory, "model.bin")
        self.train_argv = ["train", "--data", os.path.join(data, "train"),
                           "--preset", "yaleb", "--d", str(YALEB_D),
                           "--epochs", str(self.size["yaleb_epochs"]),
                           "--model-out", self.model_out]
        self.test_root = os.path.join(data, "test")
        self.argv = self._eval_argv(directory, ["--data", self.test_root])

    def _dataset(self, model):
        sets, _, _ = dataio.read_imageset_dirs(self.test_root)
        return dataio.build_per_set_subspace_dataset(sets, model.subspace_dim)


class EvalVectorsMnist(_Eval):
    """``eval --images --labels`` on IDX images against the train-mnist model.

    The distance kernel runs its one-column case, single_vector_angle, P times
    per image: no SVDs, bound by Python call overhead. A batched kernel that
    helps the other workloads can slow this one.
    """

    name = "eval-vectors-mnist"
    kind = "vectors"

    def __init__(self, seed, size):
        self.seed, self.size = seed, size
        self.items = CLASSES * size["mnist_test_per_class"]
        self.shapes = dict(D=MNIST_SIDE ** 2, d=MNIST_D, P=CLASSES,
                           N=self.items,
                           train_samples=CLASSES * size["sets_per_class"],
                           epochs=size["mnist_epochs"], items="test images")

    def generate(self, directory):
        paths = write_mnist_like(directory, self.seed,
                                 self.size["mnist_train_per_class"],
                                 self.size["mnist_test_per_class"])
        self.model_out = os.path.join(directory, "model.bin")
        self.train_argv = _mnist_train_argv(
            paths, self.size, self.model_out, os.path.join(directory, "log.csv"))
        self.test_paths = paths["test"]
        self.argv = self._eval_argv(
            directory, ["--images", paths["test"][0],
                        "--labels", paths["test"][1]])

    def _dataset(self, model):
        images, labels, _, _ = dataio.read_idx_dataset(*self.test_paths)
        return list(zip(images, labels))


WORKLOADS = {w.name: w for w in (TrainMnist, EvalSetsYaleb, EvalVectorsMnist)}
