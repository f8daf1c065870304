"""End-to-end tests that drive the console entry point via main(argv)."""

import os
import shutil
import struct
import subprocess
import sys
import threading
import tracemalloc
import weakref
import zlib

import numpy as np
import pytest

from grasslvq import (
    ModelState,
    Prototype,
    cli,
    dataio,
    evaluate,
    fit,
    principal_decomposition,
    score_blocks,
    scores,
    subspace_from_set,
)
from grasslvq import cli as cli_module
from grasslvq import model as model_module
from grasslvq.cli import TRAIN_DEFAULTS, main
from helpers import (
    random_subspace,
    track_kernel_blocks,
    write_idx_images,
    write_idx_labels,
)


# synth --ambient 12 without --width/--height writes one-row frames
FRAME_SHAPE = (1, 12)


def _idx_flags(tmp, same_class_1=False):
    """--images/--labels of 40 seeded 3x4 IDX images, 20 per class; with
    ``same_class_1`` every class-1 image is the same."""
    rng = np.random.default_rng(5)
    images = rng.integers(1, 256, (40, 3, 4), np.uint8)
    if same_class_1:
        images[::2] = images[0]
    paths = tmp / "train-images.idx", tmp / "train-labels.idx"
    write_idx_images(paths[0], list(images))
    write_idx_labels(paths[1], [1, 2] * 20)
    return ["--images", str(paths[0]), "--labels", str(paths[1])]


# train key -> (config-file value, extra flags); each value differs from the
# default, so the summary shows that it took effect
CONFIG_KEY_CASES = {
    "mode": ("glgq", ["--gamma", "0"]),
    "task": ("idx", []),
    "d": ("1", []),
    "eta": ("0.02", []),
    "gamma": ("0", []),
    "epochs": ("2", []),
    "seed": ("4", []),
    "init": ("random", []),
    "prototypes_per_class": ("2", []),
    "m": ("4", ["--task", "idx"]),
    "sets_per_class": ("2", ["--task", "idx"]),
}


def tree_bytes(root):
    return {p.relative_to(root): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A small synthetic benchmark plus one trained model, shared read-only."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    rc = main(["synth", "--out", str(data), "--classes", "2",
               "--ambient", "12", "--dim", "2", "--train-sets", "5",
               "--test-sets", "4", "--frames", "6", "--seed", "3"])
    assert rc == 0
    model = root / "model.bin"
    log = root / "log.csv"
    rc = main(["train", "--data", str(data / "train"), "--d", "2",
               "--epochs", "8", "--seed", "1", "--model-out", str(model),
               "--log-out", str(log)])
    assert rc == 0
    return root, data, model, log


@pytest.fixture(scope="module")
def yaleb_tree(tmp_path_factory):
    """36 test sets of 30 20x20 frames (D = 400) in 3 classes, and a model of
    random d = 25 prototypes, one per class; about 13 sets fill an eval block."""
    root = tmp_path_factory.mktemp("yaleb")
    assert main(["synth", "--out", str(root / "data"), "--classes", "3",
                 "--ambient", "400", "--width", "20", "--height", "20",
                 "--dim", "25", "--frames", "30", "--train-sets", "1",
                 "--test-sets", "12", "--seed", "8"]) == 0
    rng = np.random.default_rng(8)
    protos = [Prototype(random_subspace(rng, 400, 25), label) for label in (1, 2, 3)]
    model = root / "model.bin"
    dataio.save_model(ModelState(protos, np.full(25, 1 / 25), "grlgq", 25, 400), model)
    return root / "data" / "test", model


class TestSynth:
    def test_deterministic_bytes(self, tmp_path):
        args = ["synth", "--classes", "2", "--ambient", "10", "--dim", "2",
                "--train-sets", "2", "--test-sets", "1", "--frames", "4",
                "--seed", "7"]
        for out in ("a", "b"):
            assert main(args + ["--out", str(tmp_path / out)]) == 0
        assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")

    def test_used_out_is_refused_and_left_as_is(self, tmp_path, capsys):
        args = ["synth", "--out", str(tmp_path), "--classes", "2", "--ambient", "10",
                "--dim", "2", "--test-sets", "1", "--frames", "4"]
        assert main(args + ["--train-sets", "3"]) == 0
        before = tree_bytes(tmp_path)
        capsys.readouterr()
        # fewer sets of fewer frames would leave stale ones beside the new
        assert main(args + ["--train-sets", "2", "--frames", "2", "--seed", "1"]) == 1
        assert capsys.readouterr().err == (
            f"error: ConfigError: {tmp_path / 'train'} already exists\n")
        assert tree_bytes(tmp_path) == before

    def test_layout(self, workspace):
        _, data, _, _ = workspace
        classes = sorted(p.name for p in (data / "train").iterdir())
        assert classes == ["class_01", "class_02"]
        sets = sorted(p.name for p in (data / "train" / "class_01").iterdir())
        assert len(sets) == 5
        frames = list((data / "train" / "class_01" / sets[0]).glob("*.pgm"))
        assert len(frames) == 6


class TestTrain:
    def test_glgq_with_nonzero_gamma_rejected(self, workspace, tmp_path, capsys):
        _, data, _, _ = workspace
        rc = main(["train", "--data", str(data / "train"), "--mode", "glgq",
                   "--gamma", "0.5", "--d", "2", "--epochs", "1",
                   "--model-out", str(tmp_path / "m.bin")])
        assert rc == 1
        assert "error: ConfigError" in capsys.readouterr().err

    def test_same_seed_reproduces_model_and_log(self, workspace, tmp_path):
        _, data, model, log = workspace
        model2 = tmp_path / "m2.bin"
        log2 = tmp_path / "log2.csv"
        rc = main(["train", "--data", str(data / "train"), "--d", "2",
                   "--epochs", "8", "--seed", "1", "--model-out", str(model2),
                   "--log-out", str(log2)])
        assert rc == 0
        assert model2.read_bytes() == model.read_bytes()
        assert log2.read_text() == log.read_text()

    def test_epoch_log_format(self, workspace):
        _, _, _, log = workspace
        lines = log.read_text().splitlines()
        assert lines[0] == "epoch,mean_cost,train_accuracy"
        assert len(lines) == 9
        epoch, cost, acc = lines[-1].split(",")
        assert int(epoch) == 8
        assert -1.0 <= float(cost) <= 1.0
        assert 0.0 <= float(acc) <= 1.0

    def test_config_file_equals_flags(self, workspace, tmp_path):
        _, data, model, _ = workspace
        config = tmp_path / "run.conf"
        config.write_text("d = 2          # subspace dimension\n"
                          "epochs = 8\n"
                          "seed = 1\n")
        out = tmp_path / "m.bin"
        rc = main(["train", "--config", str(config), "--data",
                   str(data / "train"), "--model-out", str(out)])
        assert rc == 0
        assert out.read_bytes() == model.read_bytes()

    def test_flags_override_config_file(self, workspace, tmp_path):
        _, data, model, _ = workspace
        config = tmp_path / "run.conf"
        config.write_text("d = 2\nepochs = 3\nseed = 1\n")
        out = tmp_path / "m.bin"
        rc = main(["train", "--config", str(config), "--epochs", "8",
                   "--data", str(data / "train"), "--model-out", str(out)])
        assert rc == 0
        assert out.read_bytes() == model.read_bytes()

    def test_unknown_config_key(self, workspace, tmp_path, capsys):
        _, data, _, _ = workspace
        config = tmp_path / "bad.conf"
        config.write_text("learning_rate = 0.1\n")
        rc = main(["train", "--config", str(config), "--data",
                   str(data / "train"), "--model-out", str(tmp_path / "m.bin")])
        assert rc == 1
        assert "error: ConfigError" in capsys.readouterr().err

    def test_folds_cross_validation(self, workspace, tmp_path, capsys):
        _, data, _, _ = workspace
        rc = main(["train", "--data", str(data / "train"), "--d", "2",
                   "--epochs", "4", "--seed", "1", "--folds", "2",
                   "--repeats", "2",
                   "--model-out", str(tmp_path / "m.bin")])
        assert rc == 0
        captured = capsys.readouterr()
        out = {line.split("=", 1)[0]: float(line.split("=", 1)[1])
               for line in captured.out.strip().splitlines()}
        assert 0.0 <= out["cv_accuracy"] <= 1.0
        assert out["cv_std"] >= 0.0
        assert captured.err.count("fold=") == 4
        assert (tmp_path / "m.bin").is_file()

    @staticmethod
    def _fold_models(data, monkeypatch, tmp_path):
        """(config, stack) of every fit a pca-init --folds 2 --repeats 2 run
        makes, fold runs first, then the final fit on every set."""
        runs = []

        def recording_fit(dataset, config, **kwargs):
            model, stats = fit(dataset, config, **kwargs)
            runs.append((config, model.stack.copy()))
            return model, stats

        monkeypatch.setattr(cli, "fit", recording_fit)
        assert main(["train", "--data", str(data), "--d", "2", "--init", "pca",
                     "--epochs", "2", "--seed", "1", "--folds", "2",
                     "--repeats", "2", "--model-out", str(tmp_path / "m.bin")]) == 0
        return runs

    @staticmethod
    def _held_out(count):
        """The held-out indices of each fold run, in run order."""
        return [set(np.random.default_rng(1 + r).permutation(count)[k::2].tolist())
                for r in range(2) for k in range(2)]

    def test_folds_pca_init_reads_kept_sets_only(self, workspace, tmp_path,
                                                 monkeypatch):
        _, data, _, _ = workspace
        runs = self._fold_models(data / "train", monkeypatch, tmp_path)
        sets, _, _ = dataio.read_imageset_dirs(data / "train")
        folds = self._held_out(len(sets))
        assert len(runs) == len(folds) + 1
        for (config, stack), held in zip(runs, folds):
            kept = [item for i, item in enumerate(sets) if i not in held]
            # each class's kept frames, normalised, side by side in item order
            grouped = {}
            for X, label in kept:
                grouped.setdefault(label, []).append(dataio.unit_columns(X))
            expected, _ = fit(dataio.build_per_set_subspace_dataset(kept, 2),
                              config, init="pca",
                              class_matrices={label: np.hstack(xs)
                                              for label, xs in grouped.items()})
            assert np.array_equal(stack, expected.stack)

    def test_folds_ignore_held_out_frames(self, workspace, tmp_path, monkeypatch):
        _, data, _, _ = workspace
        before = self._fold_models(data / "train", monkeypatch, tmp_path)
        edited = tmp_path / "train"
        shutil.copytree(data / "train", edited)
        # set 0's first frame, inverted
        set_dir = sorted(p for p in edited.glob("*/*") if p.is_dir())[0]
        frame = sorted(set_dir.glob("*.pgm"))[0]
        dataio.write_pgm(frame, 255 - dataio.read_pgm(frame))
        after = self._fold_models(edited, monkeypatch, tmp_path)
        folds = self._held_out(len(list(edited.glob("*/*"))))
        for (_, old), (_, new), held in zip(before, after, folds):
            # the frames of a kept set seed the pca init, so the model moves
            assert np.array_equal(old, new) == (0 in held)

    def test_idx_pca_train_holds_no_float64_copy_of_the_images(self, tmp_path):
        # 2000 images of 784 pixels: one float64 copy is 12.5 MB
        rng = np.random.default_rng(16)
        images = rng.integers(0, 256, (2000, 28, 28), np.uint8)
        paths = tmp_path / "images.idx", tmp_path / "labels.idx"
        write_idx_images(paths[0], list(images))
        write_idx_labels(paths[1], list(range(10)) * 200)
        tracemalloc.start()
        try:
            rc = main(["train", "--task", "idx", "--init", "pca",
                       "--images", str(paths[0]), "--labels", str(paths[1]),
                       "--d", "3", "--m", "20", "--sets-per-class", "2",
                       "--epochs", "1", "--model-out", str(tmp_path / "m.bin")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert peak < images.size * 8

    @pytest.mark.parametrize("init", ["example", "pca"])
    def test_sets_train_holds_no_float64_copy_of_the_frames(self, tmp_path, init):
        # 8 classes of 4 sets of 40 30x30 frames: one float64 copy of them
        # all is 8.3 MB, a class's 1 MB
        assert main(["synth", "--out", str(tmp_path / "data"), "--classes", "8",
                     "--ambient", "900", "--width", "30", "--height", "30",
                     "--dim", "2", "--frames", "40", "--train-sets", "4",
                     "--test-sets", "1", "--seed", "4"]) == 0
        tracemalloc.start()
        try:
            rc = main(["train", "--data", str(tmp_path / "data" / "train"),
                       "--d", "2", "--init", init, "--epochs", "1",
                       "--model-out", str(tmp_path / "m.bin")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert peak < 8 * 4 * 40 * 900 * 8

    def test_sets_pca_train_holds_one_copy_of_the_frames(self, tmp_path, monkeypatch):
        # 4 classes of 4 sets of 30 30x30 frames: 432 KB of uint8 pixels
        frames = 4 * 4 * 30 * 900
        assert main(["synth", "--out", str(tmp_path / "data"), "--classes", "4",
                     "--ambient", "900", "--width", "30", "--height", "30",
                     "--dim", "2", "--frames", "30", "--train-sets", "4",
                     "--test-sets", "1", "--seed", "6"]) == 0
        step, traced = model_module.train_step, {}

        def train(init):
            assert main(["train", "--data", str(tmp_path / "data" / "train"),
                         "--d", "2", "--init", init, "--epochs", "1",
                         "--model-out", str(tmp_path / "m.bin")]) == 0

        def first_step(*args):
            traced.setdefault(init, tracemalloc.get_traced_memory()[0])
            return step(*args)

        train("pca")  # untraced: modules the pca path imports on first use
        monkeypatch.setattr(model_module, "train_step", first_step)
        for init in ("example", "pca"):
            tracemalloc.start()
            try:
                train(init)
            finally:
                tracemalloc.stop()
        # the pca run's class matrices read one copy of the frames for every
        # epoch; the example run holds none
        assert traced["pca"] - traced["example"] < 1.5 * frames

    def test_sets_pca_folds_hold_one_copy_of_the_frames(self, tmp_path, monkeypatch):
        # 4 classes of 4 sets of 30 30x30 frames: 432 KB of uint8 pixels
        frames = 4 * 4 * 30 * 900
        assert main(["synth", "--out", str(tmp_path / "data"), "--classes", "4",
                     "--ambient", "900", "--width", "30", "--height", "30",
                     "--dim", "2", "--frames", "30", "--train-sets", "4",
                     "--test-sets", "1", "--seed", "6"]) == 0
        fit, step, traced = cli_module.fit, model_module.train_step, {}

        def train(init):
            assert main(["train", "--data", str(tmp_path / "data" / "train"),
                         "--d", "2", "--init", init, "--epochs", "1",
                         "--folds", "2", "--model-out", str(tmp_path / "m.bin")]) == 0

        def each_fit(*args, **kwargs):
            traced[init].append(None)  # filled by the fit's first step
            return fit(*args, **kwargs)

        def first_step(*args):
            if traced[init][-1] is None:
                traced[init][-1] = tracemalloc.get_traced_memory()[0]
            return step(*args)

        train("pca")  # untraced: modules the pca path imports on first use
        monkeypatch.setattr(cli_module, "fit", each_fit)
        monkeypatch.setattr(model_module, "train_step", first_step)
        for init in ("example", "pca"):
            traced[init] = []
            tracemalloc.start()
            try:
                train(init)
            finally:
                tracemalloc.stop()
        # two folds, then the final fit: each pca fit gathers its class
        # matrices from the sets themselves, with no joined copy of the
        # kept frames beside them
        assert len(traced["pca"]) == len(traced["example"]) == 3
        for pca, example in zip(traced["pca"], traced["example"]):
            assert pca - example < 1.25 * frames

    def test_repeats_without_folds(self, workspace, tmp_path, capsys):
        _, data, model, _ = workspace
        out = tmp_path / "m.bin"
        rc = main(["train", "--data", str(data / "train"), "--d", "2",
                   "--epochs", "8", "--seed", "1", "--repeats", "2",
                   "--model-out", str(out)])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("run=1 seed=1 train_accuracy=")
        # the saved model still comes from the base seed
        assert out.read_bytes() == model.read_bytes()

    def test_repeats_trains_each_seed_once(self, workspace, tmp_path,
                                           monkeypatch, capsys):
        _, data, _, _ = workspace
        seeds = []

        def counting_fit(dataset, config, **kwargs):
            seeds.append(config.seed)
            return fit(dataset, config, **kwargs)

        monkeypatch.setattr(cli, "fit", counting_fit)
        rc = main(["train", "--data", str(data / "train"), "--d", "2",
                   "--epochs", "2", "--seed", "5", "--repeats", "3",
                   "--model-out", str(tmp_path / "m.bin")])
        assert rc == 0
        assert seeds == [5, 6, 7]
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(" train_accuracy=")[0] for line in lines] == \
            ["run=1 seed=5", "run=2 seed=6", "run=3 seed=7"]

    @pytest.mark.parametrize("key", sorted(TRAIN_DEFAULTS))
    def test_config_value_resolves_like_its_flag(self, key, workspace,
                                                 tmp_path):
        _, data, _, _ = workspace
        value, extra = CONFIG_KEY_CASES[key]
        # --data serves the sets task, --images/--labels the idx task; each
        # run gives the flags of the task it resolves to, never both
        idx = key == "task" or "--task" in extra
        inputs = _idx_flags(tmp_path) if idx else ["--data", str(data / "train")]
        argv = ["train", *inputs, "--model-out", str(tmp_path / "m.bin"), *extra]
        if key != "epochs":
            argv += ["--epochs", "1"]
        config = tmp_path / "run.conf"
        config.write_text(f"{key} = {value}\n")
        summaries = tmp_path / "file.txt", tmp_path / "flag.txt"
        assert main(argv + ["--config", str(config),
                            "--summary-out", str(summaries[0])]) == 0
        assert main(argv + [f"--{key.replace('_', '-')}", value,
                            "--summary-out", str(summaries[1])]) == 0
        text = summaries[0].read_text()
        assert text == summaries[1].read_text()
        assert f"{key} = {TRAIN_DEFAULTS[key]}\n" not in text

    def test_summary_lists_resolved_values(self, workspace, tmp_path):
        _, data, _, _ = workspace
        summary = tmp_path / "summary.txt"
        rc = main(["train", "--data", str(data / "train"), "--d", "2",
                   "--epochs", "2", "--model-out", str(tmp_path / "m.bin"),
                   "--summary-out", str(summary)])
        assert rc == 0
        text = summary.read_text()
        assert "d = 2\n" in text
        assert "epochs = 2\n" in text
        assert "mode = grlgq\n" in text

    def test_preset_then_config_then_flags(self, tmp_path):
        # sets of 26 frames of D = 30, so that yaleb's d = 25 fits
        data = tmp_path / "data"
        assert main(["synth", "--out", str(data), "--classes", "2", "--ambient", "30",
                     "--dim", "25", "--frames", "26", "--train-sets", "2",
                     "--test-sets", "1", "--seed", "2"]) == 0
        config = tmp_path / "run.conf"
        config.write_text("d = 24\nepochs = 2\n")

        def summary(*flags):
            out = tmp_path / "summary.txt"
            assert main(["train", "--data", str(data / "train"), "--preset", "yaleb",
                         "--model-out", str(tmp_path / "m.bin"),
                         "--summary-out", str(out), *flags]) == 0
            return dict(line.split(" = ") for line in out.read_text().splitlines())

        keys = ("d", "epochs", "eta", "gamma", "init")
        assert [summary()[k] for k in keys] == ["25", "100", "0.05", "0.0001", "example"]
        assert ([summary("--config", str(config))[k] for k in keys]
                == ["24", "2", "0.05", "0.0001", "example"])
        assert ([summary("--config", str(config), "--d", "23")[k] for k in keys]
                == ["23", "2", "0.05", "0.0001", "example"])

    def test_summary_lists_idx_defaults(self, tmp_path):
        summary = tmp_path / "summary.txt"
        assert main(["train", "--task", "idx", *_idx_flags(tmp_path), "--epochs", "1",
                     "--model-out", str(tmp_path / "m.bin"),
                     "--summary-out", str(summary)]) == 0
        text = summary.read_text()
        assert "m = 20\n" in text and "sets_per_class = 50\n" in text
        assert "samples = 100\n" in text


class TestEval:
    def test_accuracy_line(self, workspace, capsys):
        _, data, model, _ = workspace
        rc = main(["eval", "--model", str(model),
                   "--data", str(data / "test")])
        assert rc == 0
        line = capsys.readouterr().out.strip().splitlines()[-1]
        assert line.startswith("accuracy=")
        acc = float(line.split("=", 1)[1])
        assert 0.0 <= acc <= 1.0

    def test_confusion_csv(self, workspace, tmp_path, capsys):
        _, data, model, _ = workspace
        out = tmp_path / "conf.csv"
        rc = main(["eval", "--model", str(model), "--data", str(data / "test"),
                   "--confusion-out", str(out)])
        assert rc == 0
        acc = float(capsys.readouterr().out.strip().split("=", 1)[1])
        rows = [[int(v) for v in line.split(",")]
                for line in out.read_text().splitlines()]
        mat = np.array(rows)
        assert mat.sum() == 8  # 2 classes x 4 test sets
        assert np.trace(mat) / mat.sum() == acc

    def test_idx_round_trip_matches_in_process(self, tmp_path, capsys):
        # train --task idx, then vector-mode eval of held-out IDX images
        rng = np.random.default_rng(9)
        patterns = rng.uniform(0, 1, (3, 12, 2))
        files = {}
        for split, n in (("train", 30), ("test", 200)):
            labels = rng.integers(0, 3, n)
            pixels = np.einsum("nij,nj->ni", patterns[labels],
                               rng.uniform(0, 1, (n, 2)))
            pixels += 0.1 * rng.uniform(0, 1, (n, 12))
            images = np.rint(np.clip(pixels, 0.01, 1.0) * 255).astype(np.uint8)
            files[split] = (tmp_path / f"{split}-images", tmp_path / f"{split}-labels")
            write_idx_images(files[split][0], list(images.reshape(n, 3, 4)))
            write_idx_labels(files[split][1], labels.tolist())
        model = tmp_path / "idx.bin"
        assert main(["train", "--task", "idx", "--images", str(files["train"][0]),
                     "--labels", str(files["train"][1]), "--d", "2", "--m", "5",
                     "--sets-per-class", "4", "--epochs", "2", "--init", "pca",
                     "--model-out", str(model)]) == 0
        capsys.readouterr()
        assert main(["eval", "--model", str(model), "--images",
                     str(files["test"][0]), "--labels", str(files["test"][1])]) == 0
        line = capsys.readouterr().out.strip().splitlines()[-1]
        images, labels, _, _ = dataio.read_idx_dataset(*files["test"])
        accuracy, _ = evaluate(dataio.load_model(model),
                               list(zip(images, labels)), "vectors")
        assert line == f"accuracy={accuracy!r}"
        assert accuracy > 0.5

    @staticmethod
    def _idx_files(tmp, n):
        """Seeded 3x4 IDX images (no black one) and labels 1 to 3."""
        rng = np.random.default_rng(11)
        paths = tmp / "images.idx", tmp / "labels.idx"
        write_idx_images(paths[0], list(rng.integers(1, 256, (n, 3, 4), np.uint8)))
        write_idx_labels(paths[1], rng.integers(1, 4, n).tolist())
        return paths

    def test_idx_eval_holds_one_block_at_a_time(self, workspace, tmp_path,
                                               monkeypatch, capsys):
        self._eval_in_one_buffer(workspace, tmp_path, monkeypatch, capsys, 3, 2)

    def test_idx_eval_ends_on_a_one_image_block(self, workspace, tmp_path,
                                                monkeypatch, capsys):
        # the last block is a (D, 1, 1) view
        self._eval_in_one_buffer(workspace, tmp_path, monkeypatch, capsys, 2, 1)

    def _eval_in_one_buffer(self, workspace, tmp_path, monkeypatch, capsys,
                            full, rest):
        """eval --images on ``full`` blocks and one of ``rest`` images: each
        block the kernel scores views one (eval_block_size, D) float64
        buffer, no scored block is alive when the kernel gets the next, and
        the output and score table equal evaluate's and scores' bitwise."""
        _, _, model, _ = workspace
        state = dataio.load_model(model)
        block = model_module.eval_block_size(state, "vectors")
        paths = self._idx_files(tmp_path, full * block + rest)
        images, labels, _, _ = dataio.read_idx_dataset(*paths)
        accuracy, confusion = evaluate(state, list(zip(images, labels)), "vectors")
        dataio.write_csv(tmp_path / "want.csv", None, confusion)
        _, blocks = dataio.iter_idx_blocks(paths[0], paths[1], state.ambient_dim, block)
        table = score_blocks(state, blocks, "vectors")
        assert table.tobytes() == scores(state, images, "vectors").tobytes()
        calls = track_kernel_blocks(monkeypatch, owners_die=False)
        tracked, owners = model_module.principal_angles_to_stack, []

        def kept(samples, stack, **kwargs):
            owners.append(samples.base)  # keeps the buffer alive for the checks below
            return tracked(samples, stack, **kwargs)

        # the name score_blocks looks up
        monkeypatch.setattr(model_module, "principal_angles_to_stack", kept)
        capsys.readouterr()
        assert main(["eval", "--model", str(model), "--images", str(paths[0]),
                     "--labels", str(paths[1]),
                     "--confusion-out", str(tmp_path / "got.csv")]) == 0
        assert capsys.readouterr().out == f"accuracy={accuracy!r}\n"
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
        assert calls.shapes == [(12, block, 1)] * full + [(12, rest, 1)]
        calls.all_dead()
        buffer = owners[0]
        assert buffer.shape == (block, 12) and buffer.dtype == np.float64
        assert all(owner is buffer for owner in owners)

    def test_idx_eval_matches_evaluate_without_scores(self, workspace, tmp_path,
                                                      monkeypatch, capsys):
        _, _, model, _ = workspace
        state = dataio.load_model(model)
        paths = self._idx_files(tmp_path, model_module.eval_block_size(state, "vectors") + 5)
        images, labels, _, _ = dataio.read_idx_dataset(*paths)
        accuracy, confusion = evaluate(state, list(zip(images, labels)), "vectors")
        dataio.write_csv(tmp_path / "want.csv", None, confusion)

        def refused(*args):
            raise AssertionError("eval --images called scores")

        monkeypatch.setattr(model_module, "scores", refused)
        monkeypatch.setattr(cli, "scores", refused)
        capsys.readouterr()
        assert main(["eval", "--model", str(model), "--images", str(paths[0]),
                     "--labels", str(paths[1]),
                     "--confusion-out", str(tmp_path / "got.csv")]) == 0
        assert capsys.readouterr().out == f"accuracy={accuracy!r}\n"
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    @pytest.mark.parametrize("chunk", [5, None])
    def test_idx_eval_reads_images_from_a_pipe(self, workspace, tmp_path,
                                               monkeypatch, capsys, chunk):
        """eval --images of a FIFO, read ``chunk`` bytes at a time (None:
        dataio's own chunk), prints and writes what eval of the same bytes in
        a regular file does."""
        _, _, model, _ = workspace
        paths = self._idx_files(tmp_path, 7)
        argv = ["eval", "--model", str(model), "--labels", str(paths[1]), "--images"]
        assert main(argv + [str(paths[0]), "--confusion-out", str(tmp_path / "want.csv")]) == 0
        want = capsys.readouterr()
        if chunk:
            monkeypatch.setattr(dataio, "STREAM_CHUNK", chunk)
        pipe = _fifo(tmp_path, paths[0].read_bytes())
        assert main(argv + [str(pipe), "--confusion-out", str(tmp_path / "got.csv")]) == 0
        assert capsys.readouterr() == want
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_idx_eval_peak_does_not_grow_with_the_images(self, tmp_path, capsys):
        """The traced peak of eval --images on N and on 4N 64x64 images, N
        three blocks of 32, differs by less than one block of uint8 pixels:
        only the labels and the (N, P) score table grow with N. Holding the
        whole payload would add 3N images, 9 blocks."""
        rng = np.random.default_rng(21)
        protos = [Prototype(random_subspace(rng, 4096, 3), label) for label in (1, 2)]
        state = ModelState(protos, np.full(3, 1 / 3), "grlgq", 3, 4096)
        dataio.save_model(state, tmp_path / "m.bin")
        block = model_module.eval_block_size(state, "vectors")
        paths, peaks = (tmp_path / "images.idx", tmp_path / "labels.idx"), []
        for count in (3 * block, 12 * block):
            write_idx_images(paths[0], list(rng.integers(1, 256, (count, 64, 64), np.uint8)))
            write_idx_labels(paths[1], [1, 2] * (count // 2))
            argv = ["eval", "--model", str(tmp_path / "m.bin"), "--images", str(paths[0]),
                    "--labels", str(paths[1])]
            assert main(argv) == 0  # imports and caches, untraced
            tracemalloc.start()
            try:
                assert main(argv) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        capsys.readouterr()
        assert abs(peaks[1] - peaks[0]) < block * 4096, peaks

    def test_piped_image_file_cut_short_beside_a_bad_label_file(self, workspace,
                                                                tmp_path, capsys):
        """The label file is read before the image payload, so a pipe's
        truncation, seen only at its end, comes after the label file's
        error; a regular file's is known from its size, before the labels."""
        _, _, model, _ = workspace
        argv = _idx_cut_short(model, tmp_path, 5, 12 * 4)
        (tmp_path / "labels.idx").write_bytes(struct.pack(">ii", 0x00000803, 5))
        capsys.readouterr()
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"error: TruncatedFile: {tmp_path / 'images.idx'}: expected 60 more bytes, got 48\n")
        pipe = _fifo(tmp_path, (tmp_path / "images.idx").read_bytes())
        argv[argv.index("--images") + 1] = str(pipe)
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"error: BadMagic: {tmp_path / 'labels.idx'}: magic 0x00000803, expected 0x00000801\n")

    def test_set_eval_matches_evaluate_without_it(self, workspace, tmp_path,
                                                  monkeypatch, capsys):
        _, data, model, _ = workspace
        state = dataio.load_model(model)
        sets, _, _ = dataio.read_imageset_dirs(data / "test")
        accuracy, confusion = evaluate(
            state, dataio.build_per_set_subspace_dataset(sets, state.subspace_dim))
        dataio.write_csv(tmp_path / "want.csv", None, confusion)
        # 3 sets per block: the 8 test sets span 3 blocks
        monkeypatch.setattr(model_module, "EVAL_BLOCK_BYTES", 3 * 8 * 12 * 2)
        calls = track_kernel_blocks(monkeypatch)

        def refused(*args):
            raise AssertionError("eval --data called evaluate or scores")

        for module, name in ((model_module, "evaluate"), (model_module, "scores"),
                             (cli, "evaluate")):
            monkeypatch.setattr(module, name, refused)
        capsys.readouterr()
        assert main(["eval", "--model", str(model), "--data", str(data / "test"),
                     "--confusion-out", str(tmp_path / "got.csv")]) == 0
        assert capsys.readouterr().out == f"accuracy={accuracy!r}\n"
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
        assert calls.shapes == [(12, 3, 2), (12, 3, 2), (12, 2, 2)]

    def test_set_eval_scores_with_no_subspace_alive(self, yaleb_tree, monkeypatch):
        data, model = yaleb_tree
        built = []
        build = dataio.subspace_from_set

        def recorded(X, d):
            subspace = build(X, d)
            built.append(weakref.ref(subspace))
            return subspace

        kernel, blocks = model_module.principal_angles_to_stack, []

        def checked(samples, stack):
            alive = [i for i, ref in enumerate(built) if ref() is not None]
            assert not alive, f"subspaces {alive} alive while block {len(blocks)} is scored"
            blocks.append(samples.shape[1])
            return kernel(samples, stack)

        monkeypatch.setattr(dataio, "subspace_from_set", recorded)
        monkeypatch.setattr(model_module, "principal_angles_to_stack", checked)
        assert main(["eval", "--model", str(model), "--data", str(data)]) == 0
        assert blocks == [13, 13, 10] and len(built) == 36

    def test_error_order_follows_the_reads(self, workspace, tmp_path,
                                           monkeypatch, capsys):
        """Set 0 has only black frames and set 4 a truncated frame: a
        block's sets are all read before any is built, so in one block set
        4's read error is reported, and with one set per block set 0's
        build error is; train --data reads every set first."""
        _, data, model, _ = workspace
        root = tmp_path / "tree"
        shutil.copytree(data / "test", root)
        for frame in (root / "class_01" / "set_001").iterdir():
            dataio.write_pgm(frame, np.zeros(FRAME_SHAPE, dtype=np.uint8))
        frame = sorted((root / "class_02" / "set_001").iterdir())[-1]
        frame.write_bytes(frame.read_bytes()[:-1])
        truncated = f"error: TruncatedFile: {frame}: expected 12 pixels, got 11"
        black = ("error: RankDeficient: set 0 (label 1): "
                 "set of 6 columns has numerical rank < 2")
        for argv in (_eval(model, root), ["train", "--data", str(root), "--d", "2",
                                          "--model-out", str(tmp_path / "m.bin")]):
            capsys.readouterr()
            assert main(argv) == 1
            assert capsys.readouterr().err.splitlines() == [truncated]
        monkeypatch.setattr(model_module, "EVAL_BLOCK_BYTES", 8 * 12 * 2)
        assert main(_eval(model, root)) == 1
        assert capsys.readouterr().err.splitlines() == [black]

    def test_missing_model(self, workspace, tmp_path, capsys):
        _, data, _, _ = workspace
        rc = main(["eval", "--model", str(tmp_path / "nope.bin"),
                   "--data", str(data / "test")])
        assert rc == 1
        assert "error: ModelNotFound" in capsys.readouterr().err


# main in a fresh interpreter, which prints whether numpy.ma was imported
_MASKED_PROBE = ("import sys; from grasslvq.cli import main; rc = main(sys.argv[1:]); "
                 "print('numpy.ma' in sys.modules); sys.exit(rc)")


@pytest.mark.parametrize("command", ["eval --images", "eval --data",
                                     "train --task idx", "train --init pca"])
def test_command_imports_no_masked_arrays(command, workspace, tmp_path):
    """numpy.ma, which np.unique and np.union1d import lazily (numpy 2.4),
    adds about 12 ms of import time to a fresh process, and to train about
    1 MB of VmHWM: no command imports it."""
    _, data, model, _ = workspace
    images = TestEval._idx_files(tmp_path, 7)
    argv = {
        "eval --images": ["eval", "--model", model, "--images", images[0],
                          "--labels", images[1]],
        "eval --data": ["eval", "--model", model, "--data", data / "test"],
        "train --task idx": ["train", "--task", "idx", "--d", "2", "--m", "5",
                             "--sets-per-class", "2", "--epochs", "1",
                             *_idx_flags(tmp_path), "--model-out", tmp_path / "m.bin"],
        "train --init pca": ["train", "--data", data / "train", "--d", "2", "--epochs", "1",
                             "--init", "pca", "--model-out", tmp_path / "m.bin"],
    }[command]
    src = os.path.dirname(os.path.dirname(cli.__file__))
    result = subprocess.run([sys.executable, "-c", _MASKED_PROBE, *map(str, argv)],
                            env=dict(os.environ, PYTHONPATH=src),
                            capture_output=True, text=True, check=True)
    assert result.stdout.splitlines()[-1] == "False", result.stdout


class TestPredict:
    def test_set_prediction(self, workspace, capsys):
        _, data, model, _ = workspace
        set_dir = next(iter(sorted((data / "test" / "class_01").iterdir())))
        rc = main(["predict", "--model", str(model), "--set", str(set_dir)])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("label=")
        assert len(out) == 3  # label + one distance line per prototype
        assert all("distance=" in line for line in out[1:])

    def test_single_image_prediction(self, workspace, capsys):
        _, data, model, _ = workspace
        set_dir = next(iter(sorted((data / "test" / "class_01").iterdir())))
        frame = next(iter(sorted(set_dir.glob("*.pgm"))))
        rc = main(["predict", "--model", str(model), "--image", str(frame)])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("label=")
        assert all("theta1=" in line for line in out[1:])

    def test_explain_artifacts(self, workspace, tmp_path, capsys):
        root, data, model, _ = workspace
        set_dir = next(iter(sorted((data / "test" / "class_02").iterdir())))
        out_dir = tmp_path / "explain"
        rc = main(["predict", "--model", str(model), "--set", str(set_dir),
                   "--explain", "--out-dir", str(out_dir)])
        assert rc == 0
        capsys.readouterr()
        assert (out_dir / "influence_angle_1.pgm").is_file()
        assert (out_dir / "influence_angle_2.pgm").is_file()
        # the exported contribution matrix must map the raw frames back onto
        # the principal vectors of the winning comparison
        lines = (out_dir / "image_contribution.csv").read_text().splitlines()
        M = np.array([[float(v) for v in line.split(",")]
                      for line in lines[1:]])
        frames = sorted(set_dir.glob("*.pgm"))
        cols = []
        for frame in frames:
            vec = dataio.read_pgm(frame).astype(np.float64).ravel() / 255.0
            cols.append(vec / np.linalg.norm(vec))
        X = np.column_stack(cols)
        loaded = dataio.load_model(model)
        sample = subspace_from_set(X, loaded.subspace_dim)
        dists = [np.sum(loaded.relevance * principal_decomposition(
                    sample, p.subspace).angles ** 2)
                 for p in loaded.prototypes]
        winner = loaded.prototypes[int(np.argmin(dists))]
        pd = principal_decomposition(sample, winner.subspace)
        assert np.max(np.abs(X @ M - pd.principal_left)) < 1e-6

    def test_missing_inputs(self, workspace, capsys):
        _, _, model, _ = workspace
        rc = main(["predict", "--model", str(model)])
        assert rc == 1
        assert "error: ConfigError" in capsys.readouterr().err

    def test_black_frame_matches_eval_path(self, workspace, tmp_path, capsys):
        # predict --set and eval --data share one frame loader, so a set with
        # an all-black frame gets the same subspace and distances from both
        _, data, model, _ = workspace
        root = tmp_path / "tree"
        set_dir = root / "class_01" / "set_black"
        source = next(iter(sorted((data / "test" / "class_01").iterdir())))
        shutil.copytree(source, set_dir)
        dataio.write_pgm(set_dir / "zz_black.pgm", np.zeros(FRAME_SHAPE, np.uint8))
        capsys.readouterr()
        rc = main(["predict", "--model", str(model), "--set", str(set_dir)])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        loaded = dataio.load_model(model)
        sets, _, _ = dataio.read_imageset_dirs(root)
        [(sample, _)] = dataio.build_per_set_subspace_dataset(
            sets, loaded.subspace_dim)
        dists = scores(loaded, [sample], "sets")[0]
        assert out[0] == f"label={loaded.labels[np.argmin(dists)]}"
        assert [float(line.rsplit("=", 1)[1]) for line in out[1:]] == \
            dists.tolist()


class TestInspect:
    def test_relevance_export(self, workspace, tmp_path):
        _, _, model, _ = workspace
        out = tmp_path / "rel.csv"
        assert main(["inspect", "--model", str(model),
                     "--relevance-out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "index,lambda"
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert len(values) == 2
        assert abs(sum(values) - 1.0) < 1e-12
        assert all(v >= 0 for v in values)

    def test_prototype_images(self, workspace, tmp_path):
        _, _, model, _ = workspace
        out = tmp_path / "protos"
        assert main(["inspect", "--model", str(model), "--prototype-dir",
                     str(out), "--width", "4", "--height", "3"]) == 0
        pgms = sorted(p.name for p in out.glob("*.pgm"))
        assert pgms == ["prototype_0_vector_1.pgm", "prototype_0_vector_2.pgm",
                        "prototype_1_vector_1.pgm", "prototype_1_vector_2.pgm"]
        # rescale.txt names every image once and maps it back to its column
        state = dataio.load_model(model)
        lines = (out / "rescale.txt").read_text().splitlines()
        assert lines[0] == "pixel = min + raw/255 * (max - min)"
        entries = [line.split() for line in lines[1:]]
        assert sorted(entry[0] for entry in entries) == pgms
        for name, *fields in entries:
            i, k = (int(t) for t in name[:-4].split("_")[1::2])
            meta = dict(field.split("=") for field in fields)
            lo, hi = float(meta["min"]), float(meta["max"])
            assert int(meta["label"]) == state.labels[i]
            raw = dataio.read_pgm(out / name).ravel().astype(float)
            column = state.stack[i, :, k - 1]
            assert np.max(np.abs(lo + raw / 255 * (hi - lo) - column)) <= (hi - lo) / 510

    def test_distance_matrix(self, workspace, tmp_path):
        _, data, model, _ = workspace
        out = tmp_path / "dist.csv"
        assert main(["inspect", "--model", str(model), "--data",
                     str(data / "test"), "--distance-out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 11  # header + 8 samples + 2 prototypes
        mat = np.array([[float(v) for v in line.split(",")]
                        for line in lines[1:]])
        assert np.allclose(mat, mat.T)

    def test_distance_matrix_streams_its_sets(self, workspace, tmp_path,
                                              monkeypatch):
        _, data, model, _ = workspace

        def whole_tree(root):
            raise AssertionError("inspect read the whole tree at once")

        monkeypatch.setattr(dataio, "read_imageset_dirs", whole_tree)
        out = tmp_path / "dist.csv"
        assert main(["inspect", "--model", str(model), "--data",
                     str(data / "test"), "--distance-out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 11

    def test_distance_matrix_holds_one_stack(self, yaleb_tree, tmp_path,
                                             monkeypatch):
        data, model = yaleb_tree
        # one set per block, so the blocks add no more than one set at a time
        monkeypatch.setattr(model_module, "EVAL_BLOCK_BYTES", 400 * 25 * 8)
        stack_bytes = 400 * (36 + 3) * 25 * 8
        out = tmp_path / "dist.csv"
        tracemalloc.start()
        try:
            rc = main(["inspect", "--model", str(model), "--data", str(data),
                       "--distance-out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert len(out.read_text().splitlines()) == 1 + 36 + 3
        assert peak < 1.5 * stack_bytes, peak / stack_bytes


def _black_frames(directory, count):
    directory.mkdir(parents=True, exist_ok=True)
    for i in range(count):
        dataio.write_pgm(directory / f"frame_{i}.pgm",
                         np.zeros(FRAME_SHAPE, dtype=np.uint8))
    return directory


def _small_frames(directory, count):
    """Frames of 3x3 = 9 pixels, against the workspace model's D = 12."""
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(0)
    for i in range(count):
        dataio.write_pgm(directory / f"frame_{i}.pgm",
                         rng.integers(1, 256, (3, 3), dtype=np.uint8))
    return directory


def _eval(model, data_root):
    return ["eval", "--model", str(model), "--data", str(data_root)]


def _idx_eval(model, tmp, black, shape=(3, 4)):
    """eval --images of three images of ``shape`` whose image ``black`` is
    all zero."""
    images = [np.full(shape, 40 + i, dtype=np.uint8) for i in range(3)]
    images[black][:] = 0
    paths = tmp / "images.idx", tmp / "labels.idx"
    write_idx_images(paths[0], images)
    write_idx_labels(paths[1], [1, 2, 1])
    return ["eval", "--model", str(model), "--images", str(paths[0]),
            "--labels", str(paths[1])]


def _predict_pgm(model, tmp, content):
    """predict --image of a file holding ``content``."""
    path = tmp / "frame.pgm"
    path.write_bytes(content)
    return ["predict", "--model", str(model), "--image", str(path)]


def _raw_idx_eval(model, tmp, image_sizes, label_count, pixels=36):
    """eval --images/--labels of IDX files with the given size fields, ``pixels``
    nonzero image bytes and three label bytes."""
    paths = tmp / "images.idx", tmp / "labels.idx"
    paths[0].write_bytes(struct.pack(">iiii", 0x00000803, *image_sizes)
                         + b"\x07" * pixels)
    paths[1].write_bytes(struct.pack(">ii", 0x00000801, label_count) + bytes([1, 2, 1]))
    return ["eval", "--model", str(model), "--images", str(paths[0]),
            "--labels", str(paths[1])]


def _fifo(tmp, content):
    """A FIFO in ``tmp`` that a daemon thread fills with ``content`` and
    closes once a reader opens it."""
    path = tmp / "pipe"
    os.mkfifo(path)

    def write():
        with open(path, "wb") as f:
            f.write(content)

    threading.Thread(target=write, daemon=True).start()
    return path


def _piped_idx_eval(model, tmp, image_sizes):
    """``_raw_idx_eval`` with the image file's bytes read from a FIFO."""
    argv = _raw_idx_eval(model, tmp, image_sizes, 3)
    argv[argv.index("--images") + 1] = str(_fifo(tmp, (tmp / "images.idx").read_bytes()))
    return argv


# 3x4 images per eval --images block against the workspace model (D = 12)
IDX_BLOCK = model_module.EVAL_BLOCK_BYTES // (8 * 12)


def _idx_cut_short(model, tmp, count, kept, piped=False):
    """eval --images of a header of ``count`` 3x4 images and ``kept`` of
    their pixel bytes, from a regular file or, ``piped``, a FIFO, with
    ``count`` labels."""
    paths = tmp / "images.idx", tmp / "labels.idx"
    paths[0].write_bytes(struct.pack(">iiii", 0x00000803, count, 3, 4) + b"\x07" * kept)
    write_idx_labels(paths[1], [1, 2] * (count // 2) + [1] * (count % 2))
    images = _fifo(tmp, paths[0].read_bytes()) if piped else paths[0]
    return ["eval", "--model", str(model), "--images", str(images),
            "--labels", str(paths[1])]


def _with_bytes_after(model, tmp, extra):
    """inspect --relevance-out of ``model``'s file with ``extra`` after its CRC."""
    path = tmp / "joined.bin"
    path.write_bytes(model.read_bytes() + extra)
    return ["inspect", "--model", str(path), "--relevance-out", str(tmp / "r.csv")]


def _synth_twice(tmp):
    """synth into the tree a first synth with other flags wrote."""
    assert main(_synth(tmp, "--train-sets", "5", "--frames", "8", "--seed", "1")) == 0
    return _synth(tmp, "--train-sets", "3", "--frames", "4", "--seed", "2")


def _with_header(data, model, tmp, header):
    raw = model.read_bytes()
    bad = tmp / "bad.bin"
    bad.write_bytes(header + raw[raw.index(b"\n"):])
    return _eval(bad, data / "test")


def _resealed(tmp, header, values):
    """A model file of ``header`` and float64 ``values`` whose checksum
    matches: a v2 checksum covers every byte before it, a v1 one the payload."""
    payload = np.asarray(values, dtype="<f8").tobytes()
    body = header + b"\n" + struct.pack("<Q", len(payload) // 8) + payload
    covered = payload if header.startswith(b"GRASSLVQ v1 ") else body
    bad = tmp / "bad.bin"
    bad.write_bytes(body + struct.pack("<I", zlib.crc32(covered)))
    return bad


def _relabeled(tmp):
    """eval --data of a three-class tree against its model, whose header
    field labels=1,2,3 is edited in place to labels=3,1,2."""
    data, model = tmp / "three", tmp / "three.bin"
    assert main(["synth", "--out", str(data), "--classes", "3", "--ambient", "30",
                 "--dim", "3", "--train-sets", "4", "--test-sets", "3",
                 "--frames", "8", "--seed", "1"]) == 0
    assert main(["train", "--data", str(data / "train"), "--d", "3", "--epochs", "1",
                 "--model-out", str(model)]) == 0
    raw = model.read_bytes()
    assert raw.count(b" labels=1,2,3\n") == 1
    model.write_bytes(raw.replace(b" labels=1,2,3\n", b" labels=3,1,2\n"))
    return _eval(model, data / "test")


def _with_header_label(model, tmp, label):
    """``model`` resealed with its last label set to ``label``."""
    header, rest = model.read_bytes().split(b"\n", 1)
    header = header[:header.rindex(b",") + 1] + str(label).encode()
    return _resealed(tmp, header, np.frombuffer(rest[8:-4], dtype="<f8"))


def _with_relevance(model, tmp, tail):
    """``model`` resealed with its last relevance weights set to ``tail``."""
    header, rest = model.read_bytes().split(b"\n", 1)
    values = np.frombuffer(rest[8:-4], dtype="<f8").copy()
    values[-len(tail):] = tail
    return _resealed(tmp, header, values)


def _encoded(text):
    return text if isinstance(text, bytes) else text.encode()


def _manifest_copy(data, tmp, split, text):
    """tmp, holding a copy of data/<split> whose labels.txt reads ``text``."""
    shutil.copytree(data / split, tmp / split)
    (tmp / split / "labels.txt").write_bytes(_encoded(text))
    return tmp


def _manifest_directory(data, tmp):
    """A copy of data/test whose labels.txt is an empty directory."""
    shutil.copytree(data / "test", tmp / "test")
    (tmp / "test" / "labels.txt").mkdir()
    return tmp / "test"


def _with_manifest(data, model, tmp, text):
    return _eval(model, _manifest_copy(data, tmp, "test", text) / "test")


def _predict_image(data, model, *flags):
    frame = data / "test" / "class_01" / "set_001" / "frame_001.pgm"
    return ["predict", "--model", str(model), "--image", str(frame), *flags]


def _train(data, tmp, *flags):
    return ["train", "--data", str(data / "train"), "--epochs", "1",
            "--model-out", str(tmp / "m.bin"), *flags]


def _train_idx(tmp, *flags, same_class_1=False):
    """train --task idx on the images of ``_idx_flags``."""
    return ["train", "--task", "idx", *_idx_flags(tmp, same_class_1), "--epochs", "1",
            "--model-out", str(tmp / "m.bin"), *flags]


def _with_config(data, tmp, text):
    config = tmp / "run.conf"
    config.write_bytes(_encoded(text))
    return _train(data, tmp, "--config", str(config))


def _late_truncated_frame(data, model, tmp):
    """eval --data of the test tree whose last set's last frame is cut short."""
    root = tmp / "tree"
    shutil.copytree(data / "test", root)
    frame = sorted(root.glob("*/*/*.pgm"))[-1]
    frame.write_bytes(frame.read_bytes()[:-1])
    return _eval(model, root)


def _late_black_image(model, tmp, count):
    """eval --images of ``count`` 3x4 images whose last one is all black."""
    images = np.full((count, 3, 4), 40, dtype=np.uint8)
    images[-1] = 0
    paths = tmp / "images.idx", tmp / "labels.idx"
    write_idx_images(paths[0], list(images))
    write_idx_labels(paths[1], [1, 2] * (count // 2) + [1] * (count % 2))
    return ["eval", "--model", str(model), "--images", str(paths[0]),
            "--labels", str(paths[1])]


def _idx_cut_in_header(model, tmp):
    """eval --images of an IDX image file that ends 6 bytes into its 16-byte
    header."""
    argv = _raw_idx_eval(model, tmp, (3, 3, 4), 3)
    (tmp / "images.idx").write_bytes(struct.pack(">ii", 0x00000803, 3)[:6])
    return argv


def _header_only(data, model, tmp):
    """eval --data with ``model``'s header line alone."""
    bad = tmp / "bad.bin"
    bad.write_bytes(model.read_bytes().split(b"\n")[0] + b"\n")
    return _eval(bad, data / "test")


def _synth(tmp, *flags):
    return ["synth", "--out", str(tmp / "synth"), *flags]


def _small_tree_cut_late(tmp):
    """root/c1 holding two sets of four 3x3 frames; the second set's last
    frame is cut short."""
    root = tmp / "root"
    _small_frames(root / "c1" / "s1", 4)
    frame = sorted(_small_frames(root / "c1" / "s2", 4).glob("*.pgm"))[-1]
    frame.write_bytes(frame.read_bytes()[:-1])
    return root


# case -> (error category, detail fragment, argv from (data, model, tmp dir))
MALFORMED_INPUTS = {
    "black-image": ("RankDeficient", "rank 0 < 1", lambda data, model, tmp: [
        "predict", "--model", str(model), "--image",
        str(_black_frames(tmp / "img", 1) / "frame_0.pgm")]),
    "black-set": ("RankDeficient", "rank", lambda data, model, tmp: [
        "predict", "--model", str(model),
        "--set", str(_black_frames(tmp / "set", 3))]),
    "black-eval-image": (
        "RankDeficient", "image 1 is all black (rank 0 < 1)",
        lambda data, model, tmp: _idx_eval(model, tmp, black=1)),
    "empty-predict-set": ("EmptySet", "no .pgm frames", lambda data, model, tmp: [
        "predict", "--model", str(model),
        "--set", str(_black_frames(tmp / "set", 0))]),
    "idx-negative-dims": (
        "UnsupportedFormat", "negative size field in [-1, -28, 28]",
        lambda data, model, tmp: _raw_idx_eval(model, tmp, (-1, -28, 28), 3, pixels=784)),
    "idx-sizes-beyond-file": (
        "TruncatedFile", f"expected {(2 ** 31 - 1) ** 3} more bytes, got 36",
        lambda data, model, tmp: _raw_idx_eval(model, tmp, (2 ** 31 - 1,) * 3, 3)),
    # a pipe has no size to check the header against before the payload
    "idx-piped-sizes-beyond-stream": (
        "TruncatedFile", f"pipe: expected {(2 ** 31 - 1) ** 3} more bytes, got 36",
        lambda data, model, tmp: _piped_idx_eval(model, tmp, (2 ** 31 - 1,) * 3)),
    "idx-piped-petabyte-header": (
        "TruncatedFile", f"pipe: expected {2 ** 50} more bytes, got 36",
        lambda data, model, tmp: _piped_idx_eval(model, tmp, (2 ** 20, 2 ** 20, 2 ** 10))),
    # the image payload is read a block at a time: both truncations name the
    # whole payload's bytes and every byte read
    "idx-cut-in-last-block": (
        "TruncatedFile", f"images.idx: expected {12 * (2 * IDX_BLOCK + 5)} more bytes, "
        f"got {12 * (2 * IDX_BLOCK + 5) - 7}",
        lambda data, model, tmp: _idx_cut_short(model, tmp, 2 * IDX_BLOCK + 5,
                                                12 * (2 * IDX_BLOCK + 5) - 7)),
    "idx-piped-cut-after-first-block": (
        "TruncatedFile", f"pipe: expected {12 * (2 * IDX_BLOCK + 5)} more bytes, "
        f"got {12 * IDX_BLOCK}",
        lambda data, model, tmp: _idx_cut_short(model, tmp, 2 * IDX_BLOCK + 5,
                                                12 * IDX_BLOCK, piped=True)),
    # a black image ranks above a pixel count other than the model's D = 12
    "idx-black-image-and-wrong-d": (
        "RankDeficient", "images.idx: image 1 is all black (rank 0 < 1)",
        lambda data, model, tmp: _idx_eval(model, tmp, black=1, shape=(3, 5))),
    "idx-no-images": (
        "EmptySet", "images.idx: no images",
        lambda data, model, tmp: _raw_idx_eval(model, tmp, (0, 2 ** 31 - 1, 2 ** 31 - 1), 0)),
    "idx-zero-pixel-images": (
        "UnsupportedFormat", "images.idx: images of 0 x 4 pixels",
        lambda data, model, tmp: _raw_idx_eval(model, tmp, (3, 0, 4), 3)),
    "idx-negative-label-count": (
        "UnsupportedFormat", "labels.idx: negative size field in [-1]",
        lambda data, model, tmp: _raw_idx_eval(model, tmp, (3, 3, 4), -1)),
    # an OS error ends with the path it names, quoted as open() quotes it
    "predict-image-directory": (
        "IsADirectory", "/image.d'", lambda data, model, tmp: [
            "predict", "--model", str(model), "--image",
            str(_black_frames(tmp / "image.d", 0))]),
    "predict-image-missing": (
        "FileNotFound", "/missing.pgm'", lambda data, model, tmp: [
            "predict", "--model", str(model), "--image", str(tmp / "missing.pgm")]),
    "train-config-directory": (
        "IsADirectory", "/run.d'", lambda data, model, tmp: _train(
            data, tmp, "--config", str(_black_frames(tmp / "run.d", 0)))),
    "pgm-zero-by-huge-frame": (
        "UnsupportedFormat", "image of 0 x 99999999999999999999 pixels",
        lambda data, model, tmp: _predict_pgm(model, tmp, b"P5 0 99999999999999999999 255\n")),
    "header-field-without-equals": (
        "CorruptModel", "malformed header", lambda data, model, tmp: _with_header(
            data, model, tmp, b"GRASSLVQ v1 mode=grlgq D=12 d=2 labels=1,2 x")),
    "header-missing-mode": (
        "CorruptModel", "malformed header", lambda data, model, tmp: _with_header(
            data, model, tmp, b"GRASSLVQ v1 D=12 d=2 labels=1,2")),
    "header-non-integer": (
        "CorruptModel", "malformed header", lambda data, model, tmp: _with_header(
            data, model, tmp, b"GRASSLVQ v1 mode=grlgq D=twelve d=2 labels=1,2")),
    # a header read into a dict keeps the last labels= field: swapped labels, accuracy 0
    "header-repeated-labels": (
        "CorruptModel", "header field 'labels' repeats", lambda data, model, tmp: _with_header(
            data, model, tmp, b"GRASSLVQ v1 mode=grlgq D=12 d=2 labels=1,2 labels=2,1")),
    # the v2 checksum covers the header: labels edited in place, accuracy 0
    "header-labels-edited": ("CorruptModel", "checksum failure",
                             lambda data, model, tmp: _relabeled(tmp)),
    "header-negative-dims": (
        "CorruptModel", "header needs 1 <= d <= D, got D=-2 d=-1",
        lambda data, model, tmp: [
            "inspect", "--model", str(_resealed(
                tmp, b"GRASSLVQ v1 mode=grlgq D=-2 d=-1 labels=1", [0.5])),
            "--relevance-out", str(tmp / "relevance.csv")]),
    # a v1 checksum covers only the payload, so it passes this file
    "v1-header-d-vs-payload": (
        "CorruptModel", "bad.bin: payload size inconsistent with header",
        lambda data, model, tmp: _eval(_resealed(
            tmp, b"GRASSLVQ v1 mode=grlgq D=12 d=3 labels=1,2", [0.5] * 50), data / "test")),
    "nan-relevance": ("CorruptModel", "relevance weights must be nonnegative and finite",
                      lambda data, model, tmp: _eval(
                          _with_relevance(model, tmp, [np.nan]), data / "test")),
    "relevance-off-simplex": (
        "CorruptModel", "grlgq relevance sums to 2.5, not 1 within 1e-12",
        lambda data, model, tmp: _eval(
            _with_relevance(model, tmp, [2.0, 0.5]), data / "test")),
    # argparse parses a config value as its flag; the detail leads with the
    # file and line, and the choice list, whose quoting varies across Python
    # versions, is not asserted
    "config-non-numeric": (
        "ConfigError", "run.conf:1: argument --epochs: invalid int value: 'abc'",
        lambda data, model, tmp: _with_config(data, tmp, "epochs = abc\n")),
    "config-duplicate-key": (
        "ConfigError", "run.conf:2: key 'epochs' repeats line 1",
        lambda data, model, tmp: _with_config(data, tmp, "epochs = 2\nepochs = 3\n")),
    "config-not-utf8": (
        "ConfigError", "run.conf:1: not UTF-8: 'epochs = ",
        lambda data, model, tmp: _with_config(data, tmp, b"epochs = \xff3\n")),
    "config-unknown-key": (
        "ConfigError", "run.conf:2: unknown config key 'foo'",
        lambda data, model, tmp: _with_config(data, tmp, "epochs = 1\nfoo = abc\n")),
    "config-line-without-equals": (
        "ConfigError", "run.conf:1: expected key = value",
        lambda data, model, tmp: _with_config(data, tmp, "epochs 2\n")),
    "config-task-not-a-choice": (
        "ConfigError", "run.conf:1: argument --task: invalid choice: 'IDX'",
        lambda data, model, tmp: _with_config(data, tmp, "task = IDX\n")),
    "config-init-not-a-choice": (
        "ConfigError", "run.conf:1: argument --init: invalid choice: 'nope'",
        lambda data, model, tmp: _with_config(data, tmp, "init = nope\n")),
    "config-mode-not-a-choice": (
        "ConfigError", "run.conf:1: argument --mode: invalid choice: 'nope'",
        lambda data, model, tmp: _with_config(data, tmp, "mode = nope\n")),
    "epochs-zero": ("ConfigError", "epochs must be positive",
                    lambda data, model, tmp: _train(data, tmp, "--epochs", "0")),
    "eta-nan": ("ConfigError", "eta must be positive and finite, got nan",
                lambda data, model, tmp: _train(data, tmp, "--eta", "nan")),
    "eta-overflow": ("RankDeficient", "rank deficient",
                     lambda data, model, tmp: _train(
                         data, tmp, "--mode", "glgq", "--gamma", "0", "--eta", "1e200")),
    "eta-inf": ("ConfigError", "eta must be positive and finite, got inf",
                lambda data, model, tmp: _train(data, tmp, "--eta", "inf")),
    "gamma-nan": ("ConfigError", "gamma must be nonnegative and finite, got nan",
                  lambda data, model, tmp: _train(data, tmp, "--gamma", "nan")),
    "config-gamma-inf": (
        "ConfigError", "gamma must be nonnegative and finite, got inf",
        lambda data, model, tmp: _with_config(data, tmp, "gamma = inf\n")),
    "seed-negative": ("ConfigError", "seed must be nonnegative, got -1",
                      lambda data, model, tmp: _train(data, tmp, "--seed", "-1")),
    "m-negative": ("ConfigError", "m must be at least 1, got -5",
                   lambda data, model, tmp: _train_idx(tmp, "--m", "-5")),
    "m-zero": ("ConfigError", "m must be at least 1, got 0",
               lambda data, model, tmp: _train_idx(tmp, "--m", "0")),
    "sets-per-class-zero": (
        "ConfigError", "sets_per_class must be at least 1, got 0",
        lambda data, model, tmp: _train_idx(tmp, "--sets-per-class", "0")),
    "sets-task-with-idx-keys": (
        "ConfigError", "m applies only to the idx task, not task = sets",
        lambda data, model, tmp: _train(data, tmp, "--m", "5", "--sets-per-class", "3")),
    "config-sets-task-with-sets-per-class": (
        "ConfigError", "sets_per_class applies only to the idx task, not task = sets",
        lambda data, model, tmp: _with_config(data, tmp, "sets_per_class = 3\n")),
    "prototypes-per-class-zero": (
        "ConfigError", "prototypes_per_class must be at least 1, got 0",
        lambda data, model, tmp: _train(data, tmp, "--prototypes-per-class", "0")),
    "repeats-negative": ("ConfigError", "--repeats must be at least 1, got -1",
                         lambda data, model, tmp: _train(
                             data, tmp, "--folds", "2", "--repeats", "-1")),
    "repeats-zero": ("ConfigError", "--repeats must be at least 1, got 0",
                     lambda data, model, tmp: _train(data, tmp, "--repeats", "0")),
    "folds-zero": ("ConfigError", "--folds must be in [2, 10]",
                   lambda data, model, tmp: _train(data, tmp, "--folds", "0")),
    "synth-fewer-frames-than-dim": (
        "ConfigError", "frames=1 must be >= dim=2",
        lambda data, model, tmp: _synth(tmp, "--frames", "1", "--dim", "2")),
    "synth-one-class": ("ConfigError", "need at least 2 classes",
                        lambda data, model, tmp: _synth(tmp, "--classes", "1")),
    "synth-width-without-height": (
        "ConfigError", "width and height must be given together",
        lambda data, model, tmp: _synth(tmp, "--width", "20")),
    "synth-negative-frame-size": (
        "ConfigError", "width -4 x height -5 must be positive",
        lambda data, model, tmp: _synth(tmp, "--width", "-4", "--height", "-5")),
    "synth-seed-negative": ("ConfigError", "seed must be nonnegative, got -1",
                            lambda data, model, tmp: _synth(tmp, "--seed", "-1")),
    "synth-dim-zero": ("ConfigError", "dim=0 must be in [1, ambient=20]",
                       lambda data, model, tmp: _synth(tmp, "--dim", "0")),
    "synth-dim-above-ambient": (
        "ConfigError", "dim=21 must be in [1, ambient=20]",
        lambda data, model, tmp: _synth(tmp, "--dim", "21", "--frames", "21")),
    "synth-noise-nan": ("ConfigError", "noise must be nonnegative and finite, got nan",
                        lambda data, model, tmp: _synth(tmp, "--noise", "nan")),
    "synth-noise-negative": (
        "ConfigError", "noise must be nonnegative and finite, got -0.1",
        lambda data, model, tmp: _synth(tmp, "--noise", "-0.1")),
    "synth-into-used-out": ("ConfigError", "train already exists",
                            lambda data, model, tmp: _synth_twice(tmp)),
    "synth-train-sets-negative": (
        "ConfigError", "train_sets=-1",
        lambda data, model, tmp: _synth(tmp, "--train-sets", "-1")),
    "d-above-frames": ("InsufficientImages", "set 0 (label 1): 6 frames < d=7",
                       lambda data, model, tmp: _train(data, tmp, "--d", "7")),
    "d-below-one": ("ConfigError", "d must be at least 1, got 0",
                    lambda data, model, tmp: _train(data, tmp, "--d", "0")),
    # d is checked before the tree is opened
    "d-zero": ("ConfigError", "d must be at least 1, got 0", lambda data, model, tmp: [
        "train", "--data", str(tmp / "missing"), "--d", "0",
        "--model-out", str(tmp / "m.bin")]),
    "d-above-ambient": ("ConfigError", "D = 12",
                        lambda data, model, tmp: _train(data, tmp, "--d", "13")),
    "idx-m-below-d": ("InsufficientImages", "m=5", lambda data, model, tmp: _train_idx(
        tmp, "--m", "5", "--d", "12")),
    "idx-class-of-identical-images": (
        "RankDeficient", "set 0 (label 1): set of 20 columns has numerical rank < 2",
        lambda data, model, tmp: _train_idx(
            tmp, "--d", "2", same_class_1=True)),
    "idx-d-above-ambient": ("ConfigError", "D = 12", lambda data, model, tmp: _train_idx(
        tmp, "--m", "5", "--d", "13")),
    "manifest-one-field": ("ConfigError", "labels.txt:2", lambda data, model, tmp:
                           _with_manifest(data, model, tmp, "class_01 1\nclass_02\n")),
    "manifest-non-integer": ("ConfigError", "labels.txt:1", lambda data, model, tmp:
                             _with_manifest(data, model, tmp, "class_01 one\n")),
    "manifest-unknown-class": (
        "ConfigError", "labels.txt:3: 'class_zz' names no class directory",
        lambda data, model, tmp: _with_manifest(
            data, model, tmp, "class_01 1\nclass_02 2\nclass_zz 7\n")),
    "manifest-duplicate-class": (
        "ConfigError", "labels.txt:3: 'class_01' repeats line 1",
        lambda data, model, tmp: _with_manifest(
            data, model, tmp, "class_01 1\nclass_02 2\nclass_01 2\n")),
    "manifest-not-utf8": (
        "ConfigError", "labels.txt:3: not UTF-8",
        lambda data, model, tmp: _with_manifest(
            data, model, tmp, b"class_01 1\nclass_02 2\n\xff\n")),
    "manifest-label-beyond-int64": (
        "ConfigError", "labels.txt:1: label 9223372036854775808 is outside the int64 range",
        lambda data, model, tmp: _with_manifest(
            data, model, tmp, "class_01 9223372036854775808\nclass_02 2\n")),
    "train-manifest-label-beyond-int64": (
        "ConfigError", "labels.txt:2: label -9223372036854775809 is outside the int64 range",
        lambda data, model, tmp: _train(_manifest_copy(
            data, tmp, "train", "class_01 1\nclass_02 -9223372036854775809\n"), tmp)),
    "manifest-directory": ("ConfigError", "/test/labels.txt: not a regular file",
                           lambda data, model, tmp: _eval(
                               model, _manifest_directory(data, tmp))),
    "manifest-unlisted-class": (
        "ConfigError", "labels.txt: class directory 'class_01' is not listed",
        lambda data, model, tmp: _with_manifest(data, model, tmp, "class_02 1\n")),
    "predict-set-and-image": (
        "ConfigError", "argument --set: not allowed with argument --image",
        lambda data, model, tmp: _predict_image(data, model, "--set", str(tmp))),
    "predict-image-explain": (
        "ConfigError", "--explain and --out-dir apply to --set, not --image",
        lambda data, model, tmp: _predict_image(data, model, "--explain")),
    "predict-image-out-dir": (
        "ConfigError", "--explain and --out-dir apply to --set, not --image",
        lambda data, model, tmp: _predict_image(data, model, "--out-dir", str(tmp))),
    "predict-out-dir-without-explain": (
        "ConfigError", "--out-dir applies only with --explain",
        lambda data, model, tmp: [
            "predict", "--model", str(model), "--set",
            str(data / "test" / "class_01" / "set_001"), "--out-dir", str(tmp / "out")]),
    "predict-without-set-or-image": (
        "ConfigError", "one of the arguments --set --image is required",
        lambda data, model, tmp: ["predict", "--model", str(tmp / "nothere.bin")]),
    # argparse's own failures: one line, status 1, no usage block
    "train-d-not-an-int": ("ConfigError", "argument --d: invalid int value: 'x'",
                           lambda data, model, tmp: ["train", "--d", "x"]),
    "train-preset-not-a-choice": (
        "ConfigError", "argument --preset: invalid choice: 'nope'",
        lambda data, model, tmp: ["train", "--preset", "nope"]),
    "eval-unknown-flag": ("ConfigError", "unrecognized arguments: --bogus",
                          lambda data, model, tmp: ["eval", "--model", "m", "--bogus"]),
    "no-command": ("ConfigError", "the following arguments are required: command",
                   lambda data, model, tmp: []),
    "eval-data-and-images": (
        "ConfigError", "eval takes --data or --images/--labels, not both",
        lambda data, model, tmp: _eval(model, data / "test") + [
            "--images", str(tmp / "images.idx")]),
    "image-size-vs-model": (
        "InconsistentDims", "D = 9 pixels, prototypes have D = 12",
        lambda data, model, tmp: [
            "predict", "--model", str(model), "--image",
            str(_small_frames(tmp / "img", 1) / "frame_0.pgm")]),
    "set-size-vs-model": (
        "InconsistentDims", "D = 9 pixels, prototypes have D = 12",
        lambda data, model, tmp: [
            "predict", "--model", str(model),
            "--set", str(_small_frames(tmp / "set", 4))]),
    "eval-images-size-vs-model": (
        "InconsistentDims", "D = 9 pixels, prototypes have D = 12",
        lambda data, model, tmp: _raw_idx_eval(model, tmp, (3, 3, 3), 3, pixels=27)),
    "eval-size-vs-model": (
        "InconsistentDims", "D = 9 pixels, prototypes have D = 12",
        lambda data, model, tmp: _eval(
            model, _small_frames(tmp / "root" / "c1" / "s1", 4).parent.parent)),
    "distance-size-vs-model": (
        "InconsistentDims", "D = 9 pixels, prototypes have D = 12",
        lambda data, model, tmp: [
            "inspect", "--model", str(model), "--data",
            str(_small_frames(tmp / "root" / "c1" / "s1", 4).parent.parent),
            "--distance-out", str(tmp / "dist.csv")]),
    # the tree's pixel count is checked against the model's as its first
    # set is read, before a later set's cut frame is reached
    "eval-size-vs-model-first-set": (
        "InconsistentDims", "/c1/s1 has D = 9 pixels, prototypes have D = 12",
        lambda data, model, tmp: _eval(model, _small_tree_cut_late(tmp))),
    "distance-size-vs-model-first-set": (
        "InconsistentDims", "/c1/s1 has D = 9 pixels, prototypes have D = 12",
        lambda data, model, tmp: [
            "inspect", "--model", str(model), "--data", str(_small_tree_cut_late(tmp)),
            "--distance-out", str(tmp / "dist.csv")]),
    "prototype-image-zero-width": (
        "ConfigError", "width 0 x height 20 = 0 pixels, but the model has D = 12",
        lambda data, model, tmp: [
            "inspect", "--model", str(model), "--prototype-dir",
            str(tmp / "protos"), "--width", "0", "--height", "20"]),
    "prototype-image-size": (
        "ConfigError", "width 5 x height 5 = 25 pixels, but the model has D = 12",
        lambda data, model, tmp: [
            "inspect", "--model", str(model), "--prototype-dir",
            str(tmp / "protos"), "--width", "5", "--height", "5"]),
    "prototype-image-negative-size": (
        "ConfigError", "width -3 x height -4 = 12 pixels, but the model has D = 12",
        lambda data, model, tmp: [
            "inspect", "--model", str(model), "--prototype-dir",
            str(tmp / "protos"), "--width", "-3", "--height", "-4"]),
    "data-is-a-file": ("NotADirectory", "model.bin",
                       lambda data, model, tmp: _eval(model, model)),
    "eval-late-truncated-frame": (
        "TruncatedFile", "expected 12 pixels, got 11", _late_truncated_frame),
    # more images than one scores block of the D = 12 model (10922)
    "eval-late-black-image": (
        "RankDeficient", "images.idx: image 10999 is all black (rank 0 < 1)",
        lambda data, model, tmp: _late_black_image(model, tmp, 11000)),
    "eval-images-without-labels": (
        "ConfigError", "eval --images requires --labels",
        lambda data, model, tmp: [
            "eval", "--model", str(model), "--images", str(tmp / "images.idx")]),
    "eval-labels-without-images": (
        "ConfigError", "eval --labels requires --images",
        lambda data, model, tmp: [
            "eval", "--model", str(model), "--labels", str(tmp / "labels.idx")]),
    "train-data-and-images": (
        "ConfigError", "train takes --data (sets task) or --images/--labels (idx task), not both",
        lambda data, model, tmp: _train(data, tmp, *_idx_flags(tmp))),
    "train-idx-with-data": (
        "ConfigError", "train takes --data (sets task) or --images/--labels (idx task), not both",
        lambda data, model, tmp: _train_idx(tmp, "--data", str(data / "train"))),
    "inspect-data-without-distance-out": (
        "ConfigError", "--data applies only with --distance-out",
        lambda data, model, tmp: [
            "inspect", "--model", str(model), "--data", str(data / "test")]),
    "inspect-without-export": (
        "ConfigError", "inspect requires --relevance-out, --prototype-dir or --distance-out",
        lambda data, model, tmp: ["inspect", "--model", str(tmp / "nothere.bin")]),
    "inspect-size-without-prototype-dir": (
        "ConfigError", "--width and --height apply only with --prototype-dir",
        lambda data, model, tmp: [
            "inspect", "--model", str(model), "--width", "4", "--height", "3"]),
    "header-label-beyond-int64": (
        "CorruptModel", "header label 9223372036854775808 is outside the int64 range",
        lambda data, model, tmp: _eval(_with_header_label(model, tmp, 2 ** 63), data / "test")),
    "eval-without-data-or-images": (
        "ConfigError", "eval requires --data or --images/--labels",
        lambda data, model, tmp: ["eval", "--model", str(model)]),
    "inspect-prototype-dir-without-size": (
        "ConfigError", "--prototype-dir requires --width and --height",
        lambda data, model, tmp: [
            "inspect", "--model", str(model), "--prototype-dir", str(tmp / "protos")]),
    "inspect-distance-out-without-data": (
        "ConfigError", "--distance-out requires --data",
        lambda data, model, tmp: [
            "inspect", "--model", str(model), "--distance-out", str(tmp / "dist.csv")]),
    "train-idx-task-with-data-only": (
        "ConfigError", "idx task requires --images and --labels",
        lambda data, model, tmp: _train(data, tmp, "--task", "idx")),
    "train-sets-task-without-data": (
        "ConfigError", "sets task requires --data <imageset root>",
        lambda data, model, tmp: ["train", "--epochs", "1",
                                  "--model-out", str(tmp / "m.bin")]),
    "idx-shorter-than-header": ("TruncatedFile", "images.idx: expected 16 more bytes, got 6",
                                lambda data, model, tmp: _idx_cut_in_header(model, tmp)),
    "tree-without-class-directories": ("EmptySet", "no class directories",
                                       lambda data, model, tmp: _eval(
                                           model, _black_frames(tmp / "root", 0))),
    "model-not-grasslvq": (
        "CorruptModel", "unrecognized header", lambda data, model, tmp: _with_header(
            data, model, tmp, b"NOTAMODEL v2 mode=grlgq D=12 d=2 labels=1,2")),
    "model-ends-after-header": ("CorruptModel", "missing length prefix", _header_only),
    "model-bytes-after-checksum": (
        "CorruptModel", "joined.bin: 4 bytes after the checksum",
        lambda data, model, tmp: _with_bytes_after(model, tmp, b"junk")),
    "class-without-sets": ("EmptySet", "no image-set directories",
                           lambda data, model, tmp: _eval(
                               model, _black_frames(tmp / "root" / "c1", 0).parent)),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_malformed_input_exits_with_one_error_line(case, workspace, tmp_path,
                                                   capsys):
    _, data, model, _ = workspace
    category, fragment, build = MALFORMED_INPUTS[case]
    argv = build(data, model, tmp_path)
    capsys.readouterr()
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""  # nothing, not even an accuracy= line, before the error
    lines = captured.err.splitlines()
    assert len(lines) == 1, lines
    assert lines[0].startswith(f"error: {category}: "), lines[0]
    assert fragment in lines[0]
