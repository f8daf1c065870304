"""End-to-end tests that drive the console entry point via main(argv)."""

import shutil

import numpy as np
import pytest

from grasslvq import (
    cli,
    dataio,
    evaluate,
    fit,
    predict_set,
    principal_decomposition,
    subspace_from_set,
)
from grasslvq.cli import TRAIN_DEFAULTS, main
from helpers import write_idx_images, write_idx_labels


# synth --ambient 12 without --width/--height writes one-row frames
FRAME_SHAPE = (1, 12)


def _idx_flags(tmp):
    """--images/--labels of 40 seeded 3x4 IDX images, 20 per class."""
    rng = np.random.default_rng(5)
    paths = tmp / "train-images.idx", tmp / "train-labels.idx"
    write_idx_images(paths[0], list(rng.integers(1, 256, (40, 3, 4), np.uint8)))
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


class TestSynth:
    def test_deterministic_bytes(self, tmp_path):
        args = ["synth", "--classes", "2", "--ambient", "10", "--dim", "2",
                "--train-sets", "2", "--test-sets", "1", "--frames", "4",
                "--seed", "7"]
        for out in ("a", "b"):
            assert main(args + ["--out", str(tmp_path / out)]) == 0
        assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")

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
        # --data serves the sets task, --images/--labels the idx task
        argv = ["train", "--data", str(data / "train"), *_idx_flags(tmp_path),
                "--model-out", str(tmp_path / "m.bin"), *extra]
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

    def test_threaded_matches_serial(self, workspace, capsys):
        _, data, model, _ = workspace
        main(["eval", "--model", str(model), "--data", str(data / "test")])
        serial = capsys.readouterr().out
        main(["eval", "--model", str(model), "--data", str(data / "test"),
              "--threads", "3"])
        threaded = capsys.readouterr().out
        assert serial == threaded

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

    def test_missing_model(self, workspace, tmp_path, capsys):
        _, data, _, _ = workspace
        rc = main(["eval", "--model", str(tmp_path / "nope.bin"),
                   "--data", str(data / "test")])
        assert rc == 1
        assert "error: ModelNotFound" in capsys.readouterr().err


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
        factors = subspace_from_set(X, loaded.subspace_dim)
        dists = [np.sum(loaded.relevance * principal_decomposition(
                    factors.subspace, p.subspace).angles ** 2)
                 for p in loaded.prototypes]
        winner = loaded.prototypes[int(np.argmin(dists))]
        pd = principal_decomposition(factors.subspace, winner.subspace)
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
        label, dists = predict_set(loaded, sample)
        assert out[0] == f"label={label}"
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


def _idx_eval(model, tmp, black):
    """eval --images of three 3x4 images whose image ``black`` is all zero."""
    images = [np.full((3, 4), 40 + i, dtype=np.uint8) for i in range(3)]
    images[black][:] = 0
    paths = tmp / "images.idx", tmp / "labels.idx"
    write_idx_images(paths[0], images)
    write_idx_labels(paths[1], [1, 2, 1])
    return ["eval", "--model", str(model), "--images", str(paths[0]),
            "--labels", str(paths[1])]


def _with_header(data, model, tmp, header):
    raw = model.read_bytes()
    bad = tmp / "bad.bin"
    bad.write_bytes(header + raw[raw.index(b"\n"):])
    return _eval(bad, data / "test")


def _with_manifest(data, model, tmp, text):
    root = tmp / "tree"
    shutil.copytree(data / "test", root)
    (root / "labels.txt").write_text(text)
    return _eval(model, root)


def _train(data, tmp, *flags):
    return ["train", "--data", str(data / "train"), "--epochs", "1",
            "--model-out", str(tmp / "m.bin"), *flags]


def _with_config(data, tmp, text):
    config = tmp / "run.conf"
    config.write_text(text)
    return _train(data, tmp, "--config", str(config))


def _synth(tmp, *flags):
    return ["synth", "--out", str(tmp / "synth"), *flags]


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
    "header-field-without-equals": (
        "CorruptModel", "malformed header", lambda data, model, tmp: _with_header(
            data, model, tmp, b"GRASSLVQ v1 mode=grlgq D=12 d=2 labels=1,2 x")),
    "header-missing-mode": (
        "CorruptModel", "malformed header", lambda data, model, tmp: _with_header(
            data, model, tmp, b"GRASSLVQ v1 D=12 d=2 labels=1,2")),
    "header-non-integer": (
        "CorruptModel", "malformed header", lambda data, model, tmp: _with_header(
            data, model, tmp, b"GRASSLVQ v1 mode=grlgq D=twelve d=2 labels=1,2")),
    "config-non-numeric": ("ConfigError", "'epochs'", lambda data, model, tmp:
                           _with_config(data, tmp, "epochs = abc\n")),
    "config-task-not-a-choice": (
        "ConfigError", "config key 'task': 'IDX' is not one of idx, sets",
        lambda data, model, tmp: _with_config(data, tmp, "task = IDX\n")),
    "config-init-not-a-choice": (
        "ConfigError", "config key 'init'",
        lambda data, model, tmp: _with_config(data, tmp, "init = nope\n")),
    "config-mode-not-a-choice": (
        "ConfigError", "config key 'mode'",
        lambda data, model, tmp: _with_config(data, tmp, "mode = nope\n")),
    "eta-nan": ("ConfigError", "eta must be positive and finite, got nan",
                lambda data, model, tmp: _train(data, tmp, "--eta", "nan")),
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
                   lambda data, model, tmp: _train(
                       data, tmp, "--task", "idx", *_idx_flags(tmp), "--m", "-5")),
    "m-zero": ("ConfigError", "m must be at least 1, got 0",
               lambda data, model, tmp: _train(
                   data, tmp, "--task", "idx", *_idx_flags(tmp), "--m", "0")),
    "sets-per-class-zero": (
        "ConfigError", "sets_per_class must be at least 1, got 0",
        lambda data, model, tmp: _train(data, tmp, "--task", "idx",
                                        *_idx_flags(tmp), "--sets-per-class", "0")),
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
    "synth-train-sets-negative": (
        "ConfigError", "train_sets=-1",
        lambda data, model, tmp: _synth(tmp, "--train-sets", "-1")),
    "d-above-frames": ("InsufficientImages", "set 0 (label 1): 6 frames < d=7",
                       lambda data, model, tmp: _train(data, tmp, "--d", "7")),
    "d-below-one": ("ConfigError", "d=0",
                    lambda data, model, tmp: _train(data, tmp, "--d", "0")),
    "d-above-ambient": ("ConfigError", "D = 12",
                        lambda data, model, tmp: _train(data, tmp, "--d", "13")),
    "idx-m-below-d": ("InsufficientImages", "m=5", lambda data, model, tmp: _train(
        data, tmp, "--task", "idx", *_idx_flags(tmp), "--m", "5", "--d", "12")),
    "idx-d-above-ambient": ("ConfigError", "D = 12", lambda data, model, tmp: _train(
        data, tmp, "--task", "idx", *_idx_flags(tmp), "--m", "5", "--d", "13")),
    "manifest-one-field": ("ConfigError", "labels.txt:2", lambda data, model, tmp:
                           _with_manifest(data, model, tmp, "class_01 1\nclass_02\n")),
    "manifest-non-integer": ("ConfigError", "labels.txt:1", lambda data, model, tmp:
                             _with_manifest(data, model, tmp, "class_01 one\n")),
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
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1, lines
    assert lines[0].startswith(f"error: {category}: "), lines[0]
    assert fragment in lines[0]
