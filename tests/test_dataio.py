import struct

import numpy as np
import pytest

from grasslvq import dataio
from grasslvq.errors import (
    BadMagic,
    CorruptModel,
    CountMismatch,
    EmptySet,
    InconsistentDims,
    InsufficientImages,
    RankDeficient,
    TruncatedFile,
    UnsupportedFormat,
    VersionMismatch,
)
from grasslvq.model import TrainConfig, evaluate, fit
from helpers import random_subspace, synthetic_subspace_dataset, two_class_model


def write_idx_images(path, arrays):
    n = len(arrays)
    rows, cols = arrays[0].shape
    with open(path, "wb") as f:
        f.write(struct.pack(">iiii", 0x00000803, n, rows, cols))
        for a in arrays:
            f.write(a.astype(np.uint8).tobytes())


def write_idx_labels(path, labels):
    with open(path, "wb") as f:
        f.write(struct.pack(">ii", 0x00000801, len(labels)))
        f.write(bytes(labels))


class TestIdx:
    def test_roundtrip_fixture(self, tmp_path):
        imgs = [np.arange(6, dtype=np.uint8).reshape(2, 3),
                np.full((2, 3), 255, dtype=np.uint8)]
        path = tmp_path / "imgs.idx"
        write_idx_images(path, imgs)
        images, rows, cols = dataio.read_idx_images(path)
        assert (rows, cols) == (2, 3)
        assert images.shape == (2, 6)
        # unit norm after [0,1] scaling
        assert np.allclose(np.linalg.norm(images, axis=1), 1.0, atol=1e-10)
        raw = np.arange(6) / 255.0
        assert np.allclose(images[0], raw / np.linalg.norm(raw))

    def test_labels(self, tmp_path):
        path = tmp_path / "labels.idx"
        write_idx_labels(path, [3, 1, 4])
        assert list(dataio.read_idx_labels(path)) == [3, 1, 4]

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.idx"
        path.write_bytes(struct.pack(">iiii", 0xdead, 1, 2, 2) + b"\x00" * 4)
        with pytest.raises(BadMagic):
            dataio.read_idx_images(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "short.idx"
        path.write_bytes(struct.pack(">iiii", 0x00000803, 2, 2, 2) + b"\x00" * 3)
        with pytest.raises(TruncatedFile):
            dataio.read_idx_images(path)

    def test_count_mismatch(self, tmp_path):
        imgs = tmp_path / "imgs.idx"
        labels = tmp_path / "labels.idx"
        write_idx_images(imgs, [np.zeros((2, 2), dtype=np.uint8) + 1] * 2)
        write_idx_labels(labels, [1, 2, 3])
        with pytest.raises(CountMismatch):
            dataio.read_idx_dataset(imgs, labels)


class TestPgm:
    def test_roundtrip(self, tmp_path):
        img = np.arange(12, dtype=np.uint8).reshape(3, 4)
        path = tmp_path / "a.pgm"
        dataio.write_pgm(path, img)
        assert np.array_equal(dataio.read_pgm(path), img)

    def test_comment_in_header(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# comment\n2 2\n255\n\x00\x01\x02\x03")
        assert dataio.read_pgm(path).tolist() == [[0, 1], [2, 3]]

    def test_unsupported(self, tmp_path):
        path = tmp_path / "p2.pgm"
        path.write_bytes(b"P2\n2 2\n255\n0 1 2 3\n")
        with pytest.raises(UnsupportedFormat):
            dataio.read_pgm(path)

    def test_16bit_rejected(self, tmp_path):
        path = tmp_path / "deep.pgm"
        path.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
        with pytest.raises(UnsupportedFormat):
            dataio.read_pgm(path)

    def test_truncated_pixels(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n2 2\n255\n\x00")
        with pytest.raises(TruncatedFile):
            dataio.read_pgm(path)

    @pytest.mark.parametrize("data, error", [
        (b"P5\n2 2", TruncatedFile),
        (b"P5\n2 2\n# comment without end", TruncatedFile),
        (b"P5\n2 x\n255\n\x00\x01", UnsupportedFormat),
        (b"P5\n-2 -2\n255\n\x00\x01\x02\x03", UnsupportedFormat),
    ])
    def test_malformed_header(self, tmp_path, data, error):
        path = tmp_path / "h.pgm"
        path.write_bytes(data)
        with pytest.raises(error):
            dataio.read_pgm(path)


def build_imageset_fixture(root, classes=2, sets=2, frames=3, shape=(2, 3)):
    rng = np.random.default_rng(0)
    for c in range(classes):
        for s in range(sets):
            set_dir = root / f"class{c + 1}" / f"set{s + 1}"
            set_dir.mkdir(parents=True)
            for f in range(frames):
                img = rng.integers(1, 255, size=shape).astype(np.uint8)
                dataio.write_pgm(set_dir / f"frame{f + 1}.pgm", img)


class TestImagesetDirs:
    def test_fixture_layout(self, tmp_path):
        build_imageset_fixture(tmp_path)
        sets, width, height = dataio.read_imageset_dirs(tmp_path)
        assert len(sets) == 4
        assert (width, height) == (3, 2)
        labels = [label for _, label in sets]
        assert labels == [1, 1, 2, 2]
        for X, _ in sets:
            assert X.shape == (6, 3)
            assert np.allclose(np.linalg.norm(X, axis=0), 1.0, atol=1e-10)

    def test_manifest_overrides_labels(self, tmp_path):
        build_imageset_fixture(tmp_path)
        (tmp_path / "labels.txt").write_text("class1 2\nclass2 1\n")
        sets, _, _ = dataio.read_imageset_dirs(tmp_path)
        assert [label for _, label in sets] == [2, 2, 1, 1]

    def test_inconsistent_dims(self, tmp_path):
        build_imageset_fixture(tmp_path)
        odd = tmp_path / "class1" / "set1" / "frame9.pgm"
        dataio.write_pgm(odd, np.zeros((4, 4), dtype=np.uint8))
        with pytest.raises(InconsistentDims):
            dataio.read_imageset_dirs(tmp_path)

    def test_empty_set(self, tmp_path):
        (tmp_path / "classA" / "setE").mkdir(parents=True)
        with pytest.raises(EmptySet):
            dataio.read_imageset_dirs(tmp_path)

    def test_read_set_black_frame_is_zero_column(self, tmp_path):
        build_imageset_fixture(tmp_path, classes=1, sets=1, frames=2)
        set_dir = tmp_path / "class1" / "set1"
        dataio.write_pgm(set_dir / "frame0.pgm", np.zeros((2, 3), np.uint8))
        X, dims = dataio.read_set(set_dir)
        assert dims == (2, 3)
        assert X.shape == (6, 3)
        # sorted frame order puts the black frame0 first
        assert np.allclose(np.linalg.norm(X, axis=0), [0.0, 1.0, 1.0],
                           atol=1e-12)


class TestSubspaceDatasets:
    def test_classwise_determinism(self):
        rng = np.random.default_rng(1)
        images = rng.random((40, 16))
        images /= np.linalg.norm(images, axis=1)[:, None]
        labels = np.repeat([1, 2], 20)
        a = dataio.build_classwise_subspace_dataset(images, labels, 2, 5, 3, 9)
        b = dataio.build_classwise_subspace_dataset(images, labels, 2, 5, 3, 9)
        assert len(a) == len(b) == 6
        for (fa, la), (fb, lb) in zip(a, b):
            assert la == lb
            assert np.array_equal(fa.basis, fb.basis)

    def test_insufficient_images(self):
        images = np.eye(4)
        labels = np.array([1, 1, 2, 2])
        with pytest.raises(InsufficientImages):
            dataio.build_classwise_subspace_dataset(images, labels, 2, 3, 1, 0)

    def test_per_set_rank_deficient_names_the_set(self, tmp_path):
        X_good = np.eye(5)[:, :3]
        X_bad = np.column_stack([np.eye(5)[:, 0]] * 3)
        with pytest.raises(RankDeficient, match="set 1"):
            dataio.build_per_set_subspace_dataset(
                [(X_good, 1), (X_bad, 2)], 2)

    def test_identical_frames_d1(self):
        frame = np.eye(4)[:, 0]
        X = np.column_stack([frame] * 3)
        dataset = dataio.build_per_set_subspace_dataset([(X, 1)], 1)
        assert np.allclose(np.abs(dataset[0][0].basis[:, 0]), frame)


class TestModelPersistence:
    def _trained_model(self):
        rng = np.random.default_rng(2)
        dataset = synthetic_subspace_dataset(rng, classes=2, D=8, d=2,
                                             per_class=4)
        config = TrainConfig(eta=0.05, gamma=1e-4, epochs=3, seed=5,
                             mode="grlgq")
        model, _ = fit(dataset, config, init="example")
        return model, dataset

    def test_roundtrip_bitwise(self, tmp_path):
        model, dataset = self._trained_model()
        path = tmp_path / "model.bin"
        dataio.save_model(model, path)
        loaded = dataio.load_model(path)
        assert loaded.mode == model.mode
        assert loaded.subspace_dim == model.subspace_dim
        assert loaded.ambient_dim == model.ambient_dim
        assert np.array_equal(loaded.relevance, model.relevance)
        for a, b in zip(model.prototypes, loaded.prototypes):
            assert a.label == b.label
            assert np.array_equal(a.subspace.basis, b.subspace.basis)
        acc_a, _ = evaluate(model, dataset, "sets")
        acc_b, _ = evaluate(loaded, dataset, "sets")
        assert acc_a == acc_b

    def test_truncated_model(self, tmp_path):
        model, _ = self._trained_model()
        path = tmp_path / "model.bin"
        dataio.save_model(model, path)
        data = path.read_bytes()
        path.write_bytes(data[:-10])
        with pytest.raises(CorruptModel):
            dataio.load_model(path)

    def test_checksum_failure(self, tmp_path):
        model, _ = self._trained_model()
        path = tmp_path / "model.bin"
        dataio.save_model(model, path)
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptModel):
            dataio.load_model(path)

    def test_version_mismatch(self, tmp_path):
        model, _ = self._trained_model()
        path = tmp_path / "model.bin"
        dataio.save_model(model, path)
        data = path.read_bytes()
        assert data.startswith(b"GRASSLVQ v1 ")
        path.write_bytes(data.replace(b"GRASSLVQ v1 ", b"GRASSLVQ v2 ", 1))
        with pytest.raises(VersionMismatch):
            dataio.load_model(path)


class TestExporters:
    def test_relevance_csv_glgq(self, tmp_path):
        rng = np.random.default_rng(3)
        model = two_class_model(rng, 6, 3, mode="glgq")
        path = tmp_path / "rel.csv"
        dataio.export_relevance_csv(model, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "index,lambda"
        assert len(lines) == 4
        assert all(line.endswith(",1.0") for line in lines[1:])

    def test_distance_matrix(self, tmp_path):
        rng = np.random.default_rng(4)
        model = two_class_model(rng, 8, 2)
        dataset = [(random_subspace(rng, 8, 2), 1) for _ in range(3)]
        path = tmp_path / "dist.csv"
        dataio.export_distance_matrix_csv(model, dataset, path)
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        assert header == ["sample_1", "sample_2", "sample_3",
                          "prototype_1", "prototype_2"]
        mat = np.array([[float(v) for v in line.split(",")]
                        for line in lines[1:]])
        assert mat.shape == (5, 5)
        assert np.allclose(np.diag(mat), 0.0)
        assert np.max(np.abs(mat - mat.T)) < 1e-10

    def test_prototype_images(self, tmp_path):
        rng = np.random.default_rng(5)
        model = two_class_model(rng, 12, 2)
        out = tmp_path / "protos"
        dataio.export_prototype_images(model, 0, 4, 3, out)
        files = sorted(p.name for p in out.iterdir())
        assert "rescale.txt" in files
        assert "prototype_0_vector_1.pgm" in files
        img = dataio.read_pgm(out / "prototype_0_vector_1.pgm")
        assert img.shape == (3, 4)
        assert img.min() == 0 and img.max() == 255  # full 8-bit range

    def test_influence_map_identity(self, tmp_path):
        from grasslvq import principal_decomposition, pixel_influence
        rng = np.random.default_rng(6)
        p1, p2 = random_subspace(rng, 12, 2), random_subspace(rng, 12, 2)
        pd = principal_decomposition(p1, p2)
        path = tmp_path / "inf.pgm"
        dataio.export_pixel_influence(pd, 0, 4, 3, path)
        img = dataio.read_pgm(path)
        assert img.shape == (3, 4)
        # pre-rescale values satisfy the cosine summation identity
        assert abs(pixel_influence(pd, 0).sum() - pd.cosines[0]) < 1e-10
