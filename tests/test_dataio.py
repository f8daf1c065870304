import re
import struct
import tracemalloc
import zlib

import numpy as np
import pytest

from grasslvq import dataio
from grasslvq import manifold
from grasslvq.errors import (
    BadMagic,
    ConfigError,
    CorruptModel,
    CountMismatch,
    EmptySet,
    InconsistentDims,
    InsufficientImages,
    ModelNotFound,
    RankDeficient,
    TruncatedFile,
    UnsupportedFormat,
    VersionMismatch,
)
from grasslvq.manifold import (Subspace, adaptive_squared_distance, principal_decomposition,
                               subspace_from_set)
from grasslvq.model import ModelState, Prototype, TrainConfig, evaluate, fit
from helpers import (
    random_subspace,
    synthetic_subspace_dataset,
    two_class_model,
    write_idx_images,
    write_idx_labels,
)


class TestIdx:
    def test_roundtrip_fixture(self, tmp_path):
        imgs = [np.arange(6, dtype=np.uint8).reshape(2, 3),
                np.full((2, 3), 255, dtype=np.uint8)]
        path = tmp_path / "imgs.idx"
        write_idx_images(path, imgs)
        images, rows, cols = dataio.read_idx_images(path)
        assert (rows, cols) == (2, 3)
        assert images.dtype == np.uint8 and images.shape == (2, 6)
        assert np.array_equal(images, np.stack(imgs).reshape(2, 6))
        # unit norm after unit_columns; the [0, 1] scale is undone by it
        unit = dataio.unit_columns(images.T)
        assert np.allclose(np.linalg.norm(unit, axis=0), 1.0, atol=1e-10)
        raw = np.arange(6) / 255.0
        assert np.allclose(unit[:, 0], raw / np.linalg.norm(raw))

    def test_unit_columns_matches_scaled_form(self):
        pixels = np.random.default_rng(0).integers(0, 256, (50, 784), dtype=np.uint8)
        pixels[7] = 0
        out = dataio.unit_columns(pixels.T).T
        scaled = pixels / 255.0
        norms = np.linalg.norm(scaled, axis=1)
        norms[7] = 1.0
        assert out.dtype == np.float64 and not np.shares_memory(out, pixels)
        assert np.max(np.abs(out - scaled / norms[:, None])) < 1e-15
        assert not out[7].any()

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

    @staticmethod
    def _regular_file(tmp_path, count):
        """(path, (count, 784) pixel rows) of an IDX file of ``count``
        random 28 x 28 images."""
        imgs = np.random.default_rng(4).integers(0, 256, (count, 28, 28), dtype=np.uint8)
        path = tmp_path / "imgs.idx"
        write_idx_images(path, list(imgs))
        return path, imgs.reshape(count, 784)

    def test_regular_file_read_in_one_chunk(self, tmp_path):
        # the payload's one chunk is the array's buffer: no second copy
        path, imgs = self._regular_file(tmp_path, 500)
        tracemalloc.start()
        try:
            images, _, _ = dataio.read_idx_images(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(images, imgs)
        assert peak < 1.5 * imgs.nbytes, (peak, imgs.nbytes)

    @pytest.mark.parametrize("chunk", [dataio.STREAM_CHUNK, 5])
    def test_regular_file_in_chunks(self, tmp_path, monkeypatch, chunk):
        monkeypatch.setattr(dataio, "STREAM_CHUNK", chunk)
        path, imgs = self._regular_file(tmp_path, 3)
        assert np.array_equal(dataio.read_idx_images(path)[0], imgs)
        path.write_bytes(path.read_bytes()[:-7])
        with pytest.raises(TruncatedFile) as info:
            dataio.read_idx_images(path)
        assert str(info.value) == f"{path}: expected {3 * 784} more bytes, got {3 * 784 - 7}"

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


class TestSetFrames:
    """read_set checks every frame's header as read_pgm does, and reads
    every frame whole, whether it is longer or shorter than the one before:
    its pixel bytes are exactly read_pgm's."""

    PLAIN = b"P5\n3 2\n255\n"
    # each longer than PLAIN, so a reader that took every frame's pixels at
    # the first frame's offset would read the wrong bytes
    SPELLINGS = {
        "comment": b"P5\n# scanned 2024\n3 2\n255\n",
        "whitespace": b"P5 \t\n3  2\r\n255 ",
        "zero-padded": b"P5\n0003 00002\n000255\n",
    }

    @staticmethod
    def _set(root, contents):
        """root/set holding frame<i>.pgm of bytes contents[i]."""
        set_dir = root / "set"
        set_dir.mkdir()
        for i, content in enumerate(contents):
            (set_dir / f"frame{i}.pgm").write_bytes(content)
        return set_dir

    @staticmethod
    def _frames(*headers):
        """Each header followed by six random pixels."""
        rng = np.random.default_rng(1)
        return [h + rng.integers(0, 256, 6, dtype=np.uint8).tobytes() for h in headers]

    @staticmethod
    def _assert_reads_as_read_pgm(set_dir):
        X, dims = dataio.read_set(set_dir)
        rows = [dataio.read_pgm(f).reshape(1, -1) for f in sorted(set_dir.glob("*.pgm"))]
        assert dims == dataio.read_pgm(set_dir / "frame0.pgm").shape
        assert X.dtype == np.uint8
        assert X.T.tobytes() == np.concatenate(rows).tobytes()

    @pytest.mark.parametrize("spelling", sorted(SPELLINGS))
    def test_later_header_spellings(self, tmp_path, spelling):
        other = self.SPELLINGS[spelling]
        self._assert_reads_as_read_pgm(self._set(
            tmp_path, self._frames(self.PLAIN, other, other, self.PLAIN, other)))

    def test_first_header_longer_than_later_ones(self, tmp_path):
        self._assert_reads_as_read_pgm(self._set(
            tmp_path, self._frames(self.SPELLINGS["comment"], self.PLAIN, self.PLAIN)))

    @pytest.mark.parametrize("frame, error, detail", [
        (PLAIN + bytes(5), TruncatedFile, "frame1.pgm: expected 6 pixels, got 5"),
        (b"P5\n3 2", TruncatedFile, "frame1.pgm: header ends early"),
        (b"P5\n3 2\n65535\n" + bytes(12), UnsupportedFormat,
         "frame1.pgm: only 8-bit PGM supported (maxval=65535)"),
        (b"P5\n2 3\n255\n" + bytes(6), InconsistentDims,
         "frame1.pgm: (3, 2) differs from (2, 3)"),
    ], ids=["truncated", "header-cut", "16-bit", "other-dims"])
    def test_later_frame_checked(self, tmp_path, frame, error, detail):
        first, last = self._frames(self.PLAIN, self.PLAIN)
        set_dir = self._set(tmp_path, [first, frame, last])
        with pytest.raises(error) as info:
            dataio.read_set(set_dir)
        assert str(info.value) == f"{set_dir}/{detail}"

    def test_set_dir_with_trailing_slash(self, tmp_path):
        # errors name the frame as os.path.join(set_dir, frame) does
        first, last = self._frames(self.PLAIN, self.PLAIN)
        set_dir = self._set(tmp_path, [first, self.PLAIN + bytes(5), last])
        with pytest.raises(TruncatedFile) as info:
            dataio.read_set(f"{set_dir}/")
        assert str(info.value) == f"{set_dir}/frame1.pgm: expected 6 pixels, got 5"

    def test_large_first_frame_read_whole(self, tmp_path):
        # 307 KB of pixels; a set's first frame has no previous size to go by
        rng = np.random.default_rng(2)
        set_dir = tmp_path / "set"
        set_dir.mkdir()
        for i in range(2):
            dataio.write_pgm(set_dir / f"frame{i}.pgm",
                             rng.integers(0, 256, (480, 640), dtype=np.uint8))
        self._assert_reads_as_read_pgm(set_dir)

    def test_os_errors_name_the_frame_path(self, tmp_path):
        # as open() would: the set directory joined with the frame's name
        set_dir = self._set(tmp_path, self._frames(self.PLAIN))
        (set_dir / "frame1.pgm").mkdir()
        with pytest.raises(IsADirectoryError) as info:
            dataio.read_set(set_dir)
        assert str(info.value) == (f"[Errno 21] Is a directory: "
                                   f"'{set_dir / 'frame1.pgm'}'")
        (set_dir / "frame1.pgm").rmdir()
        (set_dir / "frame1.pgm").symlink_to(tmp_path / "gone.pgm")
        with pytest.raises(FileNotFoundError) as info:
            dataio.read_set(set_dir)
        assert str(info.value) == (f"[Errno 2] No such file or directory: "
                                   f"'{set_dir / 'frame1.pgm'}'")


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
        for (X, _), set_dir in zip(sets, sorted(tmp_path.glob("*/*"))):
            # frames stay 8-bit pixels; the build gives them unit norm
            assert X.shape == (6, 3) and X.dtype == np.uint8
            frames = sorted(set_dir.glob("*.pgm"))
            assert np.array_equal(X, np.column_stack([dataio.read_pgm(f).ravel()
                                                      for f in frames]))
            assert np.allclose(np.linalg.norm(dataio.unit_columns(X), axis=0),
                               1.0, atol=1e-10)

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
        assert X.shape == (6, 3) and X.dtype == np.uint8
        # sorted frame order puts the black frame0 first; it stays a zero
        # column when the build normalises the frames
        assert not X[:, 0].any()
        assert np.allclose(np.linalg.norm(dataio.unit_columns(X), axis=0),
                           [0.0, 1.0, 1.0], atol=1e-12)


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

    def test_uint8_pixels_match_normalized_rows(self):
        # draws, per-set builds and class matrices normalise uint8 pixels
        # where they build; unit_columns works row by row on X^T, so the
        # bits are the whole's
        rng = np.random.default_rng(13)
        pixels = rng.integers(0, 256, (60, 49), dtype=np.uint8)
        pixels[7] = 0  # an all-black image stays a zero row
        labels = np.repeat([3, 5, 8], 20)
        unit = dataio.unit_columns(pixels.T).T
        a = dataio.build_classwise_subspace_dataset(pixels, labels, 3, 10, 4, 2)
        b = dataio.build_classwise_subspace_dataset(unit, labels, 3, 10, 4, 2)
        assert len(a) == len(b) == 12
        for (sa, la), (sb, lb) in zip(a, b):
            assert la == lb
            assert np.array_equal(sa.basis, sb.basis)
        lazy = dataio.class_image_matrices(pixels, labels)
        eager = dataio.class_image_matrices(unit, labels)
        assert list(lazy) == list(eager) == [3, 5, 8]
        for label in lazy:
            assert np.array_equal(lazy[label], eager[label])
            assert np.array_equal(eager[label], unit[labels == label].T)
        # D x m sets of frames, one with an all-black frame, which stays a
        # zero column
        frames = [(pixels[i:i + 5].T, labels[i]) for i in range(0, 60, 5)]
        assert not frames[1][0][:, 2].any()
        floats = [(unit[i:i + 5].T, labels[i]) for i in range(0, 60, 5)]
        assert not floats[1][0][:, 2].any()
        a = dataio.build_per_set_subspace_dataset(frames, 3)
        b = dataio.build_per_set_subspace_dataset(floats, 3)
        assert len(a) == len(b) == 12
        for (sa, la), (sb, lb) in zip(a, b):
            assert la == lb
            assert np.array_equal(sa.basis, sb.basis)

    def test_class_matrix_built_only_when_read(self, monkeypatch):
        pixels = np.random.default_rng(14).integers(1, 256, (30, 16), dtype=np.uint8)
        labels = np.repeat([1, 2, 4], 10)
        built, unit = [], dataio.unit_columns
        monkeypatch.setattr(dataio, "unit_columns", lambda X:
                            built.append(X.copy()) or unit(X))
        matrices = dataio.class_image_matrices(pixels, labels)
        assert len(matrices) == 3 and 2 in matrices and 3 not in matrices
        assert built == []
        assert np.array_equal(matrices[2], unit(pixels[10:20].T))
        assert len(built) == 1 and np.array_equal(built[0], pixels[10:20].T)

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

    @pytest.mark.parametrize("bad, error, detail", [
        (np.ones((8, 5)), RankDeficient, "set of 5 columns has numerical rank < 2"),
        (np.full((8, 5), np.nan), ValueError, "non-finite entries"),
    ])
    def test_first_failing_set_is_named(self, bad, error, detail):
        # sets 3 and 5 fail; the error names the first of them and keeps
        # its own message
        rng = np.random.default_rng(12)
        sets = [(rng.standard_normal((8, 5)), 10 + i) for i in range(7)]
        sets[3] = (bad, 13)
        sets[5] = (np.zeros((8, 5)), 15)
        with pytest.raises(error) as info:
            dataio.build_per_set_subspace_dataset(sets, 2)
        assert str(info.value) == f"set 3 (label 13): {detail}"

    def test_identical_frames_d1(self):
        frame = np.eye(4)[:, 0]
        X = np.column_stack([frame] * 3)
        dataset = dataio.build_per_set_subspace_dataset([(X, 1)], 1)
        assert np.allclose(np.abs(dataset[0][0].basis[:, 0]), frame)


def count_orthonormality_checks(monkeypatch):
    """Count check_orthonormal calls, by dataio and by Subspace, in a list."""
    calls, check = [], manifold.check_orthonormal

    def counted(bases, *args):
        calls.append(len(bases))
        return check(bases, *args)

    monkeypatch.setattr(manifold, "check_orthonormal", counted)
    monkeypatch.setattr(dataio, "check_orthonormal", counted, raising=False)
    return calls


class TestSampleStack:
    """The builders write every basis into one array, check it once and
    make it read-only."""

    def _sets(self, n=7, D=8, m=5):
        rng = np.random.default_rng(50)
        return [(rng.standard_normal((D, m)), 10 + i) for i in range(n)]

    def test_one_check_for_all_sets(self, monkeypatch):
        sets = self._sets()
        calls = count_orthonormality_checks(monkeypatch)
        dataset = dataio.build_per_set_subspace_dataset(sets, 2)
        assert calls == [7]
        for (sample, label), (X, y) in zip(dataset, sets):
            assert label == y
            assert sample.basis.tobytes() == subspace_from_set(X, 2).basis.tobytes()

    def test_classwise_draws_fill_one_stack(self, monkeypatch):
        rng = np.random.default_rng(51)
        images = rng.integers(0, 256, (60, 16), dtype=np.uint8)
        labels = np.repeat([1, 2, 3], 20)
        calls = count_orthonormality_checks(monkeypatch)
        dataset = dataio.build_classwise_subspace_dataset(images, labels, 2, 6, 4, 0)
        assert calls == [12] and len(dataset) == 12
        assert all(sample.basis.base is dataset[0][0].basis.base for sample, _ in dataset)

    def test_items_share_one_read_only_array(self):
        dataset = dataio.build_per_set_subspace_dataset(self._sets(), 3)
        stack = dataset[0][0].basis.base
        assert stack.shape == (7, 8, 3) and stack.flags.c_contiguous
        assert not stack.flags.writeable
        for i, (sample, _) in enumerate(dataset):
            assert sample.basis.base is stack
            assert np.shares_memory(sample.basis, stack[i])
            assert sample.basis.flags.c_contiguous and not sample.basis.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            dataset[2][0].basis[0, 0] = 1.0

    def test_generator_of_sets_with_its_count(self):
        sets = self._sets()
        built = dataio.build_per_set_subspace_dataset(iter(sets), 2, len(sets))
        listed = dataio.build_per_set_subspace_dataset(sets, 2)
        assert [y for _, y in built] == [y for _, y in listed]
        assert built[0][0].basis.base.tobytes() == listed[0][0].basis.base.tobytes()
        assert dataio.build_per_set_subspace_dataset([], 2) == []
        with pytest.raises(ValueError, match="^7 sets, not 8$"):
            dataio.build_per_set_subspace_dataset(iter(sets), 2, 8)

    def test_set_of_another_dimension_is_named(self):
        sets = self._sets()
        sets[4] = (np.random.default_rng(52).standard_normal((9, 5)), 14)
        with pytest.raises(InconsistentDims) as info:
            dataio.build_per_set_subspace_dataset(sets, 2)
        assert str(info.value) == "set 4 (label 14): D = 9 pixels, set 0 has D = 8"

    @pytest.mark.parametrize("spoil, detail", [
        (lambda basis: basis.__imul__(1.01), "columns not orthonormal"),
        (lambda basis: basis.fill(np.nan), "non-finite entries"),
    ])
    def test_basis_failing_the_batched_check_is_named(self, monkeypatch, spoil, detail):
        # sets 3 and 5 come out of _factor_set spoiled; the one check over
        # the stack names the first by index and label
        factor = dataio._factor_set

        def spoiled(X, d, out=None):
            result = factor(X, d, out)
            if X[0, 0] in (sets[3][0][0, 0], sets[5][0][0, 0]):
                spoil(result[0])
            return result

        sets = self._sets()
        monkeypatch.setattr(dataio, "_factor_set", spoiled)
        with pytest.raises(ValueError) as info:
            dataio.build_per_set_subspace_dataset(sets, 2)
        assert str(info.value).startswith(f"set 3 (label 13): {detail}")


class TestStreamedSubspaces:
    """iter_imageset_blocks reads, builds and stacks one block of sets at a time."""

    @pytest.mark.parametrize("block", [1, 2, 5, 6, 7])
    def test_matches_list_build_bitwise(self, tmp_path, block):
        build_imageset_fixture(tmp_path, classes=2, sets=3, frames=4)
        sets, _, _ = dataio.read_imageset_dirs(tmp_path)
        listed = dataio.build_per_set_subspace_dataset(sets, 2)
        labels, blocks = dataio.iter_imageset_blocks(tmp_path, 6, 2, block)
        blocks = list(blocks)
        assert labels.dtype == np.int64
        assert labels.tolist() == [y for _, y in listed] == [1, 1, 1, 2, 2, 2]
        assert [b.shape[1] for b in blocks] == [
            min(block, 6 - start) for start in range(0, 6, block)]
        streamed = np.concatenate(blocks, axis=1)
        stacked = np.stack([s.basis for s, _ in listed], axis=1)
        assert streamed.shape == (6, 6, 2)
        assert streamed.tobytes() == stacked.tobytes()

    def test_one_check_per_block_into_the_block(self, tmp_path, monkeypatch):
        build_imageset_fixture(tmp_path, classes=2, sets=3, frames=4)
        calls = count_orthonormality_checks(monkeypatch)
        _, blocks = dataio.iter_imageset_blocks(tmp_path, 6, 2, 4)
        for block in blocks:
            # the pixel-major block the kernel reads, written in place
            assert block.flags.c_contiguous and not block.flags.writeable
            assert block.base.shape == block.shape
        assert calls == [4, 2]

    def test_tree_checked_before_any_set_is_read(self, tmp_path, monkeypatch):
        def unread(name, *args):
            raise AssertionError(f"{name} read before the tree was checked")

        read_frame = dataio._read_frame

        def manifest_only(name, dir_fd, size, path):
            # labels.txt is read by _read_frame too, as part of the check
            if str(path).endswith(".pgm"):
                unread(path)
            return read_frame(name, dir_fd, size, path)

        # every frame of a set is read by _read_frame, and every PGM parsed
        # by _check_pgm
        monkeypatch.setattr(dataio, "_read_frame", manifest_only)
        monkeypatch.setattr(dataio, "_check_pgm", unread)
        # a class without sets, then a bad manifest: each raises at the call
        (tmp_path / "empty" / "c1").mkdir(parents=True)
        with pytest.raises(EmptySet, match="no image-set directories"):
            dataio.iter_imageset_blocks(tmp_path / "empty", 6, 2, 4)
        build_imageset_fixture(tmp_path / "tree")
        (tmp_path / "tree" / "labels.txt").write_text("class1 1\n")
        with pytest.raises(ConfigError, match="'class2' is not listed"):
            dataio.iter_imageset_blocks(tmp_path / "tree", 6, 2, 4)
        # a good tree: the labels come back with no frame read
        (tmp_path / "tree" / "labels.txt").write_text("class1 7\nclass2 -3\n")
        labels, _ = dataio.iter_imageset_blocks(tmp_path / "tree", 6, 2, 4)
        assert labels.tolist() == [7, 7, -3, -3]

    def test_failing_set_in_a_later_block_named_by_tree_index(self, tmp_path):
        build_imageset_fixture(tmp_path, classes=2, sets=3, frames=4)
        frame = np.full((2, 3), 9, dtype=np.uint8)
        for f in range(4):  # set 4, class2/set2, lies in the second block of 3
            dataio.write_pgm(tmp_path / "class2" / "set2" / f"frame{f + 1}.pgm", frame)
        _, blocks = dataio.iter_imageset_blocks(tmp_path, 6, 2, 3)
        assert next(blocks).shape == (6, 3, 2)
        with pytest.raises(RankDeficient, match=r"^set 4 \(label 2\): "):
            next(blocks)


    def test_frame_shape_checked_across_blocks(self, tmp_path):
        build_imageset_fixture(tmp_path, classes=2, sets=3, frames=4)
        frame = np.full((3, 2), 9, dtype=np.uint8)  # 6 pixels, as 2 x 3 has
        for f in range(4):  # set 4 lies in the second block of 3
            dataio.write_pgm(tmp_path / "class2" / "set2" / f"frame{f + 1}.pgm", frame)
        _, blocks = dataio.iter_imageset_blocks(tmp_path, 6, 2, 3)
        next(blocks)
        with pytest.raises(InconsistentDims) as info:
            next(blocks)
        # read_set names the first frame that differs from the tree's first
        assert str(info.value) == (f"{tmp_path / 'class2' / 'set2' / 'frame1.pgm'}: "
                                   "(3, 2) differs from (2, 3)")

    def test_later_set_of_another_shape_fails_at_its_first_frame(self, tmp_path):
        # class2/set1's frames have 2 x 3's pixel count in another shape, and
        # its last frame is cut short: the shape is checked against the
        # tree's as each frame is read, so its first frame raises before the
        # cut one is reached
        build_imageset_fixture(tmp_path, classes=2, sets=2, frames=3)
        set_dir = tmp_path / "class2" / "set1"
        for f in range(2):
            dataio.write_pgm(set_dir / f"frame{f + 1}.pgm", np.full((3, 2), 9, np.uint8))
        (set_dir / "frame3.pgm").write_bytes(b"P5\n2 3\n255\n" + bytes(5))
        for read in (dataio.read_imageset_dirs,
                     lambda root: list(dataio.iter_imageset_blocks(root, 6, 2, 4)[1])):
            with pytest.raises(InconsistentDims) as info:
                read(tmp_path)
            assert str(info.value) == (f"{set_dir / 'frame1.pgm'}: "
                                       "(3, 2) differs from (2, 3)")


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

    def test_trained_grlgq_relevance_reloads(self, tmp_path):
        # a relevance vector moved well off uniform still sums to 1 within
        # the load-time bound of 1e-12
        rng = np.random.default_rng(6)
        dataset = synthetic_subspace_dataset(rng, classes=3, D=10, d=4,
                                             per_class=5)
        config = TrainConfig(eta=0.05, gamma=0.04, epochs=20, seed=1,
                             mode="grlgq")
        model, _ = fit(dataset, config, init="example")
        assert np.ptp(model.relevance) > 0.01
        path = tmp_path / "model.bin"
        dataio.save_model(model, path)
        assert np.array_equal(dataio.load_model(path).relevance, model.relevance)

    def test_zero_relevance_weight_reloads(self, tmp_path):
        # clipping leaves a weight at exactly 0, which is still on the simplex
        model = two_class_model(np.random.default_rng(7), 8, 3, mode="grlgq",
                                relevance=np.array([0.0, 0.25, 0.75]))
        path = tmp_path / "model.bin"
        dataio.save_model(model, path)
        loaded = dataio.load_model(path)
        assert np.array_equal(loaded.relevance, model.relevance)
        assert np.array_equal(loaded.stack, model.stack)

    def test_path_that_is_no_file_is_model_not_found(self, tmp_path):
        # load_model checks the path itself, before opening anything
        for path in (tmp_path / "nothere.bin", tmp_path):
            with pytest.raises(ModelNotFound, match=re.escape(str(path))):
                dataio.load_model(path)

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
        assert data.startswith(b"GRASSLVQ v2 ")
        path.write_bytes(data.replace(b"GRASSLVQ v2 ", b"GRASSLVQ v3 ", 1))
        with pytest.raises(VersionMismatch):
            dataio.load_model(path)

    def test_v1_file_round_trips(self, tmp_path):
        # a v1 file, as earlier releases wrote it: the CRC covers the payload only
        model, _ = self._trained_model()
        path = tmp_path / "model.bin"
        dataio.save_model(model, path)
        header, rest = path.read_bytes().split(b"\n", 1)
        assert header.startswith(b"GRASSLVQ v2 ")
        payload = rest[8:-4]
        path.write_bytes(header.replace(b" v2 ", b" v1 ", 1) + b"\n" + rest[:-4]
                         + struct.pack("<I", zlib.crc32(payload)))
        loaded = dataio.load_model(path)
        assert loaded.mode == model.mode
        assert loaded.labels.tolist() == model.labels.tolist()
        assert loaded.stack.tobytes() == model.stack.tobytes()
        assert loaded.relevance.tobytes() == model.relevance.tobytes()

    def test_load_holds_the_file_and_the_stack_only(self, tmp_path):
        # 4 prototypes of D = 20000, d = 10: a 6.4 MB file; the bytes read
        # and the model's stack are the two copies load_model may hold
        basis = np.zeros((20000, 10))
        basis[np.arange(10), np.arange(10)] = 1.0
        protos = [Prototype(Subspace(basis), label) for label in (1, 2, 3, 4)]
        path = tmp_path / "model.bin"
        dataio.save_model(ModelState(protos, np.full(10, 0.1), "grlgq", 10, 20000), path)
        size = path.stat().st_size
        tracemalloc.start()
        try:
            loaded = dataio.load_model(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert loaded.stack.tobytes() == np.stack([basis] * 4).tobytes()
        assert peak < 2.5 * size, peak / size

    def test_load_holds_the_stack_and_one_prototype(self, tmp_path):
        # 10 prototypes of D = 4000, d = 10: a 3.2 MB stack, read through
        # one 320 kB prototype buffer; reading the file whole made it 2.0x
        rng = np.random.default_rng(12)
        protos = [Prototype(random_subspace(rng, 4000, 10), label)
                  for label in range(1, 11)]
        model = ModelState(protos, np.full(10, 0.1), "grlgq", 10, 4000)
        path = tmp_path / "model.bin"
        dataio.save_model(model, path)
        tracemalloc.start()
        try:
            loaded = dataio.load_model(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert loaded.pixel_stack.tobytes() == model.pixel_stack.tobytes()
        assert peak < 1.2 * model.pixel_stack.nbytes, peak / model.pixel_stack.nbytes

    def test_two_models_joined_end_to_end(self, tmp_path):
        # a file that goes on after its CRC is not the model it starts with
        path = tmp_path / "model.bin"
        dataio.save_model(two_class_model(np.random.default_rng(2), 12, 2), path)
        raw = path.read_bytes()
        path.write_bytes(raw + raw)
        with pytest.raises(CorruptModel, match=f"{len(raw)} bytes after the checksum$"):
            dataio.load_model(path)

    def test_save_copies_one_prototype_at_a_time(self, tmp_path):
        # 8 prototypes of D = 20000, d = 10: a 12.8 MB model; the file is
        # the bytes of the whole model, concatenated and checksummed at once
        rng = np.random.default_rng(9)
        protos = [Prototype(random_subspace(rng, 20000, 10), label)
                  for label in range(1, 9)]
        model = ModelState(protos, np.full(10, 0.1), "grlgq", 10, 20000)
        path = tmp_path / "model.bin"
        tracemalloc.start()
        try:
            dataio.save_model(model, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        head = (b"GRASSLVQ v2 mode=grlgq D=20000 d=10 labels=1,2,3,4,5,6,7,8\n"
                + struct.pack("<Q", model.stack.size + 10))
        payload = np.concatenate([model.stack.ravel(), model.relevance]).tobytes()
        assert path.read_bytes() == (head + payload + struct.pack(
            "<I", zlib.crc32(payload, zlib.crc32(head))))
        size = model.stack.nbytes
        assert peak < size / 4, peak / size

    @pytest.mark.parametrize("old, new", [(b"labels=1,2", b"labels=2,1"),
                                          (b"mode=grlgq", b"mode=glgq ")])
    def test_v2_header_edit_fails_checksum(self, tmp_path, old, new):
        model, _ = self._trained_model()
        path = tmp_path / "model.bin"
        dataio.save_model(model, path)
        data = path.read_bytes()
        assert old in data.split(b"\n", 1)[0]
        path.write_bytes(data.replace(old, new, 1))
        with pytest.raises(CorruptModel, match="checksum failure"):
            dataio.load_model(path)

    @pytest.mark.parametrize("index, value, fragment", [
        (0, 2.0, "columns not orthonormal"),     # first prototype entry
        (0, np.nan, "non-finite entries"),
        (-1, -0.5, "must be nonnegative"),       # last relevance weight
    ], ids=["non-orthonormal-prototype", "nan-prototype", "negative-relevance"])
    def test_invalid_payload_with_valid_checksum(self, tmp_path, index, value,
                                                 fragment):
        model, _ = self._trained_model()
        path = tmp_path / "model.bin"
        dataio.save_model(model, path)
        data = path.read_bytes()
        start = data.index(b"\n") + 1 + 8  # header line, then length prefix
        values = np.frombuffer(data[start:-4], dtype="<f8").copy()
        values[index] = value
        payload = values.tobytes()
        # a v2 checksum covers the header line and length prefix too
        path.write_bytes(data[:start] + payload
                         + struct.pack("<I", zlib.crc32(data[:start] + payload)))
        with pytest.raises(CorruptModel, match=fragment) as info:
            dataio.load_model(path)
        assert str(path) in str(info.value)


class TestExporters:
    def test_relevance_csv_glgq(self, tmp_path):
        rng = np.random.default_rng(3)
        model = two_class_model(rng, 6, 3, mode="glgq")
        path = tmp_path / "rel.csv"
        dataio.write_csv(path, ["index", "lambda"], enumerate(model.relevance, 1))
        lines = path.read_text().splitlines()
        assert lines[0] == "index,lambda"
        assert len(lines) == 4
        assert all(line.endswith(",1.0") for line in lines[1:])

    @staticmethod
    def _two_per_class_model(rng, D, d):
        protos = [Prototype(random_subspace(rng, D, d), label) for label in (1, 1, 2, 2)]
        relevance = rng.dirichlet(np.ones(d))
        return ModelState(protos, relevance, "grlgq", d, D)

    @staticmethod
    def _read_matrix(path):
        lines = path.read_text().splitlines()
        return lines[0].split(","), np.array([[float(v) for v in line.split(",")]
                                              for line in lines[1:]])

    def test_distance_matrix(self, tmp_path):
        rng = np.random.default_rng(4)
        model = self._two_per_class_model(rng, 8, 3)
        dataset = [(random_subspace(rng, 8, 3), 1 + i % 2) for i in range(6)]
        path = tmp_path / "dist.csv"
        # blocks of 4 and 2 samples, pulled once
        blocks = (np.stack([s.basis for s, _ in dataset[i:i + 4]], axis=1)
                  for i in (0, 4))
        dataio.export_distance_matrix_csv(model, len(dataset), blocks, path)
        header, mat = self._read_matrix(path)
        assert header == ([f"sample_{i}" for i in range(1, 7)]
                          + [f"prototype_{i}" for i in range(1, 5)])
        assert mat.shape == (10, 10)
        assert not np.diag(mat).any()
        assert np.array_equal(mat, mat.T)
        items = [s for s, _ in dataset] + [p.subspace for p in model.prototypes]
        for i, a in enumerate(items):
            for j, b in enumerate(items):
                expected = adaptive_squared_distance(principal_decomposition(a, b),
                                                     model.relevance)
                assert abs(mat[i, j] - expected) < 1e-12

    def test_distance_matrix_of_no_samples(self, tmp_path):
        rng = np.random.default_rng(6)
        model = self._two_per_class_model(rng, 8, 3)
        path = tmp_path / "dist.csv"
        dataio.export_distance_matrix_csv(model, 0, [], path)
        header, mat = self._read_matrix(path)
        assert header == [f"prototype_{i}" for i in range(1, 5)]
        assert mat.shape == (4, 4)
        assert not np.diag(mat).any() and mat[0, 1] > 0

    @pytest.mark.parametrize("shape, error, fragment", [
        ((9, 3), InconsistentDims, "sample 2 has D = 9 pixels, prototypes have D = 8"),
        ((8, 2), ValueError, "sample 2 has d = 2, model has d = 3"),
    ])
    def test_distance_matrix_names_a_misshapen_sample(self, tmp_path, shape,
                                                      error, fragment):
        rng = np.random.default_rng(7)
        model = self._two_per_class_model(rng, 8, 3)
        # the misshapen block starts at sample 2
        blocks = [random_subspace(rng, 8, 3).basis[:, None],
                  np.stack([random_subspace(rng, *shape).basis] * 2, axis=1)]
        path = tmp_path / "dist.csv"
        with pytest.raises(error, match=fragment):
            dataio.export_distance_matrix_csv(model, 3, blocks, path)
        assert not path.exists()

    @pytest.mark.parametrize("count", [2, 4])
    def test_distance_matrix_needs_the_sample_count(self, tmp_path, count):
        rng = np.random.default_rng(8)
        model = self._two_per_class_model(rng, 8, 3)
        blocks = [np.stack([random_subspace(rng, 8, 3).basis] * 3, axis=1)]
        path = tmp_path / "dist.csv"
        with pytest.raises(ValueError, match=f"blocks hold 3 samples, not {count}"):
            dataio.export_distance_matrix_csv(model, count, blocks, path)
        assert not path.exists()

    def test_prototype_images(self, tmp_path):
        rng = np.random.default_rng(5)
        model = two_class_model(rng, 12, 2)
        out = tmp_path / "protos"
        dataio.export_prototype_images(model, 4, 3, out)
        files = sorted(p.name for p in out.iterdir())
        assert "rescale.txt" in files
        assert "prototype_0_vector_1.pgm" in files
        assert "prototype_1_vector_2.pgm" in files
        img = dataio.read_pgm(out / "prototype_0_vector_1.pgm")
        assert img.shape == (3, 4)
        assert img.min() == 0 and img.max() == 255  # full 8-bit range

    def test_constant_prototype_vector_is_an_all_zero_image(self, tmp_path):
        # a unit vector of equal entries has no range to rescale
        flat = Subspace(np.full((6, 1), 1 / np.sqrt(6)))
        edge = Subspace(np.eye(6)[:, :1])
        model = ModelState([Prototype(flat, 3), Prototype(edge, 4)],
                           np.ones(1), "grlgq", 1, 6)
        out = tmp_path / "protos"
        dataio.export_prototype_images(model, 3, 2, out)
        img = dataio.read_pgm(out / "prototype_0_vector_1.pgm")
        assert img.shape == (2, 3) and not img.any()
        value = float(flat.basis[0, 0])
        assert (out / "rescale.txt").read_text().splitlines()[1] == (
            f"prototype_0_vector_1.pgm label=3 min={value!r} max={value!r}")

    def test_write_csv_format(self, tmp_path):
        path = tmp_path / "table.csv"
        floats = [0.1, 1 / 3, -2.5e-300, np.float64(np.pi)]
        dataio.write_csv(path, None, [[3, np.int64(-4)], floats])
        lines = path.read_bytes().decode().split("\n")
        assert lines[0] == "3,-4"  # no header line, integers without ".0"
        assert [float(v) for v in lines[1].split(",")] == floats
        assert lines[2:] == [""]
        dataio.write_csv(path, ["a", "b"], [[1, 2.0]])
        assert path.read_text() == "a,b\n1,2.0\n"

    def test_write_csv_confusion_parses_with_loadtxt(self, tmp_path):
        confusion = np.array([[5, 0, 1], [0, 6, 0], [2, 0, 4]], dtype=np.int64)
        path = tmp_path / "confusion.csv"
        dataio.write_csv(path, None, confusion)
        back = np.loadtxt(path, delimiter=",", dtype=np.int64, ndmin=2)
        assert np.array_equal(back, confusion)

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

    @pytest.mark.parametrize("width, height", [(3, 3), (12, 0)])
    def test_influence_map_of_another_size_rejected(self, tmp_path, width, height):
        rng = np.random.default_rng(6)
        pd = principal_decomposition(random_subspace(rng, 12, 2), random_subspace(rng, 12, 2))
        path = tmp_path / "inf.pgm"
        with pytest.raises(ValueError) as info:
            dataio.export_pixel_influence(pd, 0, width, height, path)
        assert str(info.value) == "width*height must equal the ambient dimension"
        assert not path.exists()

    def test_all_zero_influence_map_is_mid_grey(self, tmp_path):
        # span(e_0) against span(e_1): the principal vectors share no pixel
        eye = np.eye(6)
        pd = principal_decomposition(Subspace(eye[:, :1]), Subspace(eye[:, 1:2]))
        path = tmp_path / "inf.pgm"
        dataio.export_pixel_influence(pd, 0, 3, 2, path)
        assert np.array_equal(dataio.read_pgm(path), np.full((2, 3), 128, np.uint8))
