"""Dataset ingestion, model persistence, and artifact exporters.

File formats:
  * IDX (big-endian, magics 0x00000803 / 0x00000801) for MNIST-style data,
  * binary 8-bit PGM (P5) for image frames, prototype images, and influence maps,
  * CSV with ',' separators and '\\n' line endings for everything plottable,
  * a versioned binary model file (header line, length-prefixed float64
    little-endian payload, trailing CRC32 of the bytes before it).

Every reader, and ``iter_idx_blocks``'s vector blocks, give 8-bit pixels;
``unit_columns`` alone L2-normalizes them, in ``_factor_set`` and
``class_image_matrices``, for every subspace construction (an all-black
image stays zero), and ``score_blocks`` scores them by their norms.
"""

import math
import os
import re
import stat
import struct
import zlib
from collections.abc import Mapping
from itertools import islice

import numpy as np

from .errors import (
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
from .manifold import (Subspace, _factor_set, check_orthonormal, pixel_influence,
                       principal_angles_to_stack, unit_columns)
from .model import ModelState, Prototype, _check_shape

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801
MODEL_MAGIC = "GRASSLVQ"
# v2's CRC32 covers every byte before it, header line included; v1's, which
# load_model still reads, covers only the payload.
MODEL_VERSION = 2
# an IDX header or payload is read in chunks of at most this many bytes
STREAM_CHUNK = 1 << 24

# P5 magic, then width, height and maxval as whitespace-separated tokens with
# '#' comments running to end of line, then one whitespace byte before pixels.
_PGM_HEADER = re.compile(rb"P5" + rb"(?:\s|#[^\n]*\n)+([^\s#]\S*)" * 3 + rb"\s")


# ---------------------------------------------------------------- IDX

def _read_exact(f, n, path, done=0, total=None):
    """The next ``n`` bytes of ``f``, a file or a pipe, read in chunks of at
    most STREAM_CHUNK bytes until it has them or reaches EOF, so a header
    that overstates the payload allocates what the input holds, not what it
    declares. Input that fits in one chunk is one read and one bytes object:
    the join of a single chunk is that chunk, not a copy. A short read names
    a payload's ``total`` bytes and counts the ``done`` read before."""
    chunks, got = [], 0
    while got < n:
        chunk = f.read(min(n - got, STREAM_CHUNK))
        if not chunk:
            raise TruncatedFile(f"{path}: expected {total or n} more bytes, got {done + got}")
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def _idx_blocks(path, magic, ndim, block=None):
    """The one IDX decoder: a generator of the ``ndim`` size fields, then of
    the uint8 payload as (B, row) arrays of ``block`` rows (None: one block),
    each one ``_read_exact``. The magic, the signs, a regular file's size
    against the payload, then an image file's counts are checked first: no
    images is EmptySet, images of no pixels UnsupportedFormat."""
    with open(path, "rb") as f:
        found, *sizes = struct.unpack(f">{1 + ndim}i", _read_exact(f, 4 + 4 * ndim, path))
        if found != magic:
            raise BadMagic(f"{path}: magic 0x{found:08x}, expected 0x{magic:08x}")
        if min(sizes) < 0:
            raise UnsupportedFormat(f"{path}: negative size field in {sizes}")
        count, row = sizes[0], math.prod(sizes[1:])
        info = os.fstat(f.fileno())
        if stat.S_ISREG(info.st_mode) and (left := info.st_size - f.tell()) < count * row:
            raise TruncatedFile(f"{path}: expected {count * row} more bytes, got {left}")
        if ndim == 3 and count == 0:
            raise EmptySet(f"{path}: no images")
        if ndim == 3 and row == 0:
            raise UnsupportedFormat(f"{path}: images of {sizes[1]} x {sizes[2]} pixels")
        yield sizes
        block = block or max(count, 1)
        for start in range(0, max(count, 1), block):  # no rows: one empty block
            rows = min(block, count - start)
            yield np.frombuffer(_read_exact(f, rows * row, path, start * row, count * row),
                                dtype=np.uint8).reshape(rows, row)


def read_idx_images(path):
    """Read an IDX image file; returns ((n, D) uint8 pixel rows, rows, cols)."""
    blocks = _idx_blocks(path, IDX_IMAGES_MAGIC, 3)
    (_, rows, cols), (pixels,) = next(blocks), blocks
    return pixels, rows, cols


def read_idx_labels(path) -> np.ndarray:
    """Read an IDX label file into an (n,) integer array."""
    (labels,) = islice(_idx_blocks(path, IDX_LABELS_MAGIC, 1), 1, None)
    return labels[:, 0].astype(np.int64)


def read_idx_dataset(images_path, labels_path):
    """Read paired IDX files; returns ((n, D) uint8 pixels, (n,) labels, rows, cols)."""
    images, rows, cols = read_idx_images(images_path)
    labels = read_idx_labels(labels_path)
    if images.shape[0] != labels.shape[0]:
        raise CountMismatch(f"{images.shape[0]} images vs {labels.shape[0]} labels")
    return images, labels, rows, cols


# ---------------------------------------------------------------- PGM

def read_pgm(path) -> np.ndarray:
    """Read a binary 8-bit PGM (P5) file into an (h, w) uint8 array; the
    file is read whole by ``_read_frame``, as a set's frames are."""
    data = _read_frame(path, None, 0, path)
    header, shape = _check_pgm(data, path)
    return np.frombuffer(data, np.uint8, shape[0] * shape[1], header.end()).reshape(shape)


def _check_pgm(data, path):
    """(header match, (height, width)) of the bytes ``data`` of a binary 8-bit
    PGM (P5) file, after every check of its header and of its pixel count;
    errors name ``path``. The one PGM parser of ``read_pgm`` and ``read_set``."""
    header = _PGM_HEADER.match(data)
    if header is None:
        if not data.startswith(b"P5"):
            raise UnsupportedFormat(f"{path}: not a binary PGM (P5) file")
        raise TruncatedFile(f"{path}: header ends early")
    tokens = header.groups()
    if not all(map(bytes.isdigit, tokens)):
        raise UnsupportedFormat(f"{path}: malformed PGM header")
    width, height, maxval = map(int, tokens)
    if maxval != 255:
        raise UnsupportedFormat(f"{path}: only 8-bit PGM supported (maxval={maxval})")
    if width * height == 0:
        raise UnsupportedFormat(f"{path}: image of {width} x {height} pixels")
    pixels = len(data) - header.end()
    if pixels < width * height:
        raise TruncatedFile(f"{path}: expected {width * height} pixels, got {pixels}")
    return header, (height, width)


def write_pgm(path, image: np.ndarray) -> None:
    """Write an (h, w) uint8 array as a binary PGM (P5) file."""
    image = np.asarray(image, dtype=np.uint8)
    h, w = image.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode())
        f.write(image.tobytes())


# ---------------------------------------------------------------- text files

def read_text_lines(path) -> list[tuple[int, str]]:
    """(line number, line) pairs of a UTF-8 text file, read whole by
    ``_read_frame`` and split at \\n, \\r and \\r\\n as text mode splits
    them. A line that is not UTF-8 raises ConfigError naming the file, the
    line and its text, bad bytes as U+FFFD."""
    lines = []
    for lineno, raw in enumerate(_read_frame(path, None, 0, path).splitlines(), 1):
        try:
            lines.append((lineno, raw.decode()))
        except UnicodeDecodeError:
            raise ConfigError(f"{path}:{lineno}: not UTF-8: "
                              f"{raw.decode(errors='replace')!r}") from None
    return lines


# ---------------------------------------------------------------- image-set dirs

def read_set(set_dir, dims=None):
    """Read one image-set directory of PGM frames into a D x m uint8 matrix.

    Frames are taken in sorted file-name order, one column of pixels each
    (``subspace_from_set`` normalises them as it builds). Each frame is
    read whole by ``_read_frame``, passes every check ``read_pgm`` makes, by
    the same ``_check_pgm``, and must have the shape ``dims`` of its tree's
    first frame (None: of the set's first), or InconsistentDims names it.
    Their pixel bytes are joined and decoded as one (m, D) array, and X is
    its transpose, a Fortran-ordered view. Returns (X, (height, width)).
    """
    frames = sorted(e for e in os.listdir(set_dir) if e.endswith(".pgm"))
    if not frames:
        raise EmptySet(f"{set_dir}: no .pgm frames")
    prefix = os.path.join(set_dir, "")  # prefix + frame is the frame's path
    payloads, size = [], 0
    dir_fd = os.open(set_dir, os.O_RDONLY | os.O_DIRECTORY)
    try:
        for frame in frames:
            data = _read_frame(frame, dir_fd, size, prefix + frame)
            header, shape = _check_pgm(data, prefix + frame)
            dims = dims or shape
            if shape != dims:
                raise InconsistentDims(f"{prefix}{frame}: {shape} differs from {dims}")
            size = len(data)
            payloads.append(data[header.end():header.end() + dims[0] * dims[1]])
    finally:
        os.close(dir_fd)
    rows = np.frombuffer(b"".join(payloads), dtype=np.uint8)
    return rows.reshape(len(frames), dims[0] * dims[1]).T, dims


def _read_frame(name, dir_fd, size, path):
    """The bytes of the file ``name``, relative to the directory open at
    ``dir_fd`` (None: to the working directory). One os.read asks for
    ``size`` + 1 bytes, one more than the caller expects; only a file that
    fills it (a set's first frame, one longer than the previous, or any
    file read with ``size`` 0) is read on to its end. An OSError names
    ``path``, as open() would: os.read on a directory names no file."""
    try:
        fd = os.open(name, os.O_RDONLY, dir_fd=dir_fd)
        try:
            data = os.read(fd, size + 1)
            if len(data) > size:
                data += open(fd, "rb", buffering=0, closefd=False).read()
            return data
        finally:
            os.close(fd)
    except OSError as exc:
        exc.filename = os.fspath(path)
        raise


def _set_dirs(root):
    """(set directory, label) of every root/<class>/<set>, in sorted class
    then set order, labeled and checked as ``read_imageset_dirs`` describes;
    reads no frame. A tree without set directories raises EmptySet."""
    class_dirs = sorted(
        e for e in os.listdir(root)
        if e != "labels.txt" and os.path.isdir(os.path.join(root, e))
    )
    if not class_dirs:
        raise EmptySet(f"{root}: no class directories")
    labels = {name: i + 1 for i, name in enumerate(class_dirs)}
    manifest = os.path.join(root, "labels.txt")
    if os.path.lexists(manifest) and not os.path.isfile(manifest):
        raise ConfigError(f"{manifest}: not a regular file")
    if os.path.isfile(manifest):
        listed, first = {}, {}
        for lineno, line in read_text_lines(manifest):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                name, lab = line.split()
                lab = int(lab)
            except ValueError:
                raise ConfigError(f"{manifest}:{lineno}: expected "
                                  "'<class-dir> <integer>'") from None
            if not -2 ** 63 <= lab < 2 ** 63:
                raise ConfigError(f"{manifest}:{lineno}: label {lab} is outside "
                                  "the int64 range")
            if name not in labels:
                raise ConfigError(f"{manifest}:{lineno}: {name!r} names "
                                  "no class directory")
            if name in first:
                raise ConfigError(f"{manifest}:{lineno}: {name!r} repeats "
                                  f"line {first[name]}")
            listed[name], first[name] = lab, lineno
        unlisted = [name for name in class_dirs if name not in listed]
        if unlisted:
            raise ConfigError(f"{manifest}: class directory {unlisted[0]!r} "
                              "is not listed")
        labels = listed

    set_dirs = []
    for class_dir in class_dirs:
        class_path = os.path.join(root, class_dir)
        set_dirs += [
            (os.path.join(class_path, e), labels[class_dir])
            for e in sorted(os.listdir(class_path))
            if os.path.isdir(os.path.join(class_path, e))
        ]
    if not set_dirs:
        raise EmptySet(f"{root}: no image-set directories")
    return set_dirs


def _read_sets(set_dirs):
    """((D x m matrix, label), (height, width)) of each (set directory, label)
    item, read by ``read_set`` against the shape of the tree's first frame."""
    dims = None
    for set_path, label in set_dirs:
        X, dims = read_set(set_path, dims)
        yield (X, label), dims


def read_imageset_dirs(root):
    """Read the root/<class>/<set>/<frame>.pgm layout into labeled data matrices.

    Returns (sets, width, height) where sets is a list of (D x m uint8
    matrix, label) (see ``read_set``). Class ids follow sorted
    class-directory order (1-based); a ``labels.txt`` manifest at the root
    ("<class_dir> <label>" per line) overrides them. The manifest must list
    every class directory and name no other, or ConfigError is raised; an
    entry named labels.txt is never a class, and one that is not a regular
    file raises ConfigError.
    """
    sets, dims = zip(*_read_sets(_set_dirs(root)))
    height, width = dims[0]
    return list(sets), width, height


# ---------------------------------------------------------------- subspace datasets

def build_classwise_subspace_dataset(images, labels, d, m, sets_per_class, seed):
    """Sample subspaces per class from single images (for image classification).

    ``images`` is (n, D): the uint8 pixel rows of an IDX file or float rows.
    For each class, draws ``sets_per_class`` independent groups of ``m``
    images (without replacement within a group) and converts each group to a
    d-dimensional subspace by ``build_per_set_subspace_dataset``. Returns
    (Subspace, label) pairs; deterministic under the seed, and bitwise the
    same for uint8 pixels as for ``unit_columns(images.T).T``. Before any
    draw, raises ConfigError when d is outside [1, D], then
    InsufficientImages when m < d or a class has fewer than m images.
    """
    D = images.shape[1]
    if d < 1 or d > D:
        raise ConfigError(f"d={d} must satisfy 1 <= d <= D = {D}")
    if m < d:
        raise InsufficientImages(f"m={m} images per subspace < d={d}")
    classes = [(y, np.flatnonzero(labels == y)) for y in sorted(set(labels.tolist()))]
    for label, idx in classes:
        if len(idx) < m:
            raise InsufficientImages(f"class {label}: {len(idx)} images < m={m}")
    rng = np.random.default_rng(seed)
    draws = ((images[rng.choice(idx, size=m, replace=False)].T, label)
             for label, idx in classes for _ in range(sets_per_class))
    return build_per_set_subspace_dataset(draws, d, len(classes) * sets_per_class)


def build_per_set_subspace_dataset(sets, d, count=None):
    """(Subspace, label) pairs of the ``count`` (None: ``len(sets)``) (D x m
    matrix, label) items of ``sets``: the d-dimensional spans that
    ``subspace_from_set`` builds, on read-only views of one ``_stack_sets`` stack."""
    stack, labels = _stack_sets(sets, d, len(sets) if count is None else count)
    return [(Subspace._view(basis), label) for basis, label in zip(stack, labels)]


def _stack_sets(sets, d, count, start=0, pixel_major=False):
    """(stack, labels): ``_factor_set`` writes the bases of the first ``count``
    (D x m matrix, label) items of ``sets``, D the first's, into one read-only
    (count, D, d) stack (pixel_major: a (D, count, d) array's transpose),
    checked once. Errors name a set by its index counted from ``start``."""
    stack, labels = np.empty((0, 0, d)), []
    for i, (X, label) in enumerate(islice(sets, count)):
        try:
            if i and len(X) != D:
                raise InconsistentDims(f"D = {len(X)} pixels, set {start} has D = {D}")
            basis = _factor_set(X, d, stack[i] if i else None)[0]
            if not i:  # the stack is made after the first basis, so their peaks do not add
                D = len(basis)
                stack = (np.empty((D, count, d)).transpose(1, 0, 2) if pixel_major
                         else np.empty((count, D, d)))
                stack[0] = basis
            labels.append(int(label))
        except Exception as exc:
            exc.args = (f"set {start + i} (label {label}): {exc}",)
            raise
    if len(labels) != count:
        raise ValueError(f"{len(labels)} sets, not {count}")
    check_orthonormal(stack, lambda i: f"set {start + i} (label {labels[i]}): ")
    stack.flags.writeable = False
    return stack, labels


def iter_imageset_blocks(root, D, d, block):
    """(N,) int64 labels and pixel-major (D, B, d) blocks of the sets under
    ``root``, in ``read_imageset_dirs`` order. The tree and labels.txt are
    checked, and the labels taken, before any frame is read; the first set's
    pixel count is checked against ``D`` as it is read. ``blocks`` reads
    ``block`` sets at a time from one ``_read_sets`` generator, then builds
    them into the block (``_stack_sets``, by index in the tree)."""
    set_dirs = _set_dirs(root)

    def sets():
        for (X, label), _ in _read_sets(set_dirs):
            _check_shape(set_dirs[0][0], X.shape[:1], (D,))  # read_set checks the rest
            yield X, label

    def blocks(pending):
        for start in range(0, len(set_dirs), block):
            # no name here holds the block or its frames once it is yielded
            yield _stack_sets(list(islice(pending, block)), d, min(block, len(set_dirs) - start),
                              start, pixel_major=True)[0].transpose(1, 0, 2)

    return np.array([label for _, label in set_dirs], dtype=np.int64), blocks(sets())


def iter_idx_blocks(images_path, labels_path, D, block):
    """(N,) int64 labels and a generator of pixel-major (D, B, 1) uint8 views
    of ``block`` rows, each one read of the payload, dropped before the next
    read; ``score_blocks`` scores the pixels. The image header and the labels
    are checked first. A count fault, the first black image, then a D other
    than ``D``, in that order, is held, with no block yielded after it, and
    raised once the payload is read: a pipe cut short is TruncatedFile."""
    blocks = _idx_blocks(images_path, IDX_IMAGES_MAGIC, 3, block)
    count, rows, cols = next(blocks)
    labels = read_idx_labels(labels_path)

    def checked(held):
        for i, pixels in enumerate(blocks):
            black = np.flatnonzero(~pixels.any(axis=1))
            if black.size and not isinstance(held, (CountMismatch, RankDeficient)):
                held = RankDeficient(f"{images_path}: image {i * block + black[0]} "
                                     "is all black (rank 0 < 1)")
            if held is None:
                yield pixels.T[:, :, None]
            del pixels  # before the next read
        if held:
            raise held

    return labels, checked(
        CountMismatch(f"{count} images vs {len(labels)} labels") if count != len(labels)
        else InconsistentDims(f"{images_path}: images have D = {rows * cols} pixels, "
                              f"prototypes have D = {D}") if rows * cols != D else None)


class _ClassMatrices(Mapping):
    """Read-only label -> D x n mapping that builds a class's matrix from its
    parts, ``build(parts[label])``, each time the label is read, and keeps
    none: a reader that takes one class at a time holds one class matrix."""

    def __init__(self, parts, build):
        self._parts, self._build = parts, build

    def __getitem__(self, label):
        return self._build(self._parts[label])

    def __contains__(self, label):
        # Mapping's own test would build the matrix
        return label in self._parts

    def __iter__(self):
        return iter(self._parts)

    def __len__(self):
        return len(self._parts)


def class_image_matrices(images, labels):
    """Per-class D x n matrices, in entry order, for the pca prototype init,
    as a read-only mapping label -> matrix. ``images`` is (n, D) pixel rows,
    one label each, or a list of (m, D) frame rows, one label per set. A
    class's entries are gathered by one ``np.vstack``, and uint8 pixels
    normalised by ``unit_columns`` (so the gather is freed before the pca
    factorisation), only when its label is read."""
    labels = np.asarray(labels)
    return _ClassMatrices({lab: np.flatnonzero(labels == lab)
                           for lab in sorted(set(labels.tolist()))},
                          lambda rows: unit_columns(np.vstack([images[i] for i in rows]).T))


# ---------------------------------------------------------------- model persistence

def save_model(model: ModelState, path) -> None:
    """Write a v2 model file: header line, float64-LE payload with length
    prefix, then the CRC32 of all of those bytes. The payload is each
    prototype's D x d basis in ``stack`` order, then the relevance vector;
    it is written, and fed to the CRC, one prototype at a time, so no more
    than one prototype's bytes are copied at once."""
    header = (
        f"{MODEL_MAGIC} v{MODEL_VERSION} mode={model.mode} "
        f"D={model.ambient_dim} d={model.subspace_dim} "
        f"labels={','.join(str(label) for label in model.labels)}\n"
    )
    count = model.stack.size + model.relevance.size
    head = header.encode() + struct.pack("<Q", count)
    with open(path, "wb") as f:
        f.write(head)
        crc = zlib.crc32(head)
        for part in (*model.stack, model.relevance):
            chunk = np.ascontiguousarray(part, dtype="<f8")
            f.write(chunk)
            crc = zlib.crc32(chunk, crc)
            del chunk  # before the next prototype is copied
        f.write(struct.pack("<I", crc))


def load_model(path) -> ModelState:
    """Read a v1 or v2 model file written by save_model; bit-exact round trip.
    A path that is not a regular file raises ModelNotFound. ModelState pulls
    the prototypes one at a time through one buffer into ``pixel_stack``, so
    the peak is the model plus one prototype. A fault in the values is
    raised once the CRC matched, and bytes after the CRC last."""
    if not os.path.isfile(path):
        raise ModelNotFound(path)
    with open(path, "rb") as f:
        line = f.readline()
        header = line.decode(errors="replace").strip()
        fields = header.split()
        if len(fields) < 2 or fields[0] != MODEL_MAGIC:
            raise CorruptModel(f"{path}: unrecognized header")
        if fields[1] not in ("v1", f"v{MODEL_VERSION}"):
            raise VersionMismatch(f"{path}: format {fields[1]}, "
                                  f"expected v1 or v{MODEL_VERSION}")
        try:
            meta = {}
            for key, value in (field.split("=", 1) for field in fields[2:]):
                if key in meta:
                    # a v1 CRC covers only the payload, so nothing else would
                    # catch a second labels= or D= field there
                    raise CorruptModel(f"{path}: header field {key!r} repeats")
                meta[key] = value
            mode = meta["mode"]
            D, d = int(meta["D"]), int(meta["d"])
            labels = [int(t) for t in meta["labels"].split(",")]
        except (KeyError, ValueError):
            raise CorruptModel(f"{path}: malformed header {header!r}") from None
        if not 1 <= d <= D:
            raise CorruptModel(f"{path}: header needs 1 <= d <= D, got D={D} d={d}")
        wide = [lab for lab in labels if not -2 ** 63 <= lab < 2 ** 63]
        if wide:
            raise CorruptModel(f"{path}: header label {wide[0]} is outside the int64 range")
        rest = os.fstat(f.fileno()).st_size - f.tell()
        if rest < 8:
            raise CorruptModel(f"{path}: missing length prefix")
        (count,) = struct.unpack("<Q", prefix := f.read(8))
        extra = rest - 12 - count * 8  # bytes after the checksum
        if extra < 0:
            raise CorruptModel(f"{path}: truncated payload")
        crc = zlib.crc32(prefix, zlib.crc32(line)) if fields[1] != "v1" else 0
        end = f.tell() + 8 * count  # where the payload ends and the CRC starts
        prototypes = _PrototypeReader(f, labels, (D, d), crc)
        fault = "payload size inconsistent with header"
        if count == len(labels) * D * d + d:
            relevance = np.frombuffer(os.pread(f.fileno(), 8 * d, end - 8 * d), "<f8").copy()
            try:
                model, fault = ModelState(prototypes, relevance, mode, d, D), None
            except (ValueError, ConfigError) as exc:
                fault = f"invalid model: {exc}"
        tail = f.read(end + 4 - f.tell())  # what no prototype read, then the CRC
    if zlib.crc32(tail[:-4], prototypes.crc) != struct.unpack("<I", tail[-4:])[0]:
        raise CorruptModel(f"{path}: checksum failure")
    if fault:
        raise CorruptModel(f"{path}: {fault}")
    # training keeps a grlgq relevance vector within a few eps of the simplex
    total = float(model.relevance.sum())
    if mode == "grlgq" and abs(total - 1.0) > 1e-12:
        raise CorruptModel(f"{path}: invalid model: grlgq relevance sums to "
                           f"{total!r}, not 1 within 1e-12")
    if extra:
        raise CorruptModel(f"{path}: {extra} bytes after the checksum")
    return model


class _PrototypeReader:
    """A model file's prototypes, read into one buffer and fed to ``crc`` as pulled."""

    def __init__(self, f, labels, shape, crc):
        self.f, self.labels, self.shape, self.crc = f, labels, shape, crc

    def __len__(self):
        return len(self.labels)

    def __iter__(self):
        buffer = np.empty(self.shape, dtype="<f8")
        for label in self.labels:
            self.f.readinto(buffer)
            self.crc = zlib.crc32(buffer, self.crc)
            yield Prototype(Subspace(buffer), label)


# ---------------------------------------------------------------- exporters

def write_csv(path, header, rows) -> None:
    """Write a CSV file: a header line of names unless ``header`` is None, then
    one line per row. Integers are written with str, every other value with
    repr(float(v)), so floats read back bit-exactly."""
    with open(path, "w") as f:
        if header is not None:
            f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(str(v) if isinstance(v, (int, np.integer))
                             else repr(float(v)) for v in row) + "\n")


def _rescale_full_range(values):
    lo, hi = values.min(), values.max()
    scale = hi - lo
    if scale == 0:
        return np.zeros_like(values, dtype=np.uint8), lo, hi
    return np.clip(np.rint((values - lo) / scale * 255), 0, 255).astype(np.uint8), lo, hi


def export_prototype_images(model: ModelState, width, height, out_dir) -> None:
    """One PGM per principal vector of every prototype, each rescaled to the
    full 8-bit range, and one ``rescale.txt`` sidecar that maps them back.

    The sidecar holds the formula line, then one line per image:
    ``prototype_<i>_vector_<k>.pgm label=<label> min=<repr> max=<repr>``.
    """
    if width <= 0 or height <= 0 or width * height != model.ambient_dim:
        raise ConfigError(f"width {width} x height {height} = {width * height} "
                          f"pixels, but the model has D = {model.ambient_dim}")
    os.makedirs(out_dir, exist_ok=True)
    lines = ["pixel = min + raw/255 * (max - min)"]
    for i, label in enumerate(model.labels):
        for k in range(model.subspace_dim):
            img, lo, hi = _rescale_full_range(model.stack[i, :, k])
            name = f"prototype_{i}_vector_{k + 1}.pgm"
            write_pgm(os.path.join(out_dir, name), img.reshape(height, width))
            lines.append(f"{name} label={label} min={float(lo)!r} max={float(hi)!r}")
    with open(os.path.join(out_dir, "rescale.txt"), "w") as sidecar:
        sidecar.write("\n".join(lines) + "\n")


def export_pixel_influence(pd, index, width, height, path) -> None:
    """Influence map for one principal angle, rescaled symmetrically around 0."""
    values = pixel_influence(pd, index)
    if width * height != values.shape[0]:
        raise ValueError("width*height must equal the ambient dimension")
    bound = np.max(np.abs(values))
    if bound == 0:
        img = np.full(values.shape, 128, dtype=np.uint8)
    else:
        img = np.clip(np.rint((values / bound + 1.0) * 127.5), 0, 255).astype(np.uint8)
    write_pgm(path, img.reshape(height, width))


def export_distance_matrix_csv(model: ModelState, count, blocks, path) -> None:
    """Symmetric (N+P) x (N+P) matrix of adaptive squared distances among the
    N = ``count`` samples of the pixel-major (D, B, d) ``blocks`` (first) and
    the P prototypes, under a header naming each column. Each block is checked
    as ``_check_shape`` checks its first sample, then copied into one
    (D, N+P, d) stack. Row i's upper triangle is one kernel call, column i
    against the later columns, mirrored; t-SNE and the like read it as is."""
    D, d = model.stack.shape[1:]
    bases = np.empty((D, count + len(model.labels), d))
    start = 0
    for block in blocks:
        _check_shape(f"sample {start + 1}", block.shape[::2], (D, d))
        bases[:, start:start + block.shape[1]] = block
        start += block.shape[1]
    if start != count:
        raise ValueError(f"blocks hold {start} samples, not {count}")
    bases[:, count:] = model.pixel_stack
    names = ([f"sample_{i + 1}" for i in range(count)]
             + [f"prototype_{i + 1}" for i in range(len(model.labels))])
    dist = np.zeros((len(names), len(names)))
    for i in range(len(names) - 1):
        angles = principal_angles_to_stack(bases[:, i:i + 1], bases[:, i + 1:])
        dist[i, i + 1:] = angles[0] ** 2 @ model.relevance
    dist += dist.T
    write_csv(path, names, dist)
