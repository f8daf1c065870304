"""Dataset ingestion, model persistence, and artifact exporters.

File formats:
  * IDX (big-endian, magics 0x00000803 / 0x00000801) for MNIST-style data,
  * binary 8-bit PGM (P5) for image frames, prototype images, and influence maps,
  * CSV with ',' separators and '\\n' line endings for everything plottable,
  * a versioned binary model file (header line, length-prefixed float64
    little-endian payload, trailing CRC32 of the bytes before it).

Every reader returns 8-bit pixels; ``unit_columns`` alone L2-normalizes them,
so every column entering a subspace construction or a score has unit norm,
except that an all-black image stays zero.
"""

import math
import os
import re
import stat
import struct
import zlib
from collections.abc import Mapping

import numpy as np

from .errors import (
    BadMagic,
    ConfigError,
    CorruptModel,
    CountMismatch,
    EmptySet,
    InconsistentDims,
    InsufficientImages,
    TruncatedFile,
    UnsupportedFormat,
    VersionMismatch,
)
from .manifold import Subspace, pixel_influence, principal_angles_to_stack, subspace_from_set
from .manifold import normalize_pixels, unit_columns  # noqa: F401 (importable here)
from .model import ModelState, Prototype, _check_shape

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801
MODEL_MAGIC = "GRASSLVQ"
# v2's CRC32 covers every byte before it, header line included; v1's, which
# load_model still reads, covers only the payload.
MODEL_VERSION = 2

# P5 magic, then width, height and maxval as whitespace-separated tokens with
# '#' comments running to end of line, then one whitespace byte before pixels.
_PGM_HEADER = re.compile(rb"P5" + rb"(?:\s|#[^\n]*\n)+([^\s#]\S*)" * 3 + rb"\s")


# ---------------------------------------------------------------- IDX

def _read_exact(f, n, path):
    data = f.read(n)
    if len(data) != n:
        raise TruncatedFile(f"{path}: expected {n} more bytes, got {len(data)}")
    return data


def _read_idx(path, magic, ndim):
    """The uint8 payload of an IDX file with ``ndim`` size fields, checking
    the magic first, then that no size is negative and, before the payload is
    read, that a regular file holds all of it; returns (payload, sizes)."""
    with open(path, "rb") as f:
        header = 4 + 4 * ndim
        found, *sizes = struct.unpack(f">{1 + ndim}i", _read_exact(f, header, path))
        if found != magic:
            raise BadMagic(f"{path}: magic 0x{found:08x}, expected 0x{magic:08x}")
        if min(sizes) < 0:
            raise UnsupportedFormat(f"{path}: negative size field in {sizes}")
        size, st = math.prod(sizes), os.fstat(f.fileno())
        # a pipe has no size to check; its read ends at what it delivers
        if stat.S_ISREG(st.st_mode) and size > st.st_size - header:
            raise TruncatedFile(f"{path}: expected {size} more bytes, "
                                f"got {st.st_size - header}")
        raw = _read_exact(f, size, path)
    return np.frombuffer(raw, dtype=np.uint8), sizes


def read_idx_images(path):
    """Read an IDX image file; returns ((n, D) uint8 pixel rows, rows, cols).
    A file of no images raises EmptySet, and one of images with no pixels
    UnsupportedFormat: either payload is empty whatever the other sizes."""
    pixels, (count, rows, cols) = _read_idx(path, IDX_IMAGES_MAGIC, 3)
    if count == 0:
        raise EmptySet(f"{path}: no images")
    if rows * cols == 0:
        raise UnsupportedFormat(f"{path}: images of {rows} x {cols} pixels")
    return pixels.reshape(count, rows * cols), rows, cols


def read_idx_labels(path) -> np.ndarray:
    """Read an IDX label file into an (n,) integer array."""
    return _read_idx(path, IDX_LABELS_MAGIC, 1)[0].astype(np.int64)


def read_idx_dataset(images_path, labels_path):
    """Read paired IDX files; returns ((n, D) uint8 pixels, (n,) labels, rows, cols)."""
    images, rows, cols = read_idx_images(images_path)
    labels = read_idx_labels(labels_path)
    if images.shape[0] != labels.shape[0]:
        raise CountMismatch(
            f"{images.shape[0]} images vs {labels.shape[0]} labels"
        )
    return images, labels, rows, cols


# ---------------------------------------------------------------- PGM

def read_pgm(path) -> np.ndarray:
    """Read a binary 8-bit PGM (P5) file into an (h, w) uint8 array."""
    with open(path, "rb", buffering=0) as f:
        data = f.read()
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
    """(line number, line) pairs of a UTF-8 text file, split at \\n, \\r and
    \\r\\n as text mode splits them. A line that is not UTF-8 raises
    ConfigError naming the file, the line and its text, bad bytes as U+FFFD."""
    with open(path, "rb") as f:
        raw_lines = f.read().splitlines()
    lines = []
    for lineno, raw in enumerate(raw_lines, 1):
        try:
            lines.append((lineno, raw.decode()))
        except UnicodeDecodeError:
            raise ConfigError(f"{path}:{lineno}: not UTF-8: "
                              f"{raw.decode(errors='replace')!r}") from None
    return lines


# ---------------------------------------------------------------- image-set dirs

def read_set(set_dir):
    """Read one image-set directory of PGM frames into a D x m uint8 matrix.

    Frames are taken in sorted file-name order, one column of pixels each
    (``unit_columns`` normalises them where they are built). Each frame is
    read whole by ``_read_frame`` and passes every check ``read_pgm`` makes,
    by the same ``_check_pgm``. Their pixel bytes are joined and decoded as
    one (m, D) array, and X is its transpose, a Fortran-ordered view.
    Returns (X, (height, width)).
    """
    frames = sorted(e for e in os.listdir(set_dir) if e.endswith(".pgm"))
    if not frames:
        raise EmptySet(f"{set_dir}: no .pgm frames")
    prefix = os.path.join(set_dir, "")  # prefix + frame is the frame's path
    payloads, dims, size = [], None, 0
    dir_fd = os.open(set_dir, os.O_RDONLY | os.O_DIRECTORY)
    try:
        for frame in frames:
            data = _read_frame(frame, dir_fd, size)
            header, shape = _check_pgm(data, prefix + frame)
            if dims is None:
                dims = shape
            elif shape != dims:
                raise InconsistentDims(f"{set_dir}/{frame}: {shape} differs from {dims}")
            size = len(data)
            payloads.append(data[header.end():header.end() + dims[0] * dims[1]])
    except OSError as exc:
        exc.filename = prefix + frame  # the path open() would name
        raise
    finally:
        os.close(dir_fd)
    rows = np.frombuffer(b"".join(payloads), dtype=np.uint8)
    return rows.reshape(len(frames), dims[0] * dims[1]).T, dims


def _read_frame(name, dir_fd, size):
    """The bytes of the file ``name`` in the directory open at ``dir_fd``.
    One os.read asks for ``size`` + 1 bytes, one more than the set's previous
    frame holds; only a file that fills it (a set's first frame, or one
    longer than the previous) is read on to its end."""
    fd = os.open(name, os.O_RDONLY, dir_fd=dir_fd)
    try:
        data = os.read(fd, size + 1)
        if len(data) > size:
            data += open(fd, "rb", buffering=0, closefd=False).read()
        return data
    finally:
        os.close(fd)


def _set_dirs(root):
    """(set directory, label) of every root/<class>/<set>, in sorted class
    then set order, labeled and checked as ``read_imageset_dirs`` describes;
    reads no frame. A tree without set directories raises EmptySet."""
    class_dirs = sorted(
        e for e in os.listdir(root) if os.path.isdir(os.path.join(root, e))
    )
    if not class_dirs:
        raise EmptySet(f"{root}: no class directories")
    labels = {name: i + 1 for i, name in enumerate(class_dirs)}
    manifest = os.path.join(root, "labels.txt")
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


def _read_sets(set_dirs, dims=None):
    """([(D x m matrix, label)], (height, width)) of the (set directory,
    label) items, read by ``read_set``. A set whose frames differ in shape
    from ``dims``, by default the first set's, raises InconsistentDims."""
    sets = []
    for set_path, label in set_dirs:
        X, set_dims = read_set(set_path)
        dims = dims or set_dims
        if set_dims != dims:
            raise InconsistentDims(f"{set_path}: frames {set_dims} differ from {dims}")
        sets.append((X, label))
    return sets, dims


def read_imageset_dirs(root):
    """Read the root/<class>/<set>/<frame>.pgm layout into labeled data matrices.

    Returns (sets, width, height) where sets is a list of (D x m uint8
    matrix, label) (see ``read_set``). Class ids follow sorted
    class-directory order (1-based); a ``labels.txt`` manifest at the root
    ("<class_dir> <label>" per line) overrides them. The manifest must list
    every class directory and name no other, or ConfigError is raised.
    """
    sets, (height, width) = _read_sets(_set_dirs(root))
    return sets, width, height


# ---------------------------------------------------------------- subspace datasets

def build_classwise_subspace_dataset(images, labels, d, m, sets_per_class, seed):
    """Sample subspaces per class from single images (for image classification).

    ``images`` is (n, D): the uint8 pixel rows of an IDX file or float rows
    (see ``unit_columns``). For each class, draws ``sets_per_class``
    independent groups of ``m`` images (without replacement within a group)
    and converts each group to a d-dimensional subspace. Returns (Subspace,
    label) pairs; deterministic under the seed, and bitwise the same for
    uint8 pixels as for their ``normalize_pixels`` rows. Before any draw, raises ConfigError
    when d is outside [1, D], then InsufficientImages when m < d or a class
    has fewer than m images.
    """
    D = images.shape[1]
    if d < 1 or d > D:
        raise ConfigError(f"d={d} must satisfy 1 <= d <= D = {D}")
    if m < d:
        raise InsufficientImages(f"m={m} images per subspace < d={d}")
    classes = [(label, np.flatnonzero(labels == label)) for label in np.unique(labels)]
    for label, idx in classes:
        if len(idx) < m:
            raise InsufficientImages(f"class {label}: {len(idx)} images < m={m}")
    rng = np.random.default_rng(seed)
    draws = ((images[rng.choice(idx, size=m, replace=False)].T, label)
             for label, idx in classes for _ in range(sets_per_class))
    return build_per_set_subspace_dataset(draws, d)


def build_per_set_subspace_dataset(sets, d, start=0):
    """One d-dimensional subspace per (D x m matrix, label) item of ``sets``,
    the matrix's columns taken by ``unit_columns``.

    Returns (Subspace, label) pairs; errors name the offending set by its
    index counted from ``start``.
    """
    dataset = []
    for i, (X, label) in enumerate(sets, start):
        try:
            dataset.append((subspace_from_set(unit_columns(X), d), int(label)))
        except Exception as exc:
            exc.args = (f"set {i} (label {label}): {exc}",)
            raise
    return dataset


def iter_imageset_blocks(root, d, block):
    """(N,) int64 labels and pixel-major (D, B, d) blocks of the sets under
    ``root``, in ``read_imageset_dirs`` order. The tree and labels.txt are
    checked, and the labels taken, before any frame is read. ``blocks``
    reads ``block`` sets, builds their subspaces (errors name a set by its
    index in the tree) and stacks their bases, dropping the frames and the
    Subspaces before it yields the block."""
    set_dirs = _set_dirs(root)

    def blocks():
        dims = None
        for start in range(0, len(set_dirs), block):
            sets, dims = _read_sets(set_dirs[start:start + block], dims)
            built = build_per_set_subspace_dataset(sets, d, start)
            del sets  # the frames, before the bases are stacked
            stacked = np.stack([s.basis for s, _ in built], axis=1)
            del built
            yield stacked
            del stacked  # before the next block's frames are read

    return np.array([label for _, label in set_dirs], dtype=np.int64), blocks()


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
    """Per-class D x n matrices of the (n, D) ``images`` rows, each class's
    in row order, for the pca prototype init, as a read-only mapping label
    -> matrix. A class's rows are gathered, and uint8 pixels normalised by
    ``unit_columns``, only when its label is read."""
    return _ClassMatrices({int(lab): np.flatnonzero(labels == lab)
                           for lab in np.unique(labels)},
                          lambda rows: unit_columns(images[rows].T))


# ---------------------------------------------------------------- model persistence

def save_model(model: ModelState, path) -> None:
    """Write a v2 model file: header line, float64-LE payload with length
    prefix, then the CRC32 of all of those bytes."""
    header = (
        f"{MODEL_MAGIC} v{MODEL_VERSION} mode={model.mode} "
        f"D={model.ambient_dim} d={model.subspace_dim} "
        f"labels={','.join(str(label) for label in model.labels)}\n"
    )
    payload = np.concatenate([model.stack.ravel(),
                              model.relevance]).astype("<f8").tobytes()
    head = header.encode() + struct.pack("<Q", len(payload) // 8)
    with open(path, "wb") as f:
        f.write(head)
        f.write(payload)
        f.write(struct.pack("<I", zlib.crc32(payload, zlib.crc32(head))))


def load_model(path) -> ModelState:
    """Read a v1 or v2 model file written by save_model; bit-exact round trip."""
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
        raw = f.read()
    if len(raw) < 8:
        raise CorruptModel(f"{path}: missing length prefix")
    (count,) = struct.unpack("<Q", raw[:8])
    payload = memoryview(raw)[8:8 + count * 8]  # a view; ModelState makes the one copy
    if len(payload) != count * 8 or len(raw) < 8 + count * 8 + 4:
        raise CorruptModel(f"{path}: truncated payload")
    (crc,) = struct.unpack("<I", raw[8 + count * 8: 8 + count * 8 + 4])
    head_crc = zlib.crc32(raw[:8], zlib.crc32(line)) if fields[1] != "v1" else 0
    if zlib.crc32(payload, head_crc) != crc:
        raise CorruptModel(f"{path}: checksum failure")
    values = np.frombuffer(payload, dtype="<f8")
    if count != len(labels) * D * d + d:
        raise CorruptModel(f"{path}: payload size inconsistent with header")
    stack = values[:len(labels) * D * d].reshape(len(labels), D, d)
    try:
        protos = [Prototype(Subspace(basis), label)
                  for basis, label in zip(stack, labels)]
        model = ModelState(protos, values[len(labels) * D * d:].copy(), mode, d, D)
    except (ValueError, ConfigError) as exc:
        # the checksum matched, so the writer stored an invalid model
        raise CorruptModel(f"{path}: invalid model: {exc}") from None
    # training keeps a grlgq relevance vector within a few eps of the simplex
    total = float(model.relevance.sum())
    if mode == "grlgq" and abs(total - 1.0) > 1e-12:
        raise CorruptModel(f"{path}: invalid model: grlgq relevance sums to "
                           f"{total!r}, not 1 within 1e-12")
    return model


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
    bases[:, count:] = model.stack.transpose(1, 0, 2)
    names = ([f"sample_{i + 1}" for i in range(count)]
             + [f"prototype_{i + 1}" for i in range(len(model.labels))])
    dist = np.zeros((len(names), len(names)))
    for i in range(len(names) - 1):
        angles = principal_angles_to_stack(bases[:, i:i + 1], bases[:, i + 1:])
        dist[i, i + 1:] = angles[0] ** 2 @ model.relevance
    dist += dist.T
    write_csv(path, names, dist)
