"""Dataset ingestion, model persistence, and artifact exporters.

File formats:
  * IDX (big-endian, magics 0x00000803 / 0x00000801) for MNIST-style data,
  * binary 8-bit PGM (P5) for image frames, prototype images, and influence maps,
  * CSV with ',' separators and '\\n' line endings for everything plottable,
  * a versioned binary model file (header line, length-prefixed float64
    little-endian payload, trailing CRC32).

Ingested image vectors are L2-normalized by one helper, ``normalize_pixels``,
so every column entering a subspace construction has unit norm, except that
an all-black image stays zero.
"""

import os
import re
import struct
import zlib

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
from .model import ModelState, Prototype, scores

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801
MODEL_MAGIC = "GRASSLVQ"
MODEL_VERSION = 1

# P5 magic, then width, height and maxval as whitespace-separated tokens with
# '#' comments running to end of line, then one whitespace byte before pixels.
_PGM_HEADER = re.compile(rb"P5" + rb"(?:\s|#[^\n]*\n)+([^\s#]\S*)" * 3 + rb"\s")


# ---------------------------------------------------------------- IDX

def _read_exact(f, n, path):
    data = f.read(n)
    if len(data) != n:
        raise TruncatedFile(f"{path}: expected {n} more bytes, got {len(data)}")
    return data


def read_idx_images(path) -> np.ndarray:
    """Read an IDX image file into an (n, D) float64 array of unit-norm rows."""
    with open(path, "rb") as f:
        magic, count, rows, cols = struct.unpack(">iiii", _read_exact(f, 16, path))
        if magic != IDX_IMAGES_MAGIC:
            raise BadMagic(f"{path}: magic 0x{magic:08x}, expected 0x{IDX_IMAGES_MAGIC:08x}")
        raw = _read_exact(f, count * rows * cols, path)
    images = np.frombuffer(raw, dtype=np.uint8).reshape(count, rows * cols)
    return normalize_pixels(images), rows, cols


def normalize_pixels(pixels) -> np.ndarray:
    """L2-normalize (n, D) 8-bit pixel rows in one new float64 array (a /255
    pass would be undone). An all-zero (black) row stays zero, so it adds no
    direction to a subspace."""
    images = pixels.astype(np.float64)
    norms = np.sqrt(np.einsum("ij,ij->i", images, images))
    norms[norms == 0] = 1.0
    return np.divide(images, norms[:, None], out=images)


def read_idx_labels(path) -> np.ndarray:
    """Read an IDX label file into an (n,) integer array."""
    with open(path, "rb") as f:
        magic, count = struct.unpack(">ii", _read_exact(f, 8, path))
        if magic != IDX_LABELS_MAGIC:
            raise BadMagic(f"{path}: magic 0x{magic:08x}, expected 0x{IDX_LABELS_MAGIC:08x}")
        raw = _read_exact(f, count, path)
    return np.frombuffer(raw, dtype=np.uint8).astype(np.int64)


def read_idx_dataset(images_path, labels_path):
    """Read paired IDX files; returns (images (n, D), labels (n,), rows, cols)."""
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
    with open(path, "rb") as f:
        data = f.read()
    if not data.startswith(b"P5"):
        raise UnsupportedFormat(f"{path}: not a binary PGM (P5) file")
    header = _PGM_HEADER.match(data)
    if header is None:
        raise TruncatedFile(f"{path}: header ends early")
    if not all(t.isdigit() for t in header.groups()):
        raise UnsupportedFormat(f"{path}: malformed PGM header")
    width, height, maxval = (int(t) for t in header.groups())
    if maxval != 255:
        raise UnsupportedFormat(f"{path}: only 8-bit PGM supported (maxval={maxval})")
    pos = header.end()
    pixels = data[pos:pos + width * height]
    if len(pixels) != width * height:
        raise TruncatedFile(f"{path}: expected {width * height} pixels, got {len(pixels)}")
    return np.frombuffer(pixels, dtype=np.uint8).reshape(height, width)


def write_pgm(path, image: np.ndarray) -> None:
    """Write an (h, w) uint8 array as a binary PGM (P5) file."""
    image = np.asarray(image, dtype=np.uint8)
    h, w = image.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode())
        f.write(image.tobytes())


# ---------------------------------------------------------------- image-set dirs

def read_set(set_dir):
    """Read one image-set directory of PGM frames into a D x m data matrix.

    Frames are taken in sorted file-name order, one column each,
    L2-normalized by ``normalize_pixels`` (an all-black frame becomes a zero
    column). Returns (X, (height, width)).
    """
    frames = sorted(e for e in os.listdir(set_dir) if e.endswith(".pgm"))
    if not frames:
        raise EmptySet(f"{set_dir}: no .pgm frames")
    rows, dims = [], None
    for frame in frames:
        img = read_pgm(os.path.join(set_dir, frame))
        if dims is None:
            dims = img.shape
        elif img.shape != dims:
            raise InconsistentDims(
                f"{set_dir}/{frame}: {img.shape} differs from {dims}"
            )
        rows.append(img.ravel())
    return normalize_pixels(np.array(rows)).T, dims


def read_imageset_dirs(root):
    """Read the root/<class>/<set>/<frame>.pgm layout into labeled data matrices.

    Returns (sets, width, height) where sets is a list of (D x m matrix, label)
    with unit-norm columns (see ``read_set``). Class ids follow sorted
    class-directory order (1-based); a ``labels.txt`` manifest at the root
    ("<class_dir> <label>" per line) overrides them.
    """
    class_dirs = sorted(
        e for e in os.listdir(root) if os.path.isdir(os.path.join(root, e))
    )
    if not class_dirs:
        raise EmptySet(f"{root}: no class directories")
    labels = {name: i + 1 for i, name in enumerate(class_dirs)}
    manifest = os.path.join(root, "labels.txt")
    if os.path.isfile(manifest):
        with open(manifest) as f:
            for lineno, line in enumerate(f, 1):
                line = line.strip()
                if line and not line.startswith("#"):
                    try:
                        name, lab = line.split()
                        labels[name] = int(lab)
                    except ValueError:
                        raise ConfigError(f"{manifest}:{lineno}: expected "
                                          "'<class-dir> <integer>'") from None

    sets, dims = [], None
    for class_dir in class_dirs:
        class_path = os.path.join(root, class_dir)
        set_dirs = sorted(
            e for e in os.listdir(class_path)
            if os.path.isdir(os.path.join(class_path, e))
        )
        for set_dir in set_dirs:
            set_path = os.path.join(class_path, set_dir)
            X, set_dims = read_set(set_path)
            if dims is None:
                dims = set_dims
            elif set_dims != dims:
                raise InconsistentDims(
                    f"{set_path}: frames {set_dims} differ from {dims}"
                )
            sets.append((X, labels[class_dir]))
    if not sets:
        raise EmptySet(f"{root}: no image-set directories")
    height, width = dims
    return sets, width, height


# ---------------------------------------------------------------- subspace datasets

def build_classwise_subspace_dataset(images, labels, d, m, sets_per_class, seed):
    """Sample subspaces per class from single images (for image classification).

    For each class, draws ``sets_per_class`` independent groups of ``m`` images
    (without replacement within a group) and converts each group to a
    d-dimensional subspace. Returns (Subspace, label) pairs; deterministic
    under the seed. Before any draw, raises ConfigError when d is outside
    [1, D], then InsufficientImages when m < d.
    """
    D = images.shape[1]
    if d < 1 or d > D:
        raise ConfigError(f"d={d} must satisfy 1 <= d <= D = {D}")
    if m < d:
        raise InsufficientImages(f"m={m} images per subspace < d={d}")
    rng = np.random.default_rng(seed)
    dataset = []
    for label in np.unique(labels):
        idx = np.flatnonzero(labels == label)
        if len(idx) < m:
            raise InsufficientImages(
                f"class {label}: {len(idx)} images < m={m}"
            )
        for _ in range(sets_per_class):
            pick = rng.choice(idx, size=m, replace=False)
            X = images[pick].T  # D x m
            dataset.append((subspace_from_set(X, d).subspace, int(label)))
    return dataset


def build_per_set_subspace_dataset(sets, d):
    """One d-dimensional subspace per image set (for image-set classification).

    Returns (Subspace, label) pairs; errors name the offending set.
    """
    dataset = []
    for i, (X, label) in enumerate(sets):
        try:
            dataset.append((subspace_from_set(X, d).subspace, int(label)))
        except Exception as exc:
            exc.args = (f"set {i} (label {label}): {exc}",)
            raise
    return dataset


def class_image_matrices(images, labels):
    """Per-class D x n matrices of all images, for PCA prototype initialization."""
    return {int(lab): images[np.flatnonzero(labels == lab)].T
            for lab in np.unique(labels)}


# ---------------------------------------------------------------- model persistence

def save_model(model: ModelState, path) -> None:
    """Write a model file: header line, float64-LE payload with length prefix, CRC32."""
    header = (
        f"{MODEL_MAGIC} v{MODEL_VERSION} mode={model.mode} "
        f"D={model.ambient_dim} d={model.subspace_dim} "
        f"labels={','.join(str(label) for label in model.labels)}\n"
    )
    payload = np.concatenate([model.stack.ravel(),
                              model.relevance]).astype("<f8").tobytes()
    with open(path, "wb") as f:
        f.write(header.encode())
        f.write(struct.pack("<Q", len(payload) // 8))
        f.write(payload)
        f.write(struct.pack("<I", zlib.crc32(payload)))


def load_model(path) -> ModelState:
    """Read a model file written by save_model; bit-exact round trip."""
    with open(path, "rb") as f:
        header = f.readline().decode(errors="replace").strip()
        fields = header.split()
        if len(fields) < 2 or fields[0] != MODEL_MAGIC:
            raise CorruptModel(f"{path}: unrecognized header")
        if fields[1] != f"v{MODEL_VERSION}":
            raise VersionMismatch(f"{path}: format {fields[1]}, expected v{MODEL_VERSION}")
        try:
            meta = dict(field.split("=", 1) for field in fields[2:])
            mode = meta["mode"]
            D, d = int(meta["D"]), int(meta["d"])
            labels = [int(t) for t in meta["labels"].split(",")]
        except (KeyError, ValueError):
            raise CorruptModel(f"{path}: malformed header {header!r}") from None
        raw = f.read()
    if len(raw) < 8:
        raise CorruptModel(f"{path}: missing length prefix")
    (count,) = struct.unpack("<Q", raw[:8])
    payload = raw[8:8 + count * 8]
    if len(payload) != count * 8 or len(raw) < 8 + count * 8 + 4:
        raise CorruptModel(f"{path}: truncated payload")
    (crc,) = struct.unpack("<I", raw[8 + count * 8: 8 + count * 8 + 4])
    if zlib.crc32(payload) != crc:
        raise CorruptModel(f"{path}: checksum failure")
    values = np.frombuffer(payload, dtype="<f8")
    if count != len(labels) * D * d + d:
        raise CorruptModel(f"{path}: payload size inconsistent with header")
    stack = values[:len(labels) * D * d].reshape(len(labels), D, d)
    try:
        protos = [Prototype(Subspace(basis), label)
                  for basis, label in zip(stack, labels)]
        return ModelState(protos, values[len(labels) * D * d:].copy(), mode, d, D)
    except (ValueError, ConfigError) as exc:
        # the checksum matched, so the writer stored an invalid model
        raise CorruptModel(f"{path}: invalid model: {exc}") from None


# ---------------------------------------------------------------- exporters

def export_relevance_csv(model: ModelState, path) -> None:
    with open(path, "w") as f:
        f.write("index,lambda\n")
        for i, lam in enumerate(model.relevance):
            f.write(f"{i + 1},{float(lam)!r}\n")


def _rescale_full_range(values):
    lo, hi = values.min(), values.max()
    scale = hi - lo
    if scale == 0:
        return np.zeros_like(values, dtype=np.uint8), lo, hi
    return np.clip(np.rint((values - lo) / scale * 255), 0, 255).astype(np.uint8), lo, hi


def export_prototype_images(model: ModelState, proto_index, width, height, out_dir) -> None:
    """One PGM per principal vector of the prototype, rescaled to full 8-bit range.

    The per-image rescaling intervals are documented in a ``rescale.txt``
    sidecar so pixel values can be mapped back.
    """
    if width <= 0 or height <= 0 or width * height != model.ambient_dim:
        raise ConfigError(f"width {width} x height {height} = {width * height} "
                          f"pixels, but the model has D = {model.ambient_dim}")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "rescale.txt"), "w") as sidecar:
        sidecar.write(f"prototype {proto_index} label {model.labels[proto_index]}\n")
        sidecar.write("pixel = min + raw/255 * (max - min)\n")
        for k in range(model.subspace_dim):
            column = model.stack[proto_index, :, k]
            img, lo, hi = _rescale_full_range(column)
            name = f"prototype_{proto_index}_vector_{k + 1}.pgm"
            write_pgm(os.path.join(out_dir, name), img.reshape(height, width))
            sidecar.write(f"{name} min={float(lo)!r} max={float(hi)!r}\n")


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


def export_distance_matrix_csv(model: ModelState, dataset, path) -> None:
    """Symmetric (N+p) x (N+p) matrix of pairwise adaptive squared distances.

    Rows/columns list the N dataset subspaces first, then the p prototypes;
    the header names each column. External embedding tools (e.g. t-SNE)
    consume this matrix directly.
    """
    samples = [s for s, _ in dataset]
    n = len(samples)
    names = ([f"sample_{i + 1}" for i in range(n)]
             + [f"prototype_{i + 1}" for i in range(len(model.labels))])
    dist = np.zeros((len(names), len(names)))
    dist[:n, n:] = scores(model, samples, "sets")
    dist[n:, n:] = np.triu(scores(model, [p.subspace for p in model.prototypes], "sets"), 1)
    # sample pairs involve no prototype: one kernel call per pair, no dataset copy
    for i, a in enumerate(samples):
        for j in range(i + 1, n):
            angles = principal_angles_to_stack(a.basis, samples[j].basis[None])
            dist[i, j] = (angles ** 2 @ model.relevance)[0]
    dist += dist.T
    with open(path, "w") as f:
        f.write(",".join(names) + "\n")
        for row in dist:
            f.write(",".join(repr(float(v)) for v in row) + "\n")
