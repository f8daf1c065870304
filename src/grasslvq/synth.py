"""Synthetic image-set benchmark generator.

Each class is a random d-dimensional subspace of R^D with a nonnegative
orthonormal basis (basis vectors live on disjoint random pixel supports, so
frames stay nonnegative and survive the 8-bit PGM round trip without an
additive offset). A sample set stacks frames drawn as basis @ coefficients
plus Gaussian pixel noise, clipped at zero and quantized to 8 bits.
"""

import os

import numpy as np

from .dataio import write_pgm
from .errors import ConfigError

# frame values stay within [0, FRAME_SCALE) before quantization
FRAME_SCALE = 2.0


def _class_basis(rng, ambient, dim):
    """Nonnegative orthonormal basis: disjoint random supports per column."""
    support = rng.permutation(ambient)
    bounds = np.linspace(0, ambient, dim + 1).astype(int)
    basis = np.zeros((ambient, dim))
    for k in range(dim):
        rows = support[bounds[k]:bounds[k + 1]]
        vals = rng.uniform(0.3, 1.0, size=len(rows))
        basis[rows, k] = vals / np.linalg.norm(vals)
    return basis


def _write_set(rng, basis, noise, frames, set_dir, width, height):
    os.makedirs(set_dir, exist_ok=True)
    dim = basis.shape[1]
    for j in range(frames):
        coeffs = rng.uniform(0.3, 1.2, size=dim)
        frame = basis @ coeffs
        if noise > 0:
            frame = frame + noise * rng.standard_normal(basis.shape[0])
        frame = np.clip(frame, 0.0, FRAME_SCALE)
        pixels = np.rint(frame / FRAME_SCALE * 255).astype(np.uint8)
        write_pgm(os.path.join(set_dir, f"frame_{j + 1:03d}.pgm"),
                  pixels.reshape(height, width))


def generate(root, classes, ambient, dim, train_sets, test_sets,
             frames, noise, seed, width=None, height=None):
    """Write train/ and test/ splits in the image-set directory layout.

    ``train_sets`` and ``test_sets`` count sets per class. Frame images are
    width x height PGMs with width*height = ambient (default: one row).
    Arguments out of range, or a ``root`` that already holds a train/ or
    test/ entry, raise ConfigError before anything is written.
    """
    if width is None and height is None:
        width, height = ambient, 1
    if width is None or height is None:
        raise ConfigError("width and height must be given together")
    if width < 1 or height < 1 or width * height != ambient:
        raise ConfigError(f"width {width} x height {height} must be positive "
                          f"and multiply to ambient dim {ambient}")
    if not 1 <= dim <= ambient:
        raise ConfigError(f"dim={dim} must be in [1, ambient={ambient}]")
    if frames < dim:
        raise ConfigError(f"frames={frames} must be >= dim={dim}")
    if classes < 2:
        raise ConfigError("need at least 2 classes")
    if train_sets < 1 or test_sets < 1:
        raise ConfigError("sets per class must be at least 1, got "
                          f"train_sets={train_sets}, test_sets={test_sets}")
    if not 0 <= noise < np.inf:  # NaN fails every comparison
        raise ConfigError(f"noise must be nonnegative and finite, got {noise!r}")
    if seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {seed}")
    for split in ("train", "test"):
        # writing over a used tree would leave its stale sets and frames
        if os.path.lexists(os.path.join(root, split)):
            raise ConfigError(f"{os.path.join(root, split)} already exists")
    rng = np.random.default_rng(seed)
    bases = [_class_basis(rng, ambient, dim) for _ in range(classes)]
    for split, count in (("train", train_sets), ("test", test_sets)):
        for c in range(classes):
            for i in range(count):
                set_dir = os.path.join(root, split, f"class_{c + 1:02d}",
                                       f"set_{i + 1:03d}")
                _write_set(rng, bases[c], noise, frames, set_dir, width, height)
