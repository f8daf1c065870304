"""Shared construction helpers for the test suite."""

import struct
import weakref
from types import SimpleNamespace

import numpy as np

from grasslvq import (
    ModelState,
    Prototype,
    SampleOutcome,
    Subspace,
    adaptive_squared_distance,
    principal_decomposition,
)
from grasslvq import model as model_module


def random_subspace(rng, D, d):
    return Subspace(np.linalg.svd(rng.standard_normal((D, d)), full_matrices=False)[0])


def random_orthogonal(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def pair_with_angles(rng, D, angles):
    """Two subspaces in G(D, d) whose principal angles are exactly `angles`.

    Built from a shared orthonormal 2d-column frame [A | B]: the first
    subspace is span(A), the second has columns cos(t_k) a_k + sin(t_k) b_k.
    """
    angles = np.asarray(angles, dtype=float)
    d = angles.shape[0]
    frame = random_subspace(rng, D, 2 * d).basis
    a, b = frame[:, :d], frame[:, d:]
    first = Subspace(a)
    second = Subspace(a * np.cos(angles) + b * np.sin(angles))
    return first, second


def make_outcome(rng, D, d, weights, low=0.1, high=1.4):
    """A sample plus two winner prototypes with angles confined to (low, high).

    Returns (sample, model-free SampleOutcome, prototype subspaces). Angles are
    drawn distinct so the cost is smooth around the construction point.
    """
    sample, w_plus = pair_with_angles(rng, D, _distinct_angles(rng, d, low, high))
    _, w_minus = pair_with_angles(rng, D, _distinct_angles(rng, d, low, high))
    pair = principal_decomposition(sample, np.stack([w_plus.basis, w_minus.basis]))
    d_plus = adaptive_squared_distance(pair[0], weights)
    d_minus = adaptive_squared_distance(pair[1], weights)
    mu = (d_plus - d_minus) / (d_plus + d_minus)
    outcome = SampleOutcome(0, 1, d_plus, d_minus, mu, pair)
    return sample, outcome, (w_plus, w_minus)


def _distinct_angles(rng, d, low, high):
    while True:
        angles = np.sort(rng.uniform(low, high, size=d))
        if np.min(np.diff(angles)) > 0.05 if d > 1 else True:
            return angles


def two_class_model(rng, D, d, mode="glgq", relevance=None):
    protos = [Prototype(random_subspace(rng, D, d), 1),
              Prototype(random_subspace(rng, D, d), 2)]
    if relevance is None:
        relevance = np.ones(d) if mode == "glgq" else np.full(d, 1.0 / d)
    return ModelState(protos, relevance, mode, d, D)


def synthetic_subspace_dataset(rng, classes=3, D=20, d=3, per_class=10,
                               noise=0.02):
    """Noisy samples around random class-center subspaces (in-memory)."""
    dataset = []
    for c in range(classes):
        center = random_subspace(rng, D, d).basis
        for _ in range(per_class):
            noisy = center + noise * rng.standard_normal((D, d))
            sample = Subspace(np.linalg.svd(noisy, full_matrices=False)[0])
            dataset.append((sample, c + 1))
    return dataset


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


def track_kernel_blocks(monkeypatch, owners_die=True):
    """Wrap the distance kernel as ``grasslvq.model`` binds it and record
    every call in the returned namespace: ``shapes``, the shape of each
    ``samples`` block; ``stacks``, each ``stack`` argument; ``owners``,
    weakrefs to the array whose memory each block views (``samples.base``,
    else the block itself). ``all_dead()`` asserts that every block received
    so far is dead, and with ``owners_die`` every owner too. Each call runs
    it first, and a sample source calls it as it makes the next block's
    samples. A source that fills one reused buffer passes ``owners_die=False``
    and checks ``owners`` itself."""
    calls = SimpleNamespace(shapes=[], stacks=[], owners=[])
    blocks = []
    kernel = model_module.principal_angles_to_stack

    def all_dead():
        refs = blocks + calls.owners if owners_die else blocks
        alive = [i for i, ref in enumerate(refs) if ref() is not None]
        assert not alive, f"kernel blocks {alive} outlive their call"

    def tracked(samples, stack, *args, **kwargs):
        all_dead()
        calls.shapes.append(samples.shape)
        calls.stacks.append(stack)
        blocks.append(weakref.ref(samples))
        calls.owners.append(weakref.ref(samples if samples.base is None else samples.base))
        return kernel(samples, stack, *args, **kwargs)

    calls.all_dead = all_dead
    monkeypatch.setattr(model_module, "principal_angles_to_stack", tracked)
    return calls
