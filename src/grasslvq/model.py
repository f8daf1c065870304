"""GLVQ cost, winner selection, gradients, and training on the Grassmann manifold.

Two training modes are supported:

* ``"glgq"``  -- fixed all-ones relevance weights (plain geodesic distance),
* ``"grlgq"`` -- relevance weights on the simplex, learned alongside the
  prototypes with a (smaller) learning rate gamma.

Training is sequential stochastic gradient descent. For each sample one
batched product ranks all prototypes, the winners are taken from per-label
index arrays the model builds once, and one batched principal decomposition
covers the two winners. Both winners then take a step in their rotated
frames V = W Q_W, whose columns stay orthogonal, as one (2, D, d) array
formed in the decomposition's own U buffer, and are re-orthonormalized by a
column rescale; one batched check (finite gradient, rank, finite entries,
orthonormality) covers both steps before either prototype is written, each
with one slice assignment. In grlgq mode the relevance vector follows its
own gradient step, is clipped to be nonnegative, and renormalized onto the
simplex.

``train_step`` runs on these arrays alone. ``find_winners``,
``prototype_gradient``, ``relevance_gradient`` and
``apply_prototype_update`` expose the same steps one at a time, built on the
same private helpers, for callers that want the decomposition.
"""

from collections.abc import Mapping
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import (
    AllZeroRelevance,
    ConfigError,
    DegenerateSample,
    InconsistentDims,
    MissingClassPrototype,
    RankDeficient,
)
from .manifold import (
    RANK_TOL,
    PrincipalDecomposition,
    Subspace,
    angles_from_products,
    check_orthonormal,
    g_matrix_diagonal,
    principal_angles_to_stack,
    principal_decomposition,
    subspace_from_set,
)

MODES = ("glgq", "grlgq")
# Order of the winner axis in SampleOutcome.pair and the gradients.
WINNERS = ("plus", "minus")
DEGENERATE_EPS = 1e-15
# Sample bytes stacked per kernel call in scores: about 167 images at
# D = 784, or 13 sets at D = 400, d = 25 (see eval_block_size).
EVAL_BLOCK_BYTES = 1 << 20


@dataclass(frozen=True, eq=False)
class Prototype:
    subspace: Subspace
    label: int


class ModelState:
    """Labeled prototype subspaces plus the relevance vector.

    The prototypes are stored pixel-major in one C-contiguous (D, P, d)
    array, ``pixel_stack``, beside an integer ``labels`` vector; that array
    is the only copy. ``stack`` is its (P, D, d) view, ``stack[i]`` the
    D x d basis of prototype i. The distance kernel reads ``pixel_stack``
    as one D x (P d) matrix without a copy. ``prototypes`` returns Prototype
    items built on read-only views of it, so the items change when the model
    trains; a caller who needs a snapshot must copy the bases.

    ``labels`` is read-only: the winner search takes each label's prototype
    indices, and those of every other label, from index arrays built once
    here.
    """

    def __init__(self, prototypes: list[Prototype], relevance, mode: str,
                 subspace_dim: int, ambient_dim: int):
        self.pixel_stack = np.empty((ambient_dim, len(prototypes), subspace_dim))
        self.stack = self.pixel_stack.transpose(1, 0, 2)
        labels = np.empty(len(prototypes), dtype=np.int64)
        # first, so a basis load_model streams in is checked before the mode and relevance
        for i, p in enumerate(prototypes):
            if p.subspace.basis.shape != self.stack.shape[1:]:
                raise ConfigError("prototype shape inconsistent with model dims")
            self.stack[i], labels[i] = p.subspace.basis, p.label
        labels.flags.writeable = False
        self._labels = labels
        self._groups = {label: (np.flatnonzero(labels == label),
                                np.flatnonzero(labels != label))
                        for label in set(labels.tolist())}
        if mode not in MODES:
            raise ConfigError(f"unknown mode {mode!r}")
        self.mode = mode
        self.subspace_dim = subspace_dim
        self.ambient_dim = ambient_dim
        self.relevance = np.asarray(relevance, dtype=np.float64)
        if self.relevance.shape != (subspace_dim,):
            raise ConfigError("relevance length must equal the subspace dimension")
        if not np.all((self.relevance >= 0) & (self.relevance < np.inf)):
            raise ConfigError("relevance weights must be nonnegative and finite")
        if mode == "glgq" and not np.all(self.relevance == 1.0):
            raise ConfigError("glgq mode fixes the relevance vector at all-ones")

    @property
    def labels(self) -> np.ndarray:
        return self._labels

    def _winner_groups(self, label) -> tuple[np.ndarray, np.ndarray]:
        """Ascending indices of the prototypes with ``label`` and of all
        others; MissingClassPrototype when either is empty."""
        groups = self._groups.get(label)
        if groups is None:
            raise MissingClassPrototype(f"no prototype with label {label}")
        if not len(groups[1]):
            raise MissingClassPrototype(f"no prototype with label != {label}")
        return groups

    @property
    def prototypes(self) -> list[Prototype]:
        return [Prototype(self.subspace(i), int(label))
                for i, label in enumerate(self.labels)]

    def subspace(self, index: int) -> Subspace:
        """Prototype ``index`` as a Subspace on a read-only view of the stack."""
        view = self.stack[index].view()
        view.flags.writeable = False
        return Subspace(view)


@dataclass
class TrainConfig:
    eta: float
    gamma: float
    epochs: int
    seed: int
    mode: str

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}")
        if not 0 < self.eta < np.inf:  # NaN fails every comparison
            raise ConfigError(f"eta must be positive and finite, got {self.eta!r}")
        if not 0 <= self.gamma < np.inf:
            raise ConfigError(f"gamma must be nonnegative and finite, got {self.gamma!r}")
        if self.epochs < 1:
            raise ConfigError("epochs must be positive")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        if self.mode == "glgq" and self.gamma != 0:
            raise ConfigError("glgq mode requires gamma = 0")
        if self.mode == "grlgq" and self.gamma >= self.eta:
            # relevance weights are updated every sample, so their rate is
            # kept below the prototype rate
            raise ConfigError("grlgq mode requires gamma < eta")


@dataclass(eq=False)
class SampleOutcome:
    """Winner pair of one sample, with the decompositions needed for gradients.

    ``pair`` decomposes the sample against both winners at once; its leading
    axis of 2 holds the same-label winner (plus) first, then the other (minus).
    ``find_winners`` fills it. ``train_step`` returns ``pair=None``: it forms
    its update in the decomposition's U buffer, so a caller who wants the
    decomposition calls ``find_winners`` before the step.
    """

    winner_same: int
    winner_other: int
    d_plus: float
    d_minus: float
    mu: float
    pair: PrincipalDecomposition | None

    @property
    def pd_plus(self) -> PrincipalDecomposition:
        return self.pair[0]

    @property
    def pd_minus(self) -> PrincipalDecomposition:
        return self.pair[1]


def _check_shape(name: str, shape, want) -> None:
    """Raise unless a sample's shape is want, (D,) for a vector or (D, d) for a
    set: InconsistentDims when only D differs, ValueError otherwise."""
    if shape == want:
        return
    if len(shape) == len(want) and shape[1:] == want[1:]:
        raise InconsistentDims(f"{name} has D = {shape[0]} pixels, "
                               f"prototypes have D = {want[0]}")
    if len(want) == 1:
        raise ValueError(f"{name} has shape {shape}, not a vector of length {want[0]}")
    raise ValueError(f"{name} has d = {shape[-1]}, model has d = {want[1]}")


def _winner_pair(model: ModelState, sample: Subspace, label: int):
    """(winners, d+, d-, mu, pair) of one sample: the ranking behind
    ``find_winners`` and ``train_step``.

    All prototypes are ranked by relevance-weighted squared distances from
    one batched product basis^T W_p; the winners are the nearest of the
    model's index arrays for ``label`` and for every other label (ties break
    to the lowest prototype index). Only the two winners are decomposed, in
    one principal_decomposition call on their stack entries and products
    from that batch. The entries are read as raw arrays, through a view of
    the stack: every write to the stack passed the orthonormality check.
    """
    _check_shape("sample", sample.basis.shape, model.stack.shape[1:])
    products = sample.basis.T @ model.stack
    dists = angles_from_products(products) ** 2 @ model.relevance
    winners = [int(group[np.argmin(dists[group])])
               for group in model._winner_groups(label)]
    # both winners as one (2, D, d) view, no copy: the slice from the first
    # that steps to the second
    first, second = winners
    pair = principal_decomposition(sample, model.stack[first::second - first][:2],
                                   products[winners])
    d_plus, d_minus = np.sum(model.relevance * pair.angles ** 2, axis=1).tolist()
    denom = d_plus + d_minus
    mu = (d_plus - d_minus) / denom if denom >= DEGENERATE_EPS else np.nan
    return winners, d_plus, d_minus, mu, pair


def find_winners(model: ModelState, sample: Subspace, label: int) -> SampleOutcome:
    """Closest same-label and closest different-label prototypes to the sample,
    with d+, d-, mu and the decomposition of both winners (``pair``), which
    the gradients read. MissingClassPrototype when no prototype has
    ``label``, or none has another label.
    """
    winners, d_plus, d_minus, mu, pair = _winner_pair(model, sample, label)
    return SampleOutcome(*winners, d_plus, d_minus, mu, pair)


def _denominator(d_plus: float, d_minus: float) -> float:
    denom = d_plus + d_minus
    if denom < DEGENERATE_EPS:
        raise DegenerateSample("sample coincides with prototypes of both polarities")
    return denom


def _gradient_coefficients(d_plus, d_minus, pair, weights) -> np.ndarray:
    """(2, d) column coefficients c of both winners' gradients U c (plus, minus).

    For the same-label winner c = -(2 d- / (d+ + d-)^2) G+;
    for the other-label winner c = +(2 d+ / (d+ + d-)^2) G-.
    """
    denom = _denominator(d_plus, d_minus)
    scale = np.array([[-2.0 * d_minus], [2.0 * d_plus]]) / denom ** 2
    return scale * g_matrix_diagonal(pair, weights)


def _relevance_gradient(d_plus, d_minus, angles) -> np.ndarray:
    """Component k is [2/(d+ + d-)^2] (d- (theta_k+)^2 - d+ (theta_k-)^2)."""
    denom = _denominator(d_plus, d_minus)
    angles_plus, angles_minus = angles
    return (2.0 / denom ** 2) * (d_minus * angles_plus ** 2 - d_plus * angles_minus ** 2)


def prototype_gradient(outcome: SampleOutcome, weights, which: str) -> np.ndarray:
    """Gradient of the sample cost w.r.t. the rotated winner V = W Q_W.

    For the same-label winner: -(2 d- / (d+ + d-)^2) U+ G+;
    for the other-label winner: +(2 d+ / (d+ + d-)^2) U- G-.
    ``outcome`` must hold its decomposition (``find_winners``).
    """
    if which not in WINNERS:
        raise ValueError("which must be 'plus' or 'minus'")
    i = WINNERS.index(which)
    coeffs = _gradient_coefficients(outcome.d_plus, outcome.d_minus, outcome.pair, weights)
    return outcome.pair.principal_left[i] * coeffs[i]


def relevance_gradient(outcome: SampleOutcome) -> np.ndarray:
    """Gradient of the sample cost w.r.t. the relevance weights.

    Component k is [2/(d+ + d-)^2] (d- (theta_k+)^2 - d+ (theta_k-)^2).
    ``outcome`` must hold its decomposition (``find_winners``).
    """
    return _relevance_gradient(outcome.d_plus, outcome.d_minus, outcome.pair.angles)


def _step_winners(model: ModelState, winners, coeffs, pair, eta: float, out=None) -> None:
    """Write V - eta U diag(c) of both winners, columns rescaled to unit norm.

    The update is formed in ``out`` (a fresh array when None; ``train_step``
    passes the pair's own U, which it no longer needs). Checks, in order,
    before either winner is written: a finite gradient, then the rank of
    each update, then ``check_orthonormal`` on both at once. Each winner is
    then written with one slice assignment.
    """
    # |U| <= 1 entrywise, so U c is finite wherever c is
    for which, idx, finite in zip(WINNERS, winners, np.isfinite(coeffs).all(axis=1)):
        if not finite:
            raise FloatingPointError(f"non-finite prototype gradient for winner "
                                     f"{which} (index {idx})")
    updated = np.multiply(pair.principal_left, coeffs[:, None, :], out=out)  # U c
    with np.errstate(over="ignore"):
        # V - eta U c in place; an overflow gives an infinite norm, which the
        # rank test rejects
        updated *= -eta
        updated += pair.principal_right
        norms = np.sqrt(np.einsum("kij,kij->kj", updated, updated))
    for which, idx, low in zip(WINNERS, winners,
                               norms.min(axis=1) <= RANK_TOL * norms.max(axis=1)):
        if low:
            raise RankDeficient(f"update of winner {which} (index {idx}) is rank deficient")
    updated /= norms[:, None, :]
    check_orthonormal(updated)
    for idx, basis in zip(winners, updated):
        model.stack[idx] = basis


def apply_prototype_update(model: ModelState, outcome: SampleOutcome, eta: float) -> None:
    """Gradient step on both winners in their rotated frames, then re-orthonormalize.

    Principal vectors satisfy U^T V = diag(cos theta), so the step
    V - eta * U diag(c) keeps the columns orthogonal, and dividing them by
    their norms (the update's singular values) is a Grassmann retraction; no
    SVD is needed. Both winners are stepped as one (2, D, d) array and both
    are checked (finite gradient, rank, then finite and orthonormal columns)
    before either is written, so a raise leaves the model unchanged. A
    RankDeficient error here means eta is large enough to collapse a
    prototype. ``outcome`` must hold its decomposition (``find_winners``),
    which is left as it is.
    """
    coeffs = _gradient_coefficients(outcome.d_plus, outcome.d_minus, outcome.pair,
                                    model.relevance)
    _step_winners(model, (outcome.winner_same, outcome.winner_other), coeffs,
                  outcome.pair, eta)


def apply_relevance_update(model: ModelState, grad, gamma: float) -> np.ndarray:
    """Relevance step: lambda <- lambda - gamma grad, clip at 0, renormalize."""
    grad = np.asarray(grad, dtype=np.float64)
    if not np.all(np.isfinite(grad)):
        raise FloatingPointError("non-finite relevance gradient")
    raw = np.maximum(model.relevance - gamma * grad, 0.0)
    total = raw.sum()
    if total <= 0.0:
        raise AllZeroRelevance("all relevance weights clipped to zero; reduce gamma")
    model.relevance = raw / total
    return model.relevance


def train_step(model: ModelState, sample: Subspace, label: int,
               config: TrainConfig) -> SampleOutcome:
    """One stochastic update: winners, gradients, prototype (and relevance) step.

    The steps of ``find_winners``, ``relevance_gradient`` and
    ``apply_prototype_update`` on plain arrays, with the same bits: the
    update is formed in the decomposition's U buffer, so the returned
    outcome, which carries the pre-update cost mu for logging, has
    ``pair=None``. With gamma = 0 the relevance vector is left untouched
    (no clipping or renormalization), so a grlgq run with frozen weights
    follows the glgq trajectory exactly. Every prototype check runs before
    either winner is written; a sample that coincides with prototypes of
    both polarities raises DegenerateSample before anything is written.
    """
    winners, d_plus, d_minus, mu, pair = _winner_pair(model, sample, label)
    coeffs = _gradient_coefficients(d_plus, d_minus, pair, model.relevance)
    relevance_step = model.mode == "grlgq" and config.gamma > 0
    if relevance_step:
        grad_rel = _relevance_gradient(d_plus, d_minus, pair.angles)
    _step_winners(model, winners, coeffs, pair, config.eta, out=pair.principal_left)
    if relevance_step:
        apply_relevance_update(model, grad_rel, config.gamma)
    return SampleOutcome(*winners, d_plus, d_minus, mu, None)


def init_prototypes(dataset, d: int, strategy: str, rng,
                    prototypes_per_class: int = 1,
                    class_matrices: Mapping | None = None) -> list[Prototype]:
    """Create prototypes_per_class prototypes for every class in the dataset.

    Strategies:
      * ``random``  -- the span of a D x d Gaussian matrix,
      * ``example`` -- copies of randomly selected same-class sample subspaces,
      * ``pca``     -- top-d left singular vectors of all class images
        concatenated; requires ``class_matrices`` mapping label -> D x n matrix.
        Each class's matrix is read once, in label order, and dropped after
        its ``subspace_from_set``, so a mapping that builds matrices when they
        are read (``dataio.class_image_matrices``) holds one at a time.
    """
    if not dataset:
        raise ConfigError("dataset is empty")
    D = dataset[0][0].ambient_dim
    labels = sorted({y for _, y in dataset})
    protos: list[Prototype] = []
    for label in labels:
        if strategy == "pca":
            if class_matrices is None or label not in class_matrices:
                raise ConfigError("pca init requires per-class image matrices")
            pca = subspace_from_set(class_matrices[label], d)
        for _ in range(prototypes_per_class):
            if strategy == "random":
                basis = subspace_from_set(rng.standard_normal((D, d)), d)
            elif strategy == "example":
                pool = [s for s, y in dataset if y == label]
                basis = Subspace(pool[rng.integers(len(pool))].basis.copy())
            elif strategy == "pca":
                basis = Subspace(pca.basis.copy())
            else:
                raise ConfigError(f"unknown init strategy {strategy!r}")
            protos.append(Prototype(basis, label))
    return protos


def fit(dataset, config: TrainConfig, init: str = "random",
        prototypes_per_class: int = 1, class_matrices: Mapping | None = None,
        model: ModelState | None = None):
    """Train on a list of (subspace, label) pairs; returns (model, epoch stats).

    Every source of randomness (initialization and the per-epoch permutation)
    is drawn from one generator seeded with config.seed, so runs are fully
    deterministic. Epoch stats are (epoch, mean pre-update cost, training
    accuracy); a sample counts as correct when its pre-update mu < 0. A
    given ``model`` trains in place and must have config.mode (ConfigError).
    """
    items = [(s, int(y)) for s, y in dataset]
    if not items:
        raise ConfigError("dataset is empty")
    rng = np.random.default_rng(config.seed)
    if model is None:
        d = items[0][0].dim
        protos = init_prototypes(items, d, init, rng,
                                 prototypes_per_class, class_matrices)
        model = ModelState(
            prototypes=protos,
            relevance=np.ones(d) if config.mode == "glgq" else np.full(d, 1.0 / d),
            mode=config.mode,
            subspace_dim=d,
            ambient_dim=items[0][0].ambient_dim,
        )
    elif model.mode != config.mode:
        raise ConfigError(f"config mode {config.mode!r} differs from the "
                          f"model's mode {model.mode!r}")
    stats = []
    n = len(items)
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n)
        costs = np.empty(n)
        correct = 0
        for pos, j in enumerate(order):
            sample, label = items[j]
            outcome = train_step(model, sample, label, config)
            costs[pos] = outcome.mu
            correct += outcome.mu < 0
        stats.append((epoch, float(costs.mean()), correct / n))
    return model, stats


def _sample_shape(model: ModelState, kind: str) -> tuple:
    """(D,) for a "vectors" sample, (D, d) for a "sets" sample's basis."""
    if kind not in ("sets", "vectors"):
        raise ValueError("kind must be 'sets' or 'vectors'")
    return (model.ambient_dim,) if kind == "vectors" else model.stack.shape[1:]


def eval_block_size(model: ModelState, kind: str) -> int:
    """Samples per ``scores`` block: as many float64 samples of the model's
    shape as fit in EVAL_BLOCK_BYTES, and at least one."""
    return max(1, EVAL_BLOCK_BYTES // (8 * int(np.prod(_sample_shape(model, kind)))))


def score_blocks(model: ModelState, blocks, kind: str) -> np.ndarray:
    """(N, P) scores of pixel-major sample blocks, lowest nearest:
    angles^2 @ relevance for "sets", the first angle for "vectors".

    ``blocks`` is any iterable of (D, B, k) arrays: B vectors (k = 1) for
    "vectors", B orthonormal D x d bases (k = d) for "sets". uint8 vectors
    are pixels, cast into one (B, D) float64 buffer that only a longer block
    replaces; their B norms divide the kernel's cosines. Each block is one
    kernel call, against ``model.pixel_stack`` as it is (no copy of the
    model), and is dropped before the next one is pulled. A block with another
    k raises ValueError; the kernel raises InconsistentDims for another D.
    """
    vectors, rows, buffer = kind == "vectors", [], np.empty((0, 0))
    k = 1 if vectors else _sample_shape(model, kind)[1]  # raises for another kind
    for samples in blocks:
        if samples.ndim != 3 or samples.shape[2] != k:
            raise ValueError(f"block of shape {samples.shape}, not (D, B, {k})")
        pixel_norms = {}  # the kernel's norms= keyword, for pixels only
        if vectors and samples.dtype == np.uint8:
            B, D = samples.shape[1::-1]
            if buffer[:B].shape != (B, D):  # buffer[:B] clamps B to its length
                buffer = np.empty((B, D))
            pixels = buffer[:B]
            pixels[...] = samples[:, :, 0].T
            pixel_norms["norms"] = np.sqrt(np.einsum("ij,ij->i", pixels, pixels))
            samples = pixels.T[:, :, None]
        angles = principal_angles_to_stack(samples, model.pixel_stack, **pixel_norms)
        del samples  # the next block is pulled with this one dropped
        # a vector is labelled by its first principal angle alone
        rows.append(angles[:, :, 0] if vectors else angles ** 2 @ model.relevance)
    return np.concatenate(rows) if rows else np.empty((0, len(model.labels)))


def _sample_blocks(model: ModelState, samples, kind: str):
    """Pixel-major (D, B, k) blocks of ``eval_block_size`` samples, each
    sample's shape checked and named by its position counted from 1."""
    want, block = _sample_shape(model, kind), eval_block_size(model, kind)
    vectors, samples, start = kind == "vectors", iter(samples), 1
    while bases := [np.asarray(s if vectors else s.basis)
                    for s in islice(samples, block)]:
        for i, shape in enumerate((b.shape for b in bases), start):
            _check_shape(f"sample {i}", shape, want)
        start += len(bases)
        # the kernel reads either pixel-major block, (D, B, k), as one
        # D x (B k) matrix without a copy; np.array copies B vectors without
        # np.stack's B expanded views, and its transpose is a view
        stacked = np.array(bases).T[:, :, None] if vectors else np.stack(bases, axis=1)
        del bases  # the kernel runs with no sample of this block alive
        yield stacked
        del stacked  # before the next block's samples are pulled


def scores(model: ModelState, samples, kind: str) -> np.ndarray:
    """(N, P) scores, lowest nearest: angles^2 @ relevance for "sets" (Subspace
    samples), the first angle for "vectors" (uint8 pixel rows or unit vectors).
    ``samples`` is any iterable, grouped into blocks of ``eval_block_size``
    samples for ``score_blocks``: each block's shapes are checked, a bad
    sample named by its position in all of ``samples`` counted from 1
    (InconsistentDims for another D, else ValueError), before it is scored.
    """
    return score_blocks(model, _sample_blocks(model, samples, kind), kind)


def confusion_from_scores(model: ModelState, table, truth):
    """Accuracy and C x C confusion matrix of the row argmins of an (N, P)
    ``scores`` table against the N true labels ``truth``. Labels index the
    matrix in sorted order of the union of true and prototype labels, formed
    without np.union1d, which imports numpy.ma."""
    truth = np.asarray(truth, dtype=np.int64)
    pred = model.labels[np.argmin(table, axis=1)]
    labels = np.array(sorted({*model.labels.tolist(), *truth.tolist()}), dtype=np.int64)
    confusion = np.zeros((len(labels), len(labels)), dtype=np.int64)
    np.add.at(confusion, tuple(np.searchsorted(labels, [truth, pred])), 1)
    accuracy = float(np.trace(confusion) / max(confusion.sum(), 1))
    return accuracy, confusion


def evaluate(model: ModelState, dataset, kind: str = "sets"):
    """Accuracy and C x C confusion matrix of nearest-prototype predictions.

    ``dataset`` is any iterable of (sample, label) pairs; ``kind`` selects
    Subspaces ("sets") or uint8 pixel rows or unit vectors ("vectors").
    ``scores`` pulls it one block at a time, so only the labels and the
    (N, P) score table (160 KB at N = 2000, P = 10) outlive a block; then
    ``confusion_from_scores`` counts the table's argmins.
    """
    truth = []

    def samples():
        for sample, label in dataset:
            truth.append(int(label))
            yield sample

    return confusion_from_scores(model, scores(model, samples(), kind), truth)
