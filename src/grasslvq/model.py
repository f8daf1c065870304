"""GLVQ cost, winner selection, gradients, and training on the Grassmann manifold.

Two training modes are supported:

* ``"glgq"``  -- fixed all-ones relevance weights (plain geodesic distance),
* ``"grlgq"`` -- relevance weights on the simplex, learned alongside the
  prototypes with a (smaller) learning rate gamma.

Training is sequential stochastic gradient descent: for each sample the two
winning prototypes are updated in their rotated frames V = W Q_W and then
re-orthonormalized; in grlgq mode the relevance vector follows its own
gradient step, is clipped to be nonnegative, and renormalized onto the
simplex.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    AllZeroRelevance,
    ConfigError,
    DegenerateSample,
    MissingClassPrototype,
)
from .manifold import (
    PrincipalDecomposition,
    Subspace,
    adaptive_squared_distance,
    g_matrix_diagonal,
    orthonormalize_columns,
    principal_decomposition,
    single_vector_angle,
    subspace_from_set,
)

MODES = ("glgq", "grlgq")
DEGENERATE_EPS = 1e-15


@dataclass(eq=False)
class Prototype:
    subspace: Subspace
    label: int


@dataclass(eq=False)
class ModelState:
    """Labeled prototype subspaces plus the relevance vector."""

    prototypes: list[Prototype]
    relevance: np.ndarray
    mode: str
    subspace_dim: int
    ambient_dim: int

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}")
        self.relevance = np.asarray(self.relevance, dtype=np.float64)
        if self.relevance.shape != (self.subspace_dim,):
            raise ConfigError("relevance length must equal the subspace dimension")
        if np.any(self.relevance < 0):
            raise ConfigError("relevance weights must be nonnegative")
        if self.mode == "glgq" and not np.all(self.relevance == 1.0):
            raise ConfigError("glgq mode fixes the relevance vector at all-ones")
        for p in self.prototypes:
            if p.subspace.ambient_dim != self.ambient_dim or p.subspace.dim != self.subspace_dim:
                raise ConfigError("prototype shape inconsistent with model dims")

    @property
    def labels(self) -> list[int]:
        return [p.label for p in self.prototypes]


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
        if self.eta <= 0:
            raise ConfigError("eta must be positive")
        if self.gamma < 0:
            raise ConfigError("gamma must be nonnegative")
        if self.epochs < 1:
            raise ConfigError("epochs must be positive")
        if self.mode == "glgq" and self.gamma != 0:
            raise ConfigError("glgq mode requires gamma = 0")
        if self.mode == "grlgq" and self.gamma >= self.eta:
            # relevance weights are updated every sample, so their rate is
            # kept below the prototype rate
            raise ConfigError("grlgq mode requires gamma < eta")


@dataclass(eq=False)
class SampleOutcome:
    """Winner pair of one sample, with the decompositions needed for gradients."""

    winner_same: int
    winner_other: int
    d_plus: float
    d_minus: float
    mu: float
    pd_plus: PrincipalDecomposition
    pd_minus: PrincipalDecomposition


def find_winners(model: ModelState, sample: Subspace, label: int) -> SampleOutcome:
    """Closest same-label and closest different-label prototypes to the sample.

    Distances are relevance-weighted squared distances; ties break to the
    lowest prototype index.
    """
    best_same = best_other = -1
    d_same = d_other = np.inf
    pd_same = pd_other = None
    for idx, proto in enumerate(model.prototypes):
        pd = principal_decomposition(sample, proto.subspace)
        dist = adaptive_squared_distance(pd, model.relevance)
        if proto.label == label:
            if dist < d_same:
                best_same, d_same, pd_same = idx, dist, pd
        elif dist < d_other:
            best_other, d_other, pd_other = idx, dist, pd
    if best_same < 0:
        raise MissingClassPrototype(f"no prototype with label {label}")
    if best_other < 0:
        raise MissingClassPrototype(f"no prototype with label != {label}")
    denom = d_same + d_other
    mu = (d_same - d_other) / denom if denom >= DEGENERATE_EPS else np.nan
    return SampleOutcome(best_same, best_other, d_same, d_other, mu, pd_same, pd_other)


def sample_cost(outcome: SampleOutcome) -> float:
    """Relative distance difference mu = (d+ - d-)/(d+ + d-) in [-1, 1]."""
    if outcome.d_plus + outcome.d_minus < DEGENERATE_EPS:
        raise DegenerateSample("sample coincides with prototypes of both polarities")
    return outcome.mu


def prototype_gradient(outcome: SampleOutcome, weights, which: str) -> np.ndarray:
    """Gradient of the sample cost w.r.t. the rotated winner V = W Q_W.

    For the same-label winner: -(2 d- / (d+ + d-)^2) U+ G+;
    for the other-label winner: +(2 d+ / (d+ + d-)^2) U- G-.
    """
    denom = outcome.d_plus + outcome.d_minus
    if denom < DEGENERATE_EPS:
        raise DegenerateSample("sample coincides with prototypes of both polarities")
    if which == "plus":
        pd, scale = outcome.pd_plus, -2.0 * outcome.d_minus / denom ** 2
    elif which == "minus":
        pd, scale = outcome.pd_minus, 2.0 * outcome.d_plus / denom ** 2
    else:
        raise ValueError("which must be 'plus' or 'minus'")
    g = g_matrix_diagonal(pd, weights)
    return scale * (pd.principal_left * g)


def relevance_gradient(outcome: SampleOutcome) -> np.ndarray:
    """Gradient of the sample cost w.r.t. the relevance weights.

    Component k is [2/(d+ + d-)^2] (d- (theta_k+)^2 - d+ (theta_k-)^2).
    """
    denom = outcome.d_plus + outcome.d_minus
    if denom < DEGENERATE_EPS:
        raise DegenerateSample("sample coincides with prototypes of both polarities")
    return (2.0 / denom ** 2) * (
        outcome.d_minus * outcome.pd_plus.angles ** 2
        - outcome.d_plus * outcome.pd_minus.angles ** 2
    )


def apply_prototype_update(model: ModelState, outcome: SampleOutcome, eta: float) -> None:
    """Gradient step on both winners in their rotated frames, then re-orthonormalize.

    Only the two winning prototypes change; a RankDeficient error here means
    eta is large enough to collapse a prototype.
    """
    for which, idx in (("plus", outcome.winner_same), ("minus", outcome.winner_other)):
        grad = prototype_gradient(outcome, model.relevance, which)
        if not np.all(np.isfinite(grad)):
            raise FloatingPointError(
                f"non-finite prototype gradient for winner {which} (index {idx})"
            )
        pd = outcome.pd_plus if which == "plus" else outcome.pd_minus
        updated = pd.principal_right - eta * grad
        model.prototypes[idx].subspace = orthonormalize_columns(updated)


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

    Returns the outcome with the pre-update cost mu for logging. With gamma = 0
    the relevance vector is left untouched (no clipping or renormalization), so
    a grlgq run with frozen weights follows the glgq trajectory exactly.
    """
    outcome = find_winners(model, sample, label)
    sample_cost(outcome)  # raises DegenerateSample before anything mutates
    relevance_step = model.mode == "grlgq" and config.gamma > 0
    grad_rel = relevance_gradient(outcome) if relevance_step else None
    apply_prototype_update(model, outcome, config.eta)
    if relevance_step:
        apply_relevance_update(model, grad_rel, config.gamma)
    return outcome


def init_prototypes(dataset, d: int, strategy: str, rng,
                    prototypes_per_class: int = 1,
                    class_matrices: dict | None = None) -> list[Prototype]:
    """Create prototypes_per_class prototypes for every class in the dataset.

    Strategies:
      * ``random``  -- orthonormalized Gaussian matrices,
      * ``example`` -- copies of randomly selected same-class sample subspaces,
      * ``pca``     -- top-d left singular vectors of all class images
        concatenated; requires ``class_matrices`` mapping label -> D x n matrix.
    """
    if not dataset:
        raise ConfigError("dataset is empty")
    D = dataset[0][0].ambient_dim
    labels = sorted({y for _, y in dataset})
    protos: list[Prototype] = []
    for label in labels:
        for _ in range(prototypes_per_class):
            if strategy == "random":
                basis = orthonormalize_columns(rng.standard_normal((D, d)))
            elif strategy == "example":
                pool = [s for s, y in dataset if y == label]
                basis = Subspace(pool[rng.integers(len(pool))].basis.copy())
            elif strategy == "pca":
                if class_matrices is None or label not in class_matrices:
                    raise ConfigError("pca init requires per-class image matrices")
                basis = subspace_from_set(class_matrices[label], d).subspace
            else:
                raise ConfigError(f"unknown init strategy {strategy!r}")
            protos.append(Prototype(basis, label))
    return protos


def initial_relevance(d: int, mode: str) -> np.ndarray:
    """All-ones for glgq; uniform simplex weights 1/d for grlgq."""
    return np.ones(d) if mode == "glgq" else np.full(d, 1.0 / d)


def fit(dataset, config: TrainConfig, init: str = "random",
        prototypes_per_class: int = 1, class_matrices: dict | None = None,
        model: ModelState | None = None):
    """Train on a list of (subspace, label) pairs; returns (model, epoch stats).

    Every source of randomness (initialization and the per-epoch permutation)
    is drawn from one generator seeded with config.seed, so runs are fully
    deterministic. Epoch stats are (epoch, mean pre-update cost, training
    accuracy); a sample counts as correct when its pre-update mu < 0.
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
            relevance=initial_relevance(d, config.mode),
            mode=config.mode,
            subspace_dim=d,
            ambient_dim=items[0][0].ambient_dim,
        )
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


def predict_set(model: ModelState, sample: Subspace):
    """Nearest-prototype label for a subspace, plus distances to all prototypes."""
    dists = np.array([
        adaptive_squared_distance(principal_decomposition(sample, p.subspace),
                                  model.relevance)
        for p in model.prototypes
    ])
    return model.prototypes[int(np.argmin(dists))].label, dists


def predict_vector(model: ModelState, x):
    """Nearest-prototype label for a single unit vector via the first principal angle."""
    angles = np.array([single_vector_angle(x, p.subspace) for p in model.prototypes])
    return model.prototypes[int(np.argmin(angles))].label, angles


def evaluate(model: ModelState, dataset, kind: str = "sets"):
    """Accuracy and C x C confusion matrix of nearest-prototype predictions.

    ``kind`` selects subspace samples ("sets") or unit-vector samples
    ("vectors"); labels index the confusion matrix in sorted order of the
    union of dataset and prototype labels.
    """
    labels = sorted(set(model.labels) | {int(y) for _, y in dataset})
    index = {lab: i for i, lab in enumerate(labels)}
    confusion = np.zeros((len(labels), len(labels)), dtype=np.int64)
    for sample, y in dataset:
        if kind == "sets":
            pred, _ = predict_set(model, sample)
        elif kind == "vectors":
            pred, _ = predict_vector(model, sample)
        else:
            raise ValueError("kind must be 'sets' or 'vectors'")
        confusion[index[int(y)], index[pred]] += 1
    accuracy = float(np.trace(confusion) / max(confusion.sum(), 1))
    return accuracy, confusion

