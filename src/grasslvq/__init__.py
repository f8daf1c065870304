"""Prototype-based classification on the Grassmann manifold (GLGQ / GRLGQ)."""

from .manifold import (
    PrincipalDecomposition,
    Subspace,
    adaptive_squared_distance,
    g_matrix_diagonal,
    geodesic_distance,
    image_contribution,
    pixel_influence,
    principal_angles_to_stack,
    principal_decomposition,
    single_vector_angle,
    subspace_from_set,
)
from .model import (
    ModelState,
    Prototype,
    SampleOutcome,
    TrainConfig,
    apply_prototype_update,
    apply_relevance_update,
    evaluate,
    find_winners,
    fit,
    init_prototypes,
    prototype_gradient,
    relevance_gradient,
    score_blocks,
    scores,
    train_step,
)

__all__ = [
    "PrincipalDecomposition", "Subspace",
    "adaptive_squared_distance", "g_matrix_diagonal", "geodesic_distance",
    "image_contribution", "pixel_influence", "principal_angles_to_stack",
    "principal_decomposition", "single_vector_angle", "subspace_from_set",
    "ModelState", "Prototype", "SampleOutcome", "TrainConfig",
    "apply_prototype_update", "apply_relevance_update", "evaluate",
    "find_winners", "fit", "init_prototypes", "prototype_gradient",
    "relevance_gradient", "score_blocks", "scores", "train_step",
]

__version__ = "0.1.0"
