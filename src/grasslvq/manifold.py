"""Subspace data types and distance/decomposition math on the Grassmann manifold.

A point on G(D, d) is represented by a D x d matrix with orthonormal columns.
All functions here are pure and operate on float64 arrays; 32-bit input is
promoted on construction (arccos near its endpoints loses half the precision
of the cosine, so single precision is not enough for gradient checks).
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InsufficientImages, RankDeficient, SingularFactor

ORTHO_TOL = 1e-8
RANK_TOL = 1e-12


def _as_f64(a) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if not np.all(np.isfinite(a)):
        raise ValueError("non-finite entries")
    return a


@dataclass(frozen=True, eq=False)
class Subspace:
    """An orthonormal basis for a d-dimensional subspace of R^D."""

    basis: np.ndarray  # (D, d), orthonormal columns

    def __post_init__(self):
        basis = _as_f64(self.basis)
        if basis.ndim != 2 or basis.shape[1] > basis.shape[0]:
            raise ValueError(f"basis must be D x d with d <= D, got {basis.shape}")
        gram = basis.T @ basis
        err = np.max(np.abs(gram - np.eye(basis.shape[1])))
        if err > ORTHO_TOL:
            raise ValueError(f"columns not orthonormal (max |B^T B - I| = {err:.3g})")
        object.__setattr__(self, "basis", basis)

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


@dataclass(frozen=True, eq=False)
class SubspaceWithFactors:
    """A subspace built from a data matrix X = P diag(s) R^T, keeping the factors.

    ``singular_values`` and ``right_factors`` retain the first d singular values
    and right singular vectors, which later attribute principal vectors back to
    the individual columns (images) of X.
    """

    subspace: Subspace
    singular_values: np.ndarray  # (d,), descending, all > 0
    right_factors: np.ndarray    # (m, d)

    def __post_init__(self):
        s = _as_f64(self.singular_values)
        r = _as_f64(self.right_factors)
        if np.any(s <= 0) or np.any(np.diff(s) > 0):
            raise ValueError("singular values must be positive and descending")
        if r.shape[1] != self.subspace.dim or s.shape[0] != self.subspace.dim:
            raise ValueError("factor shapes inconsistent with subspace dimension")
        object.__setattr__(self, "singular_values", s)
        object.__setattr__(self, "right_factors", r)


@dataclass(frozen=True, eq=False)
class PrincipalDecomposition:
    """Principal angles and vectors of a subspace pair (P, W).

    ``cosines`` are the singular values of P^T W clamped into [0, 1];
    ``angles`` are their arccosines, ascending. ``principal_left`` is
    U = P Q_P and ``principal_right`` is V = W Q_W, column-paired so that
    u_k^T v_k = cos(theta_k) >= 0.
    """

    angles: np.ndarray          # (d,), ascending, in [0, pi/2]
    cosines: np.ndarray         # (d,), descending, in [0, 1]
    rot_left: np.ndarray        # Q_P, (d, d) orthogonal
    rot_right: np.ndarray       # Q_W, (d, d) orthogonal
    principal_left: np.ndarray  # U, (D, d)
    principal_right: np.ndarray # V, (D, d)

    @property
    def dim(self) -> int:
        return self.angles.shape[0]


def orthonormalize_columns(M) -> Subspace:
    """Return an orthonormal basis spanning the columns of M (via thin SVD).

    Raises RankDeficient if the numerical rank of M is below its column count,
    which during training signals a degenerate prototype update.
    """
    M = _as_f64(M)
    u, s, _ = np.linalg.svd(M, full_matrices=False)
    if s[0] == 0.0 or s[-1] <= RANK_TOL * s[0]:
        raise RankDeficient(
            f"matrix of shape {M.shape} has numerical rank < {M.shape[1]}"
        )
    return Subspace(u[:, : M.shape[1]])


def subspace_from_set(X, d: int) -> SubspaceWithFactors:
    """Build the d-dimensional subspace spanned by a set of column vectors.

    X is a D x m data matrix (one image per column). The subspace is the span
    of the first d left singular vectors; singular values and right factors
    are kept for the image-contribution computation. Raises
    InsufficientImages when X has fewer than d columns.
    """
    X = _as_f64(X)
    D, m = X.shape
    if m < d:
        raise InsufficientImages(f"{m} frames < d={d}")
    if d < 1 or d > D:
        raise ConfigError(f"d={d} must satisfy 1 <= d <= D = {D}")
    u, s, vt = np.linalg.svd(X, full_matrices=False)
    if s[0] == 0.0 or s[d - 1] <= RANK_TOL * s[0]:
        raise RankDeficient(f"set of {m} columns has numerical rank < {d}")
    return SubspaceWithFactors(
        subspace=Subspace(u[:, :d]),
        singular_values=s[:d],
        right_factors=vt[:d].T,
    )


def principal_decomposition(p1: Subspace, p2: Subspace) -> PrincipalDecomposition:
    """Principal angles/vectors of two subspaces via the SVD of P1^T P2.

    Singular values are clamped into [0, 1] before arccos: rounding can push
    them infinitesimally above 1, and the clamp keeps the angles NaN-free.
    arccos is ill-conditioned near 1 (an angle of 1e-12 rounds up to ~1e-8),
    so small angles are refined through the sine of the projection residual.
    """
    if p1.basis.shape != p2.basis.shape:
        raise ValueError("subspaces must share ambient dimension and dimension")
    q_p, s, q_w_t = np.linalg.svd(p1.basis.T @ p2.basis)
    cosines = np.clip(s, 0.0, 1.0)
    angles = np.arccos(cosines)
    q_w = q_w_t.T
    principal_left = p1.basis @ q_p
    principal_right = p2.basis @ q_w
    small = cosines > 0.9
    if np.any(small):
        residual = principal_right - p1.basis @ (p1.basis.T @ principal_right)
        sines = np.clip(np.linalg.norm(residual, axis=0), 0.0, 1.0)
        angles = np.where(small, np.arcsin(sines), angles)
    return PrincipalDecomposition(
        angles=angles,
        cosines=cosines,
        rot_left=q_p,
        rot_right=q_w,
        principal_left=principal_left,
        principal_right=principal_right,
    )


def squared_geodesic_distance(pd: PrincipalDecomposition) -> float:
    """Sum of squared principal angles."""
    return float(np.sum(pd.angles ** 2))


def geodesic_distance(pd: PrincipalDecomposition) -> float:
    """Geodesic distance ||Theta||_2 on the Grassmann manifold."""
    return float(np.sqrt(np.sum(pd.angles ** 2)))


def adaptive_squared_distance(pd: PrincipalDecomposition, weights) -> float:
    """Relevance-weighted squared distance sum_k lambda_k theta_k^2.

    With all-ones weights this reduces to the plain squared geodesic distance.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != pd.angles.shape:
        raise ValueError("relevance length must equal the subspace dimension")
    return float(np.sum(weights * pd.angles ** 2))


def single_vector_angle(x, w: Subspace) -> float:
    """First principal angle between span{x} (x a unit vector) and span(W)."""
    x = _as_f64(x)
    if abs(np.linalg.norm(x) - 1.0) > 1e-8:
        raise ValueError("x must be a unit vector")
    coeffs = w.basis.T @ x
    c = np.linalg.norm(coeffs)
    if c > 0.9:  # arccos loses precision near 1; use the projection residual
        s = min(np.linalg.norm(x - w.basis @ coeffs), 1.0)
        return float(np.arcsin(s))
    return float(np.arccos(min(c, 1.0)))


def g_matrix_diagonal(pd: PrincipalDecomposition, weights) -> np.ndarray:
    """Diagonal of the gradient scaling matrix: 2 lambda_k theta_k / sin(theta_k).

    At theta_k -> 0 the ratio is 0/0; the analytic limit 2 lambda_k is
    substituted whenever 1 - cos^2(theta_k) < 1e-12.
    """
    weights = np.asarray(weights, dtype=np.float64)
    sin_sq = 1.0 - pd.cosines ** 2
    near_zero = sin_sq < 1e-12
    safe = np.where(near_zero, 1.0, sin_sq)
    return np.where(near_zero, 2.0 * weights,
                    2.0 * weights * pd.angles / np.sqrt(safe))


def pixel_influence(pd: PrincipalDecomposition, index: int) -> np.ndarray:
    """Per-pixel contributions u_{k,j} v_{k,j} to cos(theta_k) for angle `index`.

    The entries sum to pd.cosines[index]; large-magnitude entries mark pixels
    that drive the corresponding principal angle.
    """
    if not 0 <= index < pd.dim:
        raise IndexError(f"angle index {index} out of range [0, {pd.dim})")
    return pd.principal_left[:, index] * pd.principal_right[:, index]


def image_contribution(factors: SubspaceWithFactors, rot_left) -> np.ndarray:
    """Contribution matrix M = R diag(1/s) Q_P mapping set columns to principal vectors.

    For the data matrix X that produced `factors`, X @ M recovers the principal
    vectors U of the decomposition whose left rotation is `rot_left`.
    """
    s = factors.singular_values
    if np.any(s < 1e-12):
        raise SingularFactor("singular value below 1e-12; set is ill-conditioned")
    rot_left = _as_f64(rot_left)
    return (factors.right_factors / s) @ rot_left
