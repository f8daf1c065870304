"""Subspace data types and distance/decomposition math on the Grassmann manifold.

A point on G(D, d) is represented by a D x d matrix with orthonormal columns.
All functions here are pure and operate on float64 arrays; 32-bit input is
promoted on construction (arccos near its endpoints loses half the precision
of the cosine, so single precision is not enough for gradient checks).
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    InconsistentDims,
    InsufficientImages,
    RankDeficient,
    SingularFactor,
)

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
    the individual columns (images) of X: X R diag(1/s) gives the basis P to
    about eps * s_1 / s_d (``subspace_from_set`` re-orthonormalises P itself).
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
    are kept for the image-contribution computation. Raises ConfigError when
    d is outside [1, D], then InsufficientImages when X has fewer than d
    columns, then RankDeficient when s_d <= RANK_TOL * s_1.

    For a tall set (m < D) the factors come from the R-SVD (Chan, 1982):
    Householder QR without Q, then the SVD of the m x m triangular R, which
    has the singular values and right singular vectors of X. For m >= D the
    QR would shrink nothing, so the SVD runs on X itself (without keeping
    its left vectors). Either way the d left vectors are X v_k / s_k,
    accurate to about eps * s_1 / s_d in orthonormality, and one Cholesky
    pass brings their Gram matrix to I within a few eps. Every returned
    array is freshly allocated: the basis is a C-contiguous (D, d) array.
    """
    X = _as_f64(X)
    D, m = X.shape
    if d < 1 or d > D:
        raise ConfigError(f"d={d} must satisfy 1 <= d <= D = {D}")
    if m < d:
        raise InsufficientImages(f"{m} frames < d={d}")
    R = np.linalg.qr(X, mode="r") if m < D else X
    _, s, vt = np.linalg.svd(R, full_matrices=False)
    if s[0] == 0.0 or s[d - 1] <= RANK_TOL * s[0]:
        raise RankDeficient(f"set of {m} columns has numerical rank < {d}")
    right = vt[:d].T.copy()
    u = (X @ right) / s[:d]
    basis = u @ np.linalg.inv(np.linalg.cholesky(u.T @ u)).T
    return SubspaceWithFactors(
        subspace=Subspace(basis),
        singular_values=s[:d].copy(),
        right_factors=right,
    )


def principal_decomposition(p1: Subspace, p2: Subspace, product=None) -> PrincipalDecomposition:
    """Principal angles/vectors via the SVD of P1^T P2 (``product``, if already computed).

    Singular values are clamped into [0, 1] before arccos: rounding can push
    them infinitesimally above 1, and the clamp keeps the angles NaN-free.
    arccos is ill-conditioned near 1 (an angle of 1e-12 rounds up to ~1e-8),
    so small angles are refined through the sine of the projection residual.
    """
    if p1.basis.shape != p2.basis.shape:
        raise ValueError("subspaces must share ambient dimension and dimension")
    q_p, s, q_w_t = np.linalg.svd(p1.basis.T @ p2.basis if product is None else product)
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


def principal_angles_to_stack(bases, stack) -> np.ndarray:
    """Principal angles between each sample subspace and every subspace of a stack.

    ``bases`` is one sample, a D x k orthonormal matrix or a length-D unit
    vector (a D x 1 basis), or a (B, D, k) block of B samples; ``stack`` is a
    (P, D, d) array of orthonormal bases. All B x P products basis^T W_p come
    from one batched matmul. Returns ascending angles, (P, min(k, d)) for one
    sample and (B, P, min(k, d)) for a block.

    For k > 1 the cosines are singular values only (no singular vectors) and
    the angles their arccosines. arccos is ill-conditioned near 1, but theta^2
    is not: d(theta^2)/dc -> -2 as theta -> 0, so squared angles, and every
    distance built from them, are accurate to about 2 eps each. For k = 1
    every column is checked to be finite and of unit norm; the cosine is the
    norm of the coefficient vector c, and where it exceeds 0.9 the angle comes
    from the projection residual, arcsin ||x - W c||, which keeps small angles
    accurate too. Raises InconsistentDims when D differs.
    """
    bases = np.asarray(bases, dtype=np.float64)
    block = bases.ndim == 3
    if not block:
        bases = bases.reshape(1, bases.shape[0], -1)
    if bases.shape[1] != stack.shape[1]:
        raise InconsistentDims(
            f"sample has D = {bases.shape[1]} pixels, prototypes have "
            f"D = {stack.shape[1]}")
    if bases.shape[2] == 1:
        angles = _vector_angles(bases[:, :, 0], stack)[:, :, None]
    else:
        angles = angles_from_products(np.matmul(bases.transpose(0, 2, 1)[:, None], stack))
    return angles if block else angles[0]


def angles_from_products(products) -> np.ndarray:
    """Ascending principal angles from (..., k, d) products P^T W (values-only SVD)."""
    cosines = np.linalg.svd(products, compute_uv=False)
    return np.arccos(np.clip(cosines, 0.0, 1.0))


def _vector_angles(x, stack) -> np.ndarray:
    """(B, P) angles between the unit rows of x (B, D) and a (P, D, d) stack.

    The small-angle refinement runs once per prototype, over all its flagged
    rows at once.
    """
    if not np.abs(np.linalg.norm(x, axis=1) - 1.0).max(initial=0.0) <= 1e-8:
        # a NaN or infinite entry fails the norm test too
        if not np.all(np.isfinite(x)):
            raise ValueError("non-finite entries")
        raise ValueError("x must be a unit vector")
    # one GEMM against the stack laid out as D x (P d)
    P, D, d = stack.shape
    coeffs = (x @ stack.transpose(1, 0, 2).reshape(D, P * d)).reshape(-1, P, d)
    cosines = np.linalg.norm(coeffs, axis=2)
    angles = np.arccos(np.minimum(cosines, 1.0))
    flagged = cosines > 0.9
    for p in np.flatnonzero(flagged.any(axis=0)):
        rows = flagged[:, p]
        residual = x[rows] - coeffs[rows, p] @ stack[p].T
        sines = np.sqrt(np.einsum("ij,ij->i", residual, residual))
        angles[rows, p] = np.arcsin(np.minimum(sines, 1.0))
    return angles


def single_vector_angle(x, w: Subspace) -> float:
    """First principal angle between span{x} (x a unit vector) and span(W)."""
    return float(principal_angles_to_stack(x, w.basis[None])[0, 0])


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
    vectors U of the decomposition whose left rotation is `rot_left`, to
    about eps * s_1 / s_d.
    """
    s = factors.singular_values
    if np.any(s < 1e-12):
        raise SingularFactor("singular value below 1e-12; set is ill-conditioned")
    rot_left = _as_f64(rot_left)
    return (factors.right_factors / s) @ rot_left
