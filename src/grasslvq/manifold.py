"""Subspace data types and distance/decomposition math on the Grassmann manifold.

A point on G(D, d) is represented by a D x d matrix with orthonormal columns.
All functions here are pure and operate on float64 arrays; 32-bit input is
promoted on construction (arccos near its endpoints loses half the precision
of the cosine, so single precision is not enough for gradient checks).
"""

from dataclasses import dataclass, fields

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


def unit_columns(X):
    """The D x n matrix X for a subspace or a class matrix: uint8 columns
    are pixels, L2-normalised row by row on X^T into float64, so a column
    has the bits it has in the normalised whole; an all-zero (black) column
    stays zero. Float columns are used as they are."""
    if X.dtype != np.uint8:
        return X
    rows = X.T.astype(np.float64)
    norms = np.sqrt(np.einsum("ij,ij->i", rows, rows))
    norms[norms == 0] = 1.0
    return np.divide(rows, norms[:, None], out=rows).T


def check_orthonormal(bases, name=lambda i: "") -> None:
    """Raise ValueError unless every D x d basis of a (k, D, d) float64 stack
    is finite with B^T B within ORTHO_TOL of I, entrywise.

    One isfinite pass and one batched Gram product cover the stack. Bases
    are judged in order, each for non-finite entries first, so the error is
    the one ``Subspace`` raises for the first bad basis, i, led by
    ``name(i)``; no Gram matrix is formed from a non-finite basis.
    """
    finite = np.isfinite(bases).all(axis=(1, 2))
    k = len(bases) if finite.all() else int(np.argmin(finite))
    gram = np.swapaxes(bases[:k], 1, 2) @ bases[:k]
    for i, err in enumerate(np.abs(gram - np.eye(bases.shape[2])).max(axis=(1, 2))):
        if err > ORTHO_TOL:
            raise ValueError(f"{name(i)}columns not orthonormal (max |B^T B - I| = {err:.3g})")
    if k < len(bases):
        raise ValueError(f"{name(k)}non-finite entries")


@dataclass(frozen=True, eq=False)
class Subspace:
    """An orthonormal basis for a d-dimensional subspace of R^D."""

    basis: np.ndarray  # (D, d), orthonormal columns

    def __post_init__(self):
        basis = np.asarray(self.basis, dtype=np.float64)
        if basis.ndim != 2 or basis.shape[1] > basis.shape[0]:
            raise ValueError(f"basis must be D x d with d <= D, got {basis.shape}")
        check_orthonormal(basis[None])
        object.__setattr__(self, "basis", basis)

    @classmethod
    def _view(cls, basis):  # of a read-only stack, checked as it was written
        subspace = object.__new__(cls)
        object.__setattr__(subspace, "basis", basis)
        return subspace

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


@dataclass(frozen=True, eq=False)
class PrincipalDecomposition:
    """Principal angles and vectors of a subspace pair (P, W), or of P against
    each of k subspaces, with a leading axis of k on every field.

    ``cosines`` are the singular values s_k of P^T W clamped into [0, 1];
    ``angles`` are atan2(||v_k - s_k u_k||, s_k) (see principal_decomposition
    for their order). ``principal_left`` is U = P Q_P and ``principal_right``
    is V = W Q_W, column-paired so that u_k^T v_k = cos(theta_k) >= 0.
    """

    angles: np.ndarray          # (d,), in [0, pi/2]
    cosines: np.ndarray         # (d,), descending, in [0, 1]
    rot_left: np.ndarray        # Q_P, (d, d) orthogonal
    rot_right: np.ndarray       # Q_W, (d, d) orthogonal
    principal_left: np.ndarray  # U, (D, d)
    principal_right: np.ndarray # V, (D, d)

    @property
    def dim(self) -> int:
        return self.angles.shape[-1]

    def __getitem__(self, index) -> "PrincipalDecomposition":
        """The decomposition(s) at ``index`` of a batched result's leading axis."""
        return PrincipalDecomposition(*(getattr(self, f.name)[index] for f in fields(self)))


def subspace_from_set(X, d: int) -> Subspace:
    """Build the d-dimensional subspace spanned by a set of column vectors.

    X is a D x m data matrix (one image per column): uint8 pixels, which
    ``unit_columns`` normalises here, or float columns, used as they are.
    The subspace is the span of the first d left singular vectors. Raises
    ConfigError when d is outside [1, D], then InsufficientImages when X has
    fewer than d columns, then RankDeficient when s_d <= RANK_TOL * s_1.

    The factors come from the R-SVD (Chan, 1982) of whichever of X and X^T
    is tall: a Householder QR without Q, then the SVD of the square
    triangular R. For a tall set (m < D) the QR of X gives an m x m R with
    the singular values and right singular vectors of X, and the d left
    vectors are X v_k / s_k, accurate to about eps * s_1 / s_d in
    orthonormality. For a wide set (m >= D, a whole class for the pca init)
    the QR of X^T gives a D x D R whose right singular vectors are the left
    ones of X, orthonormal as they come, and the right vectors are
    X^T u_k / s_k. Either way one Cholesky pass brings the left vectors'
    Gram matrix to I within a few eps. The basis is a freshly allocated,
    C-contiguous (D, d) array.
    """
    return Subspace(_factor_set(X, d)[0])


def _factor_set(X, d: int, out=None):
    """(basis, s_d, V_d) of subspace_from_set: the orthonormal (D, d) basis,
    written into ``out`` if given, the first d singular values and the first
    d right singular vectors, (m, d), of X's columns as ``unit_columns`` takes them."""
    X = _as_f64(unit_columns(np.asarray(X)))
    D, m = X.shape
    if d < 1 or d > D:
        raise ConfigError(f"d={d} must satisfy 1 <= d <= D = {D}")
    if m < d:
        raise InsufficientImages(f"{m} frames < d={d}")
    # A is whichever of X and X^T is tall; its QR leaves a square R
    wide = m >= D
    A = X.T if wide else X
    _, s, vt = np.linalg.svd(np.linalg.qr(A, mode="r"), full_matrices=False)
    if s[0] == 0.0 or s[d - 1] <= RANK_TOL * s[0]:
        raise RankDeficient(f"set of {m} columns has numerical rank < {d}")
    a_right = vt[:d].T.copy()
    a_left = (A @ a_right) / s[:d]
    u, right = (a_right, a_left) if wide else (a_left, a_right)
    basis = np.matmul(u, np.linalg.inv(np.linalg.cholesky(u.T @ u)).T, out=out)
    return basis, s[:d], right


def principal_decomposition(p1: Subspace, p2, product=None) -> PrincipalDecomposition:
    """Principal angles/vectors via the SVD of P1^T P2 (``product``, if already computed).

    ``p2`` is a Subspace, or a (k, D, d) stack of orthonormal bases (raw
    arrays, not validated here), whose k products, given as a (k, d, d)
    ``product``, go to one batched SVD; every field of the result then has a
    leading axis of k, and ``result[i]`` is the decomposition against stack
    entry i.

    Every angle is atan2(||v_k - s_k u_k||, s_k), the sine being the norm of the
    projection residual V - P1 P1^T V = V - U diag(s): accurate at every angle,
    where arccos of s rounds 1e-12 up to ~1e-8. Angles ascend, except those
    whose cosines tie at 1.0 in float64 (below about 1e-8): they keep SVD order.
    """
    basis = p2.basis if isinstance(p2, Subspace) else p2
    if basis.shape[-2:] != p1.basis.shape:
        raise ValueError("subspaces must share ambient dimension and dimension")
    q_p, s, q_w_t = np.linalg.svd(p1.basis.T @ basis if product is None else product)
    q_w = np.swapaxes(q_w_t, -1, -2)
    principal_left = p1.basis @ q_p
    principal_right = basis @ q_w
    residual = principal_left * s[..., None, :]
    np.subtract(principal_right, residual, out=residual)
    # column norms; einsum is several times faster than np.linalg.norm here
    sines = np.sqrt(np.einsum("...ij,...ij->...j", residual, residual))
    return PrincipalDecomposition(
        angles=np.arctan2(sines, s),
        cosines=np.clip(s, 0.0, 1.0),
        rot_left=q_p,
        rot_right=q_w,
        principal_left=principal_left,
        principal_right=principal_right,
    )


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


def principal_angles_to_stack(samples, stack, norms=None) -> np.ndarray:
    """Principal angles between each sample subspace and every subspace of a stack.

    Both arguments are pixel-major: ``samples`` is a (D, B, k) array of B
    orthonormal D x k bases (k = 1 for vectors) and ``stack`` a (D, P, d)
    array of P orthonormal D x d bases. All B x P products basis^T W_p come
    from one GEMM, of the samples side by side, D x (B k), transposed, by
    the stack side by side, D x (P d). Returns ascending angles,
    (B, P, min(k, d)).

    For k > 1 the cosines are singular values only (no singular vectors) and
    the angles their arccosines. arccos is ill-conditioned near 1, but theta^2
    is not: d(theta^2)/dc -> -2 as theta -> 0, so squared angles, and every
    distance built from them, are accurate to about 2 eps each. For k = 1
    each column x is checked to be finite and of unit norm, or, given the
    (B,) ``norms`` of pixel columns, to be nonzero; its cosine to W_p is
    ||W_p^T x|| / ||x||. Raises InconsistentDims when D differs.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.shape[0] != stack.shape[0]:
        raise InconsistentDims(
            f"sample has D = {samples.shape[0]} pixels, prototypes have "
            f"D = {stack.shape[0]}")
    (D, B, k), (_, P, d) = samples.shape, stack.shape
    if k == 1 and norms is None:
        # einsum sums the squares with no B x D temporary
        unit = np.sqrt(np.einsum("ij,ij->j", samples[:, :, 0], samples[:, :, 0]))
        if not np.abs(unit - 1.0).max(initial=0.0) <= 1e-8:
            # a NaN or infinite entry fails the norm test too
            if not np.all(np.isfinite(samples)):
                raise ValueError("non-finite entries")
            raise ValueError("x must be a unit vector")
    elif k == 1 and not norms.all():
        raise ValueError("x must be a unit vector")
    products = (samples.reshape(D, B * k).T @ stack.reshape(D, P * d)).reshape(B, k, P, d)
    if k == 1:
        return _vector_angles(samples[:, :, 0], products[:, 0], stack, norms)[:, :, None]
    return angles_from_products(products.swapaxes(1, 2))


def angles_from_products(products) -> np.ndarray:
    """Ascending principal angles from (..., k, d) products P^T W (values-only SVD):
    arccosines, the one exception to the atan2 rule, as there is no residual."""
    cosines = np.linalg.svd(products, compute_uv=False)
    return np.arccos(np.clip(cosines, 0.0, 1.0))


def _vector_angles(x, coeffs, stack, norms) -> np.ndarray:
    """(B, P) angles between the columns of x (D, B) and a (D, P, d) stack,
    given their (B, P, d) coefficients c = x^T W_p and, unless x has unit
    columns, their (B,) ``norms``: cos = ||c|| / ||x||. Above 0.9, where
    arccos loses accuracy, atan2(||x - W c||, ||c||), unchanged by any scale
    of x, refines it, once per prototype over all its flagged columns."""
    lengths = np.sqrt(np.einsum("ijk,ijk->ij", coeffs, coeffs))
    cosines = lengths if norms is None else lengths / norms[:, None]
    angles = np.arccos(np.minimum(cosines, 1.0))
    flagged = cosines > 0.9
    for p in np.flatnonzero(flagged.any(axis=0)):
        rows = flagged[:, p]
        residual = x[:, rows].T - coeffs[rows, p] @ stack[:, p].T
        sines = np.sqrt(np.einsum("ij,ij->i", residual, residual))
        angles[rows, p] = np.arctan2(sines, lengths[rows, p])
    return angles


def single_vector_angle(x, w: Subspace) -> float:
    """First principal angle between span{x} (x a unit vector) and span(W)."""
    return float(principal_angles_to_stack(np.reshape(x, (-1, 1, 1)),
                                           w.basis[:, None])[0, 0, 0])


def g_matrix_diagonal(pd: PrincipalDecomposition, weights) -> np.ndarray:
    """Diagonal of the gradient scaling matrix: 2 lambda_k theta_k / sin(theta_k).

    Computed as 2 lambda_k / sinc(theta_k / pi) from the angles alone, which
    takes the limit 2 lambda_k at theta_k = 0 with no special case.
    """
    weights = np.asarray(weights, dtype=np.float64)
    return 2.0 * weights / np.sinc(pd.angles / np.pi)


def pixel_influence(pd: PrincipalDecomposition, index: int) -> np.ndarray:
    """Per-pixel contributions u_{k,j} v_{k,j} to cos(theta_k) for angle `index`.

    The entries sum to pd.cosines[index]; large-magnitude entries mark pixels
    that drive the corresponding principal angle.
    """
    if not 0 <= index < pd.dim:
        raise IndexError(f"angle index {index} out of range [0, {pd.dim})")
    return pd.principal_left[:, index] * pd.principal_right[:, index]


def image_contribution(X, pd: PrincipalDecomposition) -> np.ndarray:
    """Contribution matrix M = V_d diag(1/s_d) Q_P mapping set columns to principal vectors.

    X is the data matrix whose subspace_from_set(X, pd.dim) was the left
    subspace of ``pd``; it is factored again here, uint8 pixels normalised
    as there, so unit_columns(X) @ M recovers the principal vectors U of
    ``pd`` to about eps * s_1 / s_d.
    """
    _, s, right = _factor_set(X, pd.dim)
    if np.any(s < 1e-12):
        raise SingularFactor("singular value below 1e-12; set is ill-conditioned")
    return (right / s) @ pd.rot_left
