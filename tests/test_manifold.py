import warnings

import numpy as np
import pytest

from grasslvq import (
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
from grasslvq.errors import InconsistentDims, RankDeficient, SingularFactor
from grasslvq.manifold import _factor_set, unit_columns
from helpers import pair_with_angles, random_orthogonal, random_subspace


def e(i, D):
    v = np.zeros(D)
    v[i] = 1.0
    return v


def largest_angle_sine(a, b):
    """sin of the largest principal angle between orthonormal a and b: the
    spectral norm of b's residual off span(a), accurate for tiny angles."""
    return np.linalg.norm(b - a @ (a.T @ b), ord=2)


class TestOrthonormalize:
    def test_already_orthonormal_spans_same_space(self):
        basis = np.column_stack([e(0, 3), e(1, 3)])
        out = subspace_from_set(basis, 2)
        pd = principal_decomposition(Subspace(basis), out)
        assert np.all(pd.angles < 1e-12)

    def test_column_scaling_removed(self):
        M = np.array([[2.0, 0.0], [0.0, 3.0], [0.0, 0.0]])
        out = subspace_from_set(M, M.shape[1])
        assert np.max(np.abs(out.basis.T @ out.basis - np.eye(2))) < 1e-12
        # spans e1, e2 of R^3
        proj = out.basis @ out.basis.T
        assert np.allclose(proj, np.diag([1.0, 1.0, 0.0]), atol=1e-12)

    def test_projector_oracle_random(self):
        # oracle: explicit projector M (M^T M)^-1 M^T
        rng = np.random.default_rng(42)
        M = rng.standard_normal((6, 3))
        out = subspace_from_set(M, M.shape[1])
        assert np.max(np.abs(out.basis.T @ out.basis - np.eye(3))) < 1e-10
        oracle = M @ np.linalg.inv(M.T @ M) @ M.T
        assert np.max(np.abs(out.basis @ out.basis.T - oracle)) < 1e-8

    def test_rank_deficient_rejected(self):
        M = np.column_stack([e(0, 4), e(0, 4)])
        with pytest.raises(RankDeficient):
            subspace_from_set(M, M.shape[1])


class TestSubspaceFromSet:
    def test_orthonormal_input(self):
        rng = np.random.default_rng(0)
        X = random_subspace(rng, 6, 3).basis
        basis, s, R = _factor_set(X, 3)
        assert np.allclose(s, 1.0, atol=1e-12)
        pd = principal_decomposition(Subspace(basis), Subspace(X))
        assert np.all(pd.angles < 1e-8)
        assert np.allclose(R.T @ R, np.eye(3), atol=1e-10)

    def test_repeated_column(self):
        X = np.column_stack([e(0, 4), e(0, 4)])
        basis, s, _ = _factor_set(X, 1)
        assert np.allclose(np.abs(basis[:, 0]), e(0, 4), atol=1e-12)
        assert np.isclose(s[0], np.sqrt(2.0))

    def test_truncation_matches_gram_eigensolve(self):
        # oracle: eigendecomposition of X^T X gives the singular values; the
        # rank-3 residual (spectral norm) must equal the 4th singular value
        rng = np.random.default_rng(7)
        X = rng.standard_normal((8, 5))
        basis, s, R = _factor_set(X, 3)
        approx = basis * s @ R.T
        residual = np.linalg.norm(X - approx, ord=2)
        gram_eigs = np.sort(np.linalg.eigvalsh(X.T @ X))[::-1]
        fourth_sv = np.sqrt(gram_eigs[3])
        assert abs(residual - fourth_sv) < 1e-8
        assert np.allclose(s, np.sqrt(gram_eigs[:3]), atol=1e-8)

    def test_rank_below_d_rejected(self):
        X = np.column_stack([e(0, 5), e(0, 5), e(1, 5)])
        with pytest.raises(RankDeficient):
            subspace_from_set(X, 3)

    def test_all_zero_set_rejected_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RankDeficient):
                subspace_from_set(np.zeros((5, 3)), 2)

    @pytest.mark.parametrize("ratio", [1e2, 1e4, 1e6, 1e8, 1e10, 1e11])
    def test_planted_spectrum_against_gesdd(self, ratio):
        # oracle: X = U diag(s) V^T with s_1 / s_d = ratio and s_(d+1) = s_d / 2;
        # the basis must be orthonormal to eps and no farther from span(U[:, :d])
        # than LAPACK's full thin SVD (within a factor of 2)
        rng = np.random.default_rng(int(np.log10(ratio)))
        D, m, d = 60, 20, 5
        U = random_subspace(rng, D, m).basis
        top = np.logspace(0, -np.log10(ratio), d)
        s = np.concatenate([top, top[-1] / 2 * np.logspace(0, -3, m - d)])
        X = U * s @ random_orthogonal(rng, m).T
        basis = subspace_from_set(X, d).basis
        assert np.max(np.abs(basis.T @ basis - np.eye(d))) <= 1e-14
        reference = np.linalg.svd(X, full_matrices=False)[0][:, :d]
        planted = U[:, :d]
        assert (largest_angle_sine(planted, basis)
                <= 2 * largest_angle_sine(planted, reference) + 1e-15)

    @pytest.mark.parametrize("D, m, d", [(6, 10, 3), (8, 8, 4), (9, 4, 4), (7, 5, 1)])
    def test_shapes_match_gesdd(self, D, m, d):
        # m > D, m = D, m = d and d = 1
        rng = np.random.default_rng(D * m + d)
        X = rng.standard_normal((D, m))
        basis, values, right = _factor_set(X, d)
        u, s, vt = np.linalg.svd(X, full_matrices=False)
        assert basis.shape == (D, d)
        assert right.shape == (m, d)
        assert largest_angle_sine(u[:, :d], basis) < 1e-12
        assert largest_angle_sine(vt[:d].T, right) < 1e-12
        assert np.allclose(values, s[:d], rtol=1e-12, atol=0)
        assert np.array_equal(subspace_from_set(X, d).basis, basis)

    def test_factors_own_contiguous_buffers(self):
        # no view may pin the D x m left factor of a full SVD
        rng = np.random.default_rng(8)
        out = subspace_from_set(rng.standard_normal((784, 50)), 12)
        assert out.basis.flags.c_contiguous and out.basis.flags.owndata
        assert out.basis.shape == (784, 12)

    def test_contribution_recovers_principal_vectors_of_large_set(self):
        rng = np.random.default_rng(20)
        X = rng.standard_normal((784, 50))
        X /= np.linalg.norm(X, axis=0)
        pd = principal_decomposition(subspace_from_set(X, 12),
                                     random_subspace(rng, 784, 12))
        M = image_contribution(X, pd)
        assert np.max(np.abs(X @ M - pd.principal_left)) < 1e-10


def planted_wide_set(rng, D, m, d):
    """A D x m set (m >= D) with d singular values near 10 to 5 and the rest
    near 1 to 0.01, so its leading d-span is well separated. The right
    factor is a Gaussian's Cholesky QR, cheaper than Householder's at
    6000 x 784 and orthonormal to about eps * cond^2, close enough for the
    gap."""
    s = np.concatenate([np.linspace(10, 5, d), np.logspace(0, -2, D - d)])
    G = rng.standard_normal((m, D))
    V = G @ np.linalg.inv(np.linalg.cholesky(G.T @ G)).T
    return (random_orthogonal(rng, D) * s) @ V.T


class TestWideSets:
    """The m >= D branch: the SVD of R from the QR of X^T."""

    @pytest.mark.parametrize("D, m", [(120, 120), (120, 180), (120, 480), (784, 6000)])
    def test_spans_match_gesdd(self, D, m):
        # m = D, 1.5 D, 4 D and a whole MNIST class
        rng = np.random.default_rng(m)
        d = 12
        X = planted_wide_set(rng, D, m, d)
        basis, values, right = _factor_set(X, d)
        # the SVD of X^T (quicker than that of X) has X's factors swapped
        v, s, ut = np.linalg.svd(X.T, full_matrices=False)
        assert basis.shape == (D, d) and right.shape == (m, d)
        assert largest_angle_sine(ut[:d].T, basis) <= 1e-14
        assert largest_angle_sine(v[:, :d], right) <= 1e-12
        assert np.allclose(values, s[:d], rtol=1e-13, atol=0)
        assert np.max(np.abs(basis.T @ basis - np.eye(d))) <= 1e-14

    @pytest.mark.parametrize("ratio", [1e2, 1e6, 1e11])
    def test_planted_spectrum(self, ratio):
        # the tall test's spectra on a 20 x 60 set; the span must lie within
        # the first-order bound eps * s_1 / (s_d - s_(d+1)) of the planted
        # one, which LAPACK's gesdd meets too (both reach about a third of it)
        rng = np.random.default_rng(int(np.log10(ratio)))
        D, m, d = 20, 60, 5
        U = random_orthogonal(rng, D)
        top = np.logspace(0, -np.log10(ratio), d)
        s = np.concatenate([top, top[-1] / 2 * np.logspace(0, -3, D - d)])
        X = U * s @ np.linalg.qr(rng.standard_normal((m, D)))[0].T
        basis = subspace_from_set(X, d).basis
        assert np.max(np.abs(basis.T @ basis - np.eye(d))) <= 1e-14
        bound = np.finfo(float).eps * s[0] / (s[d - 1] - s[d])
        assert largest_angle_sine(U[:, :d], basis) <= bound

    def test_all_zero_set_rejected_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RankDeficient):
                subspace_from_set(np.zeros((5, 8)), 2)

    def test_contribution_recovers_principal_vectors(self):
        rng = np.random.default_rng(21)
        X = rng.random((784, 1000))
        X /= np.linalg.norm(X, axis=0)
        pd = principal_decomposition(subspace_from_set(X, 12),
                                     random_subspace(rng, 784, 12))
        M = image_contribution(X, pd)
        assert M.shape == (1000, 12)
        assert np.max(np.abs(X @ M - pd.principal_left)) < 1e-10


class TestPrincipalDecomposition:
    def test_given_product_matches_computed(self):
        rng = np.random.default_rng(40)
        p1, p2 = random_subspace(rng, 9, 3), random_subspace(rng, 9, 3)
        stack = np.stack([p2.basis, random_subspace(rng, 9, 3).basis])
        for w, basis in ((p2, p2.basis), (stack, stack)):
            fresh = principal_decomposition(p1, w)
            given = principal_decomposition(p1, w, p1.basis.T @ basis)
            for field in ("angles", "cosines", "principal_left", "principal_right"):
                assert np.array_equal(getattr(fresh, field), getattr(given, field))

    def test_identical_subspaces(self):
        rng = np.random.default_rng(1)
        s = random_subspace(rng, 5, 2)
        pd = principal_decomposition(s, s)
        assert np.all(pd.angles < 1e-8)
        assert np.allclose(pd.cosines, 1.0)
        assert np.allclose(pd.principal_left, pd.principal_right, atol=1e-8)

    def test_fully_orthogonal(self):
        p1 = Subspace(np.column_stack([e(0, 4), e(1, 4)]))
        p2 = Subspace(np.column_stack([e(2, 4), e(3, 4)]))
        pd = principal_decomposition(p1, p2)
        assert np.allclose(pd.angles, np.pi / 2, atol=1e-12)
        assert np.allclose(pd.cosines, 0.0, atol=1e-12)

    def test_shared_direction_and_45_degrees(self):
        p1 = Subspace(np.column_stack([e(0, 3), e(1, 3)]))
        p2 = Subspace(np.column_stack([e(0, 3), (e(1, 3) + e(2, 3)) / np.sqrt(2)]))
        pd = principal_decomposition(p1, p2)
        assert np.allclose(pd.angles, [0.0, np.pi / 4], atol=1e-12)
        assert np.allclose(pd.cosines, [1.0, 1.0 / np.sqrt(2)], atol=1e-12)

    def test_quadratic_formula_oracle_g52(self):
        # oracle: cos^2(angles) are the eigenvalues of the 2x2 matrix
        # (P1^T P2)(P1^T P2)^T, solved by the quadratic formula
        rng = np.random.default_rng(3)
        for _ in range(20):
            p1, p2 = random_subspace(rng, 5, 2), random_subspace(rng, 5, 2)
            pd = principal_decomposition(p1, p2)
            A = (p1.basis.T @ p2.basis) @ (p1.basis.T @ p2.basis).T
            half_tr = np.trace(A) / 2.0
            disc = np.sqrt(max(half_tr ** 2 - np.linalg.det(A), 0.0))
            eigs = np.array([half_tr + disc, half_tr - disc])
            oracle = np.arccos(np.sqrt(np.clip(eigs, 0.0, 1.0)))
            assert np.max(np.abs(np.sort(oracle) - pd.angles)) < 1e-8

    def test_invariants_on_random_pairs(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            p1, p2 = random_subspace(rng, 7, 3), random_subspace(rng, 7, 3)
            pd = principal_decomposition(p1, p2)
            assert np.all(np.diff(pd.angles) >= 0)
            assert np.all((pd.angles >= 0) & (pd.angles <= np.pi / 2))
            assert np.max(np.abs(pd.cosines - np.cos(pd.angles))) < 1e-12
            assert np.max(np.abs(pd.principal_left - p1.basis @ pd.rot_left)) < 1e-10
            assert np.max(np.abs(pd.principal_right - p2.basis @ pd.rot_right)) < 1e-10
            pairing = np.sum(pd.principal_left * pd.principal_right, axis=0)
            assert np.all(pairing >= -1e-12)
            assert np.max(np.abs(pairing - pd.cosines)) < 1e-10
            for U in (pd.principal_left, pd.principal_right):
                assert np.max(np.abs(U.T @ U - np.eye(3))) < 1e-8

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        p1, p2 = random_subspace(rng, 6, 2), random_subspace(rng, 6, 2)
        a = principal_decomposition(p1, p2).angles
        b = principal_decomposition(p2, p1).angles
        assert np.max(np.abs(a - b)) < 1e-10

    @pytest.mark.parametrize("theta", [0.3, 0.7, 1.0, 1.3, np.pi / 2 - 1e-3])
    def test_planted_mid_and_large_angles(self, theta):
        rng = np.random.default_rng(7)
        angles = theta * np.array([0.5, 0.8, 1.0])
        for _ in range(5):
            p1, p2 = pair_with_angles(rng, 30, angles)
            assert np.abs(principal_decomposition(p1, p2).angles - angles).max() <= 1e-15
            if angles[0] < np.arccos(0.9):  # where the vector kernel forms the residual
                vector_angle = principal_angles_to_stack(p1.basis[:, :1, None],
                                                         p2.basis[:, None])
                assert abs(vector_angle[0, 0, 0] - angles[0]) <= 1e-15

    def test_clamp_keeps_angles_finite(self):
        rng = np.random.default_rng(6)
        s = random_subspace(rng, 9, 4)
        pd = principal_decomposition(s, Subspace(s.basis.copy()))
        assert np.all(np.isfinite(pd.angles))


def planted_stacks(rng, D, d, count):
    """(sample, (k, D, d) stack) pairs: random stacks, and stacks around a
    pair with planted angles from 1e-12 to 1e-3 (the planted partner, a
    rotated basis of it, and a random subspace)."""
    for _ in range(count):
        yield (random_subspace(rng, D, d),
               np.stack([random_subspace(rng, D, d).basis for _ in range(3)]))
        angles = np.sort(10.0 ** rng.uniform(-12, -3, size=d))
        p1, p2 = pair_with_angles(rng, D, angles)
        yield p1, np.stack([p2.basis, p2.basis @ random_orthogonal(rng, d),
                            random_subspace(rng, D, d).basis])


class TestBatchedDecomposition:
    @pytest.mark.parametrize("D,d", [(20, 3), (784, 12)])
    def test_matches_per_pair_calls(self, D, d):
        rng = np.random.default_rng(45)
        for p1, stack in planted_stacks(rng, D, d, 5):
            products = p1.basis.T @ stack
            batched = principal_decomposition(p1, stack, products)
            assert batched.angles.shape == (3, d) and batched.dim == d
            assert batched.principal_right.shape == (3, D, d)
            for i, w in enumerate(stack):
                single = principal_decomposition(p1, Subspace(w), products[i])
                for field in ("angles", "cosines", "principal_left", "principal_right"):
                    diff = np.abs(getattr(batched[i], field) - getattr(single, field))
                    assert diff.max() <= 1e-14, field

    def test_shape_mismatch_raises(self):
        rng = np.random.default_rng(47)
        p1 = random_subspace(rng, 8, 2)
        with pytest.raises(ValueError, match="share ambient dimension"):
            principal_decomposition(p1, np.zeros((2, 8, 3)))
        with pytest.raises(ValueError, match="share ambient dimension"):
            principal_decomposition(p1, np.zeros((2, 9, 2)))

    @pytest.mark.parametrize("D,d", [(20, 3), (784, 12)])
    def test_residual_matches_projection_form(self, D, d):
        # every sine comes from V - U diag(s); the projection form
        # V - P1 (P1^T V) is the same residual in exact arithmetic
        rng = np.random.default_rng(48)
        for p1, stack in planted_stacks(rng, D, d, 5):
            batched = principal_decomposition(p1, stack)
            for i in range(len(stack)):
                pd = batched[i]
                V = pd.principal_right
                residual = V - p1.basis @ (p1.basis.T @ V)
                sines = np.linalg.norm(residual, axis=0)
                assert np.abs(pd.angles - np.arctan2(sines, pd.cosines)).max() <= 1e-14


class TestDistances:
    def test_trivial_values(self):
        rng = np.random.default_rng(8)
        s = random_subspace(rng, 5, 2)
        pd = principal_decomposition(s, s)
        assert np.sum(pd.angles ** 2) < 1e-15
        assert geodesic_distance(pd) < 1e-7

        p1 = Subspace(np.column_stack([e(0, 4), e(1, 4)]))
        p2 = Subspace(np.column_stack([e(2, 4), e(3, 4)]))
        pd = principal_decomposition(p1, p2)
        assert np.isclose(np.sum(pd.angles ** 2), np.pi ** 2 / 2)

        p1 = Subspace(e(0, 3)[:, None])
        p2 = Subspace(e(1, 3)[:, None])
        assert np.isclose(geodesic_distance(principal_decomposition(p1, p2)),
                          np.pi / 2)

    def test_45_degree_example(self):
        p1 = Subspace(np.column_stack([e(0, 3), e(1, 3)]))
        p2 = Subspace(np.column_stack([e(0, 3), (e(1, 3) + e(2, 3)) / np.sqrt(2)]))
        pd = principal_decomposition(p1, p2)
        assert np.isclose(np.sum(pd.angles ** 2), (np.pi / 4) ** 2)

    def test_representation_invariance(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            s = random_subspace(rng, 6, 3)
            q = random_orthogonal(rng, 3)
            rotated = Subspace(s.basis @ q)
            assert geodesic_distance(principal_decomposition(s, rotated)) < 1e-8

    def test_adaptive_distance(self):
        rng = np.random.default_rng(10)
        p1, p2 = random_subspace(rng, 6, 3), random_subspace(rng, 6, 3)
        pd = principal_decomposition(p1, p2)
        uniform = adaptive_squared_distance(pd, np.full(3, 1.0 / 3))
        assert np.isclose(uniform, np.sum(pd.angles ** 2) / 3)
        first_only = adaptive_squared_distance(pd, np.array([1.0, 0.0, 0.0]))
        assert np.isclose(first_only, pd.angles[0] ** 2)

    def test_adaptive_distance_arithmetic(self):
        angles = np.array([np.pi / 4, np.pi / 2])
        p1, p2 = pair_with_angles(np.random.default_rng(11), 6, angles)
        pd = principal_decomposition(p1, p2)
        value = adaptive_squared_distance(pd, np.array([0.3, 0.7]))
        expected = 0.3 * (np.pi / 4) ** 2 + 0.7 * (np.pi / 2) ** 2
        assert abs(value - expected) < 1e-10
        assert abs(expected - 1.91220) < 5e-5


class TestSingleVectorAngle:
    def test_in_span(self):
        w = Subspace(np.column_stack([e(0, 4), e(1, 4)]))
        assert single_vector_angle(e(0, 4), w) < 1e-8

    def test_orthogonal(self):
        w = Subspace(np.column_stack([e(0, 4), e(1, 4)]))
        assert np.isclose(single_vector_angle(e(3, 4), w), np.pi / 2)

    def test_45_degrees(self):
        w = Subspace(e(0, 3)[:, None])
        x = (e(0, 3) + e(1, 3)) / np.sqrt(2)
        assert np.isclose(single_vector_angle(x, w), np.pi / 4)

    def test_grid_search_oracle(self):
        # oracle: maximize x^T v over the unit circle of a 2-dim subspace
        rng = np.random.default_rng(12)
        for _ in range(5):
            x = rng.standard_normal(3)
            x /= np.linalg.norm(x)
            w = random_subspace(rng, 3, 2)
            beta = np.arange(0.0, 2 * np.pi, 1e-4)
            c1, c2 = x @ w.basis[:, 0], x @ w.basis[:, 1]
            best = np.max(c1 * np.cos(beta) + c2 * np.sin(beta))
            oracle = np.arccos(np.clip(best, 0.0, 1.0))
            assert abs(single_vector_angle(x, w) - oracle) < 1e-3


class TestPrincipalAnglesToStack:
    @pytest.mark.parametrize("d", [1, 2, 12, 25])
    def test_squared_distances_match_decomposition(self, d):
        # prototypes around one sample span(A): generic ones, near-identical
        # ones rotated towards span(B) by 1e-12 .. 1e-3 rad, and span(B) itself
        rng = np.random.default_rng(40 + d)
        D = 2 * d + 3
        frame = random_subspace(rng, D, 2 * d).basis
        a, b = frame[:, :d], frame[:, d:]
        protos = [random_subspace(rng, D, d).basis for _ in range(3)]
        for scale in (1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-3):
            angles = scale * rng.uniform(0.5, 1.0, d)
            protos.append((a * np.cos(angles) + b * np.sin(angles))
                          @ random_orthogonal(rng, d))
        protos.append(b @ random_orthogonal(rng, d))
        weights = rng.dirichlet(np.ones(d))
        stack = np.stack(protos, axis=1)

        def reference(basis):
            return [adaptive_squared_distance(principal_decomposition(
                Subspace(basis), Subspace(w)), weights) for w in protos]

        kernel = principal_angles_to_stack(a[:, None], stack)[0] ** 2 @ weights
        assert np.max(np.abs(kernel - reference(a))) < 1e-12
        # the same sample inside a block, beside span(B) and a generic sample
        block = [b, a, random_subspace(rng, D, d).basis]
        kernel = principal_angles_to_stack(np.stack(block, axis=1), stack) ** 2 @ weights
        for basis, row in zip(block, kernel):
            assert np.max(np.abs(row - reference(basis))) < 1e-12

    def test_shape_and_order(self):
        rng = np.random.default_rng(50)
        stack = np.stack([random_subspace(rng, 9, 3).basis for _ in range(4)], axis=1)
        for k in (2, 3, 5):
            samples = np.stack([random_subspace(rng, 9, k).basis for _ in range(2)], axis=1)
            angles = principal_angles_to_stack(samples, stack)
            assert angles.shape == (2, 4, min(k, 3))
            assert np.all(np.diff(angles, axis=2) >= 0)

    def test_in_span_vector_is_refined(self):
        # bare arccos of a cosine that rounds just below 1 gives ~1.5e-8
        rng = np.random.default_rng(51)
        stack = np.stack([random_subspace(rng, 50, 4).basis for _ in range(3)], axis=1)
        block = []
        for _ in range(20):
            x = stack[:, 1] @ rng.standard_normal(4)
            x /= np.linalg.norm(x)
            angles = principal_angles_to_stack(x[:, None, None], stack)
            assert angles.shape == (1, 3, 1)
            assert angles[0, 1, 0] < 1e-12
            block += [x, random_subspace(rng, 50, 1).basis[:, 0]]
        angles = principal_angles_to_stack(np.stack(block, axis=1)[:, :, None], stack)
        assert angles.shape == (40, 3, 1)
        assert np.all(angles[::2, 1, 0] < 1e-12)

    def test_ambient_dimension_mismatch(self):
        rng = np.random.default_rng(52)
        stack = random_subspace(rng, 12, 2).basis[:, None]
        with pytest.raises(InconsistentDims, match="D = 9.*D = 12"):
            principal_angles_to_stack(random_subspace(rng, 9, 2).basis[:, None], stack)
        with pytest.raises(InconsistentDims, match="D = 9.*D = 12"):
            principal_angles_to_stack(e(0, 9)[:, None, None], stack)

    def test_vector_must_be_unit(self):
        stack = np.eye(4)[:, None, :2]
        with pytest.raises(ValueError, match="x must be a unit vector"):
            principal_angles_to_stack(2 * e(0, 4)[:, None, None], stack)
        with pytest.raises(ValueError, match="non-finite entries"):
            principal_angles_to_stack(np.full((4, 1, 1), np.nan), stack)


class TestGMatrix:
    @pytest.mark.parametrize("theta", [1e-7, 1e-6, 1.5e-6, 1e-5, 1e-3, 0.5,
                                       np.pi / 2 - 1e-3])
    def test_matches_closed_form_at_planted_angles(self, theta):
        # a sine taken as sqrt(1 - cos^2) is 1e-4 off, relative, at 1.5e-6
        rng = np.random.default_rng(16)
        angles = np.full(3, theta)
        weights = rng.dirichlet(np.ones(3))
        pd = principal_decomposition(*pair_with_angles(rng, 30, angles))
        expected = 2 * weights * angles / np.sin(angles)
        assert np.abs(g_matrix_diagonal(pd, weights) / expected - 1).max() <= 1e-14

    def test_zero_angle_limit(self):
        rng = np.random.default_rng(13)
        s = random_subspace(rng, 5, 2)
        pd = principal_decomposition(s, s)
        assert np.allclose(g_matrix_diagonal(pd, np.ones(2)), 2.0)

    def test_right_angle(self):
        p1 = Subspace(np.column_stack([e(0, 4), e(1, 4)]))
        p2 = Subspace(np.column_stack([e(2, 4), e(3, 4)]))
        pd = principal_decomposition(p1, p2)
        assert np.allclose(g_matrix_diagonal(pd, np.ones(2)), np.pi)

    def test_quarter_angle_half_weight(self):
        p1, p2 = pair_with_angles(np.random.default_rng(14), 6,
                                  [np.pi / 8, np.pi / 4])
        pd = principal_decomposition(p1, p2)
        entry = g_matrix_diagonal(pd, np.array([0.5, 0.5]))[1]
        expected = 2 * 0.5 * (np.pi / 4) / np.sin(np.pi / 4)
        assert abs(entry - expected) < 1e-10
        assert abs(expected - 1.11072) < 5e-6


def _pair_decomposition():
    rng = np.random.default_rng(16)
    return principal_decomposition(random_subspace(rng, 8, 2), random_subspace(rng, 8, 2))


# case -> (exception type, message, call that raises)
INPUT_CHECKS = {
    "basis-wider-than-tall": (
        ValueError, "basis must be D x d with d <= D, got (2, 3)",
        lambda: Subspace(np.ones((2, 3)))),
    "weights-of-another-length": (
        ValueError, "relevance length must equal the subspace dimension",
        lambda: adaptive_squared_distance(_pair_decomposition(), np.ones(3))),
    "influence-index-past-last-angle": (
        IndexError, "angle index 2 out of range [0, 2)",
        lambda: pixel_influence(_pair_decomposition(), 2)),
    "influence-index-negative": (
        IndexError, "angle index -1 out of range [0, 2)",
        lambda: pixel_influence(_pair_decomposition(), -1)),
}


@pytest.mark.parametrize("case", sorted(INPUT_CHECKS))
def test_input_check_raises(case):
    error, message, call = INPUT_CHECKS[case]
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message


class TestPixelInfluence:
    def test_identical_rank1(self):
        s = Subspace(e(0, 5)[:, None])
        pd = principal_decomposition(s, s)
        assert np.allclose(pixel_influence(pd, 0), e(0, 5), atol=1e-12)

    def test_summation_identity(self):
        rng = np.random.default_rng(15)
        p1, p2 = random_subspace(rng, 8, 3), random_subspace(rng, 8, 3)
        pd = principal_decomposition(p1, p2)
        for k in range(3):
            assert abs(pixel_influence(pd, k).sum() - pd.cosines[k]) < 1e-10

    def test_orthogonal_sums_to_zero(self):
        p1 = Subspace(np.column_stack([e(0, 4), e(1, 4)]))
        p2 = Subspace(np.column_stack([e(2, 4), e(3, 4)]))
        pd = principal_decomposition(p1, p2)
        assert abs(pixel_influence(pd, 0).sum()) < 1e-12


class TestImageContribution:
    def test_orthonormal_set_exact(self):
        rng = np.random.default_rng(16)
        X = random_subspace(rng, 7, 3).basis
        pd = principal_decomposition(subspace_from_set(X, 3), random_subspace(rng, 7, 3))
        M = image_contribution(X, pd)
        assert np.max(np.abs(X @ M - pd.principal_left)) < 1e-10

    def test_rank_d_wide_set(self):
        # oracle: recompute U directly from P Q_P
        rng = np.random.default_rng(17)
        X = rng.standard_normal((9, 6))
        sample = subspace_from_set(X, 3)
        pd = principal_decomposition(sample, random_subspace(rng, 9, 3))
        M = image_contribution(X, pd)
        U = sample.basis @ pd.rot_left
        # discarded singular directions are orthogonal to the kept right
        # factors, so X M still recovers U
        assert np.max(np.abs(X @ M - U)) < 1e-8

    def test_exact_recovery_for_rank_d_matrix(self):
        rng = np.random.default_rng(18)
        # build X of exact rank 3 with 6 columns
        X = rng.standard_normal((9, 3)) @ rng.standard_normal((3, 6))
        sample = subspace_from_set(X, 3)
        pd = principal_decomposition(sample, random_subspace(rng, 9, 3))
        M = image_contribution(X, pd)
        U = sample.basis @ pd.rot_left
        assert np.max(np.abs(X @ M - U)) < 1e-8
        # every image contributes to at least one principal vector
        assert np.all(np.max(np.abs(M), axis=1) > 0)

    def test_singular_factor_rejected(self):
        # a set at 1e-14 scale has full numerical rank, so subspace_from_set
        # accepts it, but its singular values are below the 1e-12 floor
        rng = np.random.default_rng(19)
        X = 1e-14 * rng.standard_normal((6, 4))
        pd = principal_decomposition(subspace_from_set(X, 2), random_subspace(rng, 6, 2))
        with pytest.raises(SingularFactor):
            image_contribution(X, pd)


class TestPixelsIntoSubspaces:
    """The builder applies the pixel rule itself: uint8 columns give bitwise
    what their unit_columns give, tall or wide, and float columns are used
    as they are."""

    @pytest.mark.parametrize("shape", [(20, 6), (6, 20)])
    def test_uint8_set_builds_its_unit_columns(self, shape):
        rng = np.random.default_rng(31)
        pixels = rng.integers(0, 256, shape, dtype=np.uint8)
        pixels[:, 1] = 0  # a black frame stays a zero column
        unit = unit_columns(pixels)
        sample = subspace_from_set(pixels, 3)
        assert sample.basis.tobytes() == subspace_from_set(unit, 3).basis.tobytes()
        pd = principal_decomposition(sample, random_subspace(rng, shape[0], 3))
        assert (image_contribution(pixels, pd).tobytes()
                == image_contribution(unit, pd).tobytes())
        # the span of the raw 0-255 columns is another subspace
        raw = subspace_from_set(pixels.astype(np.float64), 3)
        assert largest_angle_sine(raw.basis, sample.basis) > 1e-3
