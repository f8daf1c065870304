"""Finite-difference verification of the analytic gradients.

The prototype gradient lives in the rotated frame V = W Q_W, where the SVD of
P^T V has an identity right factor; the oracle recomputes the cost through a
fresh SVD of P^T V for every perturbed entry.
"""

import dataclasses

import numpy as np
import pytest

from grasslvq import (
    SampleOutcome,
    principal_decomposition,
    prototype_gradient,
    relevance_gradient,
)
from grasslvq.errors import DegenerateSample
from helpers import make_outcome

D, DIM = 10, 3
FD_STEP = 1e-6


def weighted_sq_distance(P, V, weights):
    # singular values come out descending, so theta is ascending and aligns
    # with the weight ordering used everywhere else
    s = np.linalg.svd(P.basis.T @ V, compute_uv=False)
    theta = np.arccos(np.clip(s, 0.0, 1.0))
    return np.sum(weights * theta ** 2)


def mu_value(d_plus, d_minus):
    return (d_plus - d_minus) / (d_plus + d_minus)


def fd_prototype_gradient(sample, outcome, weights, which):
    """Central differences of mu as a function of the rotated winner matrix."""
    pd = outcome.pd_plus if which == "plus" else outcome.pd_minus
    V0 = pd.principal_right.copy()
    grad = np.zeros_like(V0)
    for i in range(V0.shape[0]):
        for j in range(V0.shape[1]):
            for sign in (+1, -1):
                V = V0.copy()
                V[i, j] += sign * FD_STEP
                d_here = weighted_sq_distance(sample, V, weights)
                if which == "plus":
                    mu = mu_value(d_here, outcome.d_minus)
                else:
                    mu = mu_value(outcome.d_plus, d_here)
                grad[i, j] += sign * mu
    return grad / (2 * FD_STEP)


@pytest.mark.parametrize("which", ["plus", "minus"])
def test_prototype_gradient_matches_finite_differences(which):
    rng = np.random.default_rng(100)
    for trial in range(20):
        weights = rng.dirichlet(np.ones(DIM)) if trial % 2 else np.ones(DIM)
        sample, outcome, _ = make_outcome(rng, D, DIM, weights)
        analytic = prototype_gradient(outcome, weights, which)
        numeric = fd_prototype_gradient(sample, outcome, weights, which)
        rel = np.linalg.norm(numeric - analytic) / np.linalg.norm(analytic)
        assert rel < 1e-4, f"trial {trial}: relative error {rel:.3g}"


def test_relevance_gradient_matches_finite_differences():
    rng = np.random.default_rng(101)
    for trial in range(20):
        weights = rng.dirichlet(np.ones(DIM))
        _, outcome, _ = make_outcome(rng, D, DIM, weights)
        analytic = relevance_gradient(outcome)
        theta_p, theta_m = outcome.pd_plus.angles, outcome.pd_minus.angles
        numeric = np.zeros(DIM)
        for k in range(DIM):
            for sign in (+1, -1):
                w = weights.copy()
                w[k] += sign * FD_STEP
                mu = mu_value(np.sum(w * theta_p ** 2), np.sum(w * theta_m ** 2))
                numeric[k] += sign * mu
        numeric /= 2 * FD_STEP
        rel = np.linalg.norm(numeric - analytic) / np.linalg.norm(analytic)
        assert rel < 1e-6, f"trial {trial}: relative error {rel:.3g}"


def test_relevance_gradient_symmetry_zero():
    # equal angles on both sides and d+ = d- give a zero gradient
    rng = np.random.default_rng(102)
    weights = np.full(DIM, 1.0 / DIM)
    sample, outcome, _ = make_outcome(rng, D, DIM, weights)
    sym = SampleOutcome(0, 1, outcome.d_plus, outcome.d_plus, 0.0,
                        outcome.pair[[0, 0]])
    assert np.allclose(relevance_gradient(sym), 0.0, atol=1e-14)


def test_relevance_gradient_arithmetic():
    rng = np.random.default_rng(103)
    weights = np.array([0.5, 0.5])
    _, outcome, _ = make_outcome(rng, 6, 2, weights)
    # d+=1, d-=1, theta+=(0,0), theta-=(pi/2,0)
    pair = dataclasses.replace(outcome.pair,
                               angles=np.array([[0.0, 0.0], [np.pi / 2, 0.0]]))
    forced = SampleOutcome(0, 1, 1.0, 1.0, 0.0, pair)
    grad = relevance_gradient(forced)
    assert np.isclose(grad[0], -np.pi ** 2 / 8)
    assert np.isclose(grad[1], 0.0)


def test_prototype_gradient_sign_flip():
    # swapping the polarity roles flips the leading sign factor
    rng = np.random.default_rng(104)
    weights = np.ones(DIM)
    _, outcome, _ = make_outcome(rng, D, DIM, weights)
    swapped = SampleOutcome(1, 0, outcome.d_minus, outcome.d_plus, -outcome.mu,
                            outcome.pair[::-1])
    g_minus = prototype_gradient(outcome, weights, "minus")
    g_swapped_plus = prototype_gradient(swapped, weights, "plus")
    assert np.allclose(g_minus, -g_swapped_plus, atol=1e-14)


def test_zero_angle_winner_stays_finite():
    # d+ = 0: G hits its limit values and the gradient must stay NaN-free
    rng = np.random.default_rng(105)
    weights = np.ones(DIM)
    sample, outcome, (_, w_minus) = make_outcome(rng, D, DIM, weights)
    pair = principal_decomposition(sample, np.stack([sample.basis, w_minus.basis]))
    degenerate_plus = SampleOutcome(0, 1, 0.0, outcome.d_minus, -1.0, pair)
    for which in ("plus", "minus"):
        grad = prototype_gradient(degenerate_plus, weights, which)
        assert np.all(np.isfinite(grad))


def test_degenerate_sample_raises():
    rng = np.random.default_rng(106)
    weights = np.ones(DIM)
    _, outcome, _ = make_outcome(rng, D, DIM, weights)
    bad = SampleOutcome(0, 1, 0.0, 0.0, np.nan, outcome.pair)
    with pytest.raises(DegenerateSample):
        prototype_gradient(bad, weights, "plus")
    with pytest.raises(DegenerateSample):
        relevance_gradient(bad)
