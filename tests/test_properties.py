"""Property-based checks of the distance kernel and the prototype update
(needs the optional hypothesis)."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from grasslvq import (  # noqa: E402
    ModelState,
    Prototype,
    Subspace,
    apply_prototype_update,
    find_winners,
    principal_angles_to_stack,
    principal_decomposition,
    prototype_gradient,
    subspace_from_set,
)
from grasslvq.errors import RankDeficient  # noqa: E402


def _orthonormal(rng, D, k):
    q, _ = np.linalg.qr(rng.standard_normal((D, k)))
    return q


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_block_equals_single_calls(data):
    D = data.draw(st.integers(1, 24), label="D")
    k = data.draw(st.integers(1, D), label="k")
    d = data.draw(st.integers(1, D), label="d")
    P = data.draw(st.integers(1, 5), label="P")
    B = data.draw(st.integers(1, 6), label="B")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    stack = np.array([_orthonormal(rng, D, d) for _ in range(P)])
    samples = np.array([_orthonormal(rng, D, k) for _ in range(B)])
    if k <= d and data.draw(st.booleans(), label="in span"):
        # a sample inside a prototype's span takes the small-angle paths
        p = data.draw(st.integers(0, P - 1), label="prototype")
        samples[0] = stack[p] @ _orthonormal(rng, d, k)

    block = principal_angles_to_stack(samples, stack)
    assert block.shape == (B, P, min(k, d))
    for basis, angles in zip(samples, block):
        single = principal_angles_to_stack(basis, stack)
        assert single.shape == (P, min(k, d))
        assert np.max(np.abs(angles ** 2 - single ** 2)) < 1e-12
        if k == 1:
            assert np.array_equal(principal_angles_to_stack(basis[:, 0], stack),
                                  single)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_update_rescale_matches_svd_orthonormalization(data):
    D = data.draw(st.integers(2, 30), label="D")
    d = data.draw(st.integers(1, D // 2), label="d")
    eta = data.draw(st.floats(0.0, 0.5), label="eta")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    stack = [_orthonormal(rng, D, d) for _ in range(2)]
    model = ModelState([Prototype(Subspace(b), label) for b, label in zip(stack, (1, 2))],
                       np.full(d, 1.0 / d), "grlgq", d, D)
    sample = _orthonormal(rng, D, d)
    if data.draw(st.booleans(), label="shares a direction with the other winner"):
        sample = np.linalg.qr(np.hstack([stack[1][:, :1], sample[:, 1:]]))[0]
    out = find_winners(model, Subspace(sample), 1)
    svd_bases = {}
    for which, idx, pd in (("plus", 0, out.pd_plus), ("minus", 1, out.pd_minus)):
        updated = pd.principal_right - eta * prototype_gradient(out, model.relevance, which)
        try:
            svd_bases[idx] = subspace_from_set(updated, d)
        except RankDeficient:
            with pytest.raises(RankDeficient):
                apply_prototype_update(model, out, eta)
            return
    apply_prototype_update(model, out, eta)
    for idx, svd_basis in svd_bases.items():
        basis = model.stack[idx]
        assert np.max(np.abs(basis.T @ basis - np.eye(d))) < 1e-12
        pd = principal_decomposition(Subspace(basis), svd_basis)
        assert np.sum(pd.angles ** 2) < 1e-20
