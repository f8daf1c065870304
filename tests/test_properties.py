"""Property-based checks of the distance kernel (needs the optional hypothesis)."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from grasslvq import principal_angles_to_stack  # noqa: E402


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
