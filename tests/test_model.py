import dataclasses
import tracemalloc
import weakref

import numpy as np
import pytest

from grasslvq import (
    ModelState,
    PrincipalDecomposition,
    Prototype,
    SampleOutcome,
    Subspace,
    TrainConfig,
    adaptive_squared_distance,
    apply_prototype_update,
    apply_relevance_update,
    evaluate,
    find_winners,
    fit,
    init_prototypes,
    principal_decomposition,
    prototype_gradient,
    geodesic_distance,
    relevance_gradient,
    score_blocks,
    scores,
    subspace_from_set,
    train_step,
)
from grasslvq.errors import (
    AllZeroRelevance,
    ConfigError,
    DegenerateSample,
    InconsistentDims,
    MissingClassPrototype,
    RankDeficient,
)
from grasslvq import dataio
from grasslvq import model as model_module
from grasslvq.manifold import check_orthonormal, unit_columns
from grasslvq.model import EVAL_BLOCK_BYTES
from helpers import (
    make_outcome,
    random_subspace,
    synthetic_subspace_dataset,
    track_kernel_blocks,
    two_class_model,
)


def projectors(stack):
    return stack @ stack.transpose(0, 2, 1)


class TestFindWinners:
    def test_two_classes_one_prototype_each(self):
        rng = np.random.default_rng(0)
        model = two_class_model(rng, 8, 2)
        sample = random_subspace(rng, 8, 2)
        out = find_winners(model, sample, 1)
        assert out.winner_same == 0 and out.winner_other == 1
        out = find_winners(model, sample, 2)
        assert out.winner_same == 1 and out.winner_other == 0

    def test_sample_equal_to_prototype(self):
        rng = np.random.default_rng(1)
        model = two_class_model(rng, 8, 2)
        sample = Subspace(model.prototypes[0].subspace.basis.copy())
        out = find_winners(model, sample, 1)
        assert out.d_plus < 1e-15
        assert np.isclose(out.mu, -1.0)

    def test_argmin_among_same_class(self):
        rng = np.random.default_rng(2)
        base = random_subspace(rng, 10, 2)
        protos = [Prototype(random_subspace(rng, 10, 2), 1) for _ in range(3)]
        protos.append(Prototype(random_subspace(rng, 10, 2), 2))
        model = ModelState(protos, np.ones(2), "glgq", 2, 10)
        dists = [
            np.sum(principal_decomposition(base, p.subspace).angles ** 2)
            for p in protos[:3]
        ]
        out = find_winners(model, base, 1)
        assert out.winner_same == int(np.argmin(dists))

    def test_missing_class_prototype(self):
        rng = np.random.default_rng(3)
        protos = [Prototype(random_subspace(rng, 6, 2), 1)]
        model = ModelState(protos, np.ones(2), "glgq", 2, 6)
        with pytest.raises(MissingClassPrototype):
            find_winners(model, random_subspace(rng, 6, 2), 1)
        with pytest.raises(MissingClassPrototype):
            find_winners(model, random_subspace(rng, 6, 2), 9)

    @pytest.mark.parametrize("d", [1, 3])
    def test_same_winners_as_brute_force(self, d):
        rng = np.random.default_rng(30 + d)
        for _ in range(5):
            protos = [Prototype(random_subspace(rng, 9, d), 1 + i % 3)
                      for i in range(7)]
            protos.append(Prototype(protos[4].subspace, protos[4].label))
            relevance = rng.dirichlet(np.ones(d))
            model = ModelState(protos, relevance, "grlgq", d, 9)
            samples = [random_subspace(rng, 9, d), protos[4].subspace]
            for sample in samples:
                dists = [adaptive_squared_distance(
                    principal_decomposition(sample, p.subspace), relevance)
                    for p in protos]
                for label in (1, 2, 3):
                    same = min((dist, i) for i, dist in enumerate(dists)
                               if protos[i].label == label)
                    other = min((dist, i) for i, dist in enumerate(dists)
                                if protos[i].label != label)
                    out = find_winners(model, sample, label)
                    assert (out.winner_same, out.winner_other) == (same[1], other[1])
                    assert abs(out.d_plus - same[0]) < 1e-12
                    assert abs(out.d_minus - other[0]) < 1e-12


class TestPrototypeStorage:
    def test_views_follow_train_step(self):
        rng = np.random.default_rng(40)
        model = two_class_model(rng, 8, 3, mode="grlgq")
        config = TrainConfig(eta=0.05, gamma=1e-3, epochs=1, seed=0, mode="grlgq")
        before = model.stack.copy()
        train_step(model, random_subspace(rng, 8, 3), 1, config)
        assert not np.array_equal(before, model.stack)
        for i, p in enumerate(model.prototypes):
            b = p.subspace.basis
            assert np.array_equal(b, model.stack[i])
            assert np.max(np.abs(b.T @ b - np.eye(3))) < 1e-10

    def test_views_are_read_only(self):
        rng = np.random.default_rng(41)
        model = two_class_model(rng, 8, 2)
        proto = model.prototypes[0]
        with pytest.raises(ValueError):
            proto.subspace.basis[0, 0] = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            proto.subspace = random_subspace(rng, 8, 2)

    def test_constructor_copies(self):
        rng = np.random.default_rng(42)
        protos = [Prototype(random_subspace(rng, 8, 2), 1),
                  Prototype(random_subspace(rng, 8, 2), 2)]
        model = ModelState(protos, np.ones(2), "glgq", 2, 8)
        model.stack[0] = random_subspace(rng, 8, 2).basis
        assert not np.array_equal(protos[0].subspace.basis, model.stack[0])
        assert model.labels.tolist() == [1, 2]

    @staticmethod
    def _built(how, tmp_path):
        rng = np.random.default_rng(44)
        if how == "ModelState":
            return two_class_model(rng, 8, 3, mode="grlgq")
        dataset = synthetic_subspace_dataset(rng, classes=2, D=8, d=3, per_class=3)
        config = TrainConfig(eta=0.05, gamma=1e-3, epochs=2, seed=0, mode="grlgq")
        model, _ = fit(dataset, config, init="example", prototypes_per_class=2)
        if how == "train_step":
            train_step(model, *dataset[0], config)
        elif how == "load_model":
            dataio.save_model(model, tmp_path / "model.bin")
            model = dataio.load_model(tmp_path / "model.bin")
        return model

    @pytest.mark.parametrize("how", ["ModelState", "load_model", "fit", "train_step"])
    def test_stack_views_one_pixel_major_array(self, how, tmp_path):
        model = self._built(how, tmp_path)
        buffer = model.pixel_stack
        P, D, d = model.stack.shape
        assert buffer.shape == (D, P, d) and buffer.flags.c_contiguous
        assert model.stack.base is buffer and np.shares_memory(model.stack, buffer)
        for i in range(P):
            assert np.array_equal(model.stack[i], buffer[:, i])
            assert np.shares_memory(model.subspace(i).basis, buffer)

    def test_wrong_shape_rejected(self):
        rng = np.random.default_rng(43)
        with pytest.raises(ConfigError):
            ModelState([Prototype(random_subspace(rng, 8, 3), 1)],
                       np.ones(2), "glgq", 2, 8)


class TestSampleCost:
    def test_values(self):
        rng = np.random.default_rng(4)
        model = two_class_model(rng, 8, 2)
        for label, expected in ((1, -1.0), (2, 1.0)):
            # the sample is prototype 0, so d+ = 0 for label 1 and d- = 0 for 2
            out = find_winners(model, Subspace(model.stack[0].copy()), label)
            assert np.isclose(out.mu, expected)
        for _ in range(5):
            out = find_winners(model, random_subspace(rng, 8, 2), 1)
            expected = (out.d_plus - out.d_minus) / (out.d_plus + out.d_minus)
            assert np.isclose(out.mu, expected)
            assert -1.0 <= out.mu <= 1.0

    def test_degenerate(self):
        rng = np.random.default_rng(5)
        _, out, _ = make_outcome(rng, 8, 2, np.ones(2))
        out.d_plus = out.d_minus = 0.0
        model = two_class_model(rng, 8, 2)
        with pytest.raises(DegenerateSample):
            relevance_gradient(out)
        with pytest.raises(DegenerateSample):
            prototype_gradient(out, np.ones(2), "plus")
        with pytest.raises(DegenerateSample):
            apply_prototype_update(model, out, 0.05)

    @pytest.mark.parametrize("mode", ["glgq", "grlgq"])
    def test_degenerate_train_step_changes_nothing(self, mode):
        # the sample coincides with a same-label and an other-label prototype
        rng = np.random.default_rng(5)
        sample = random_subspace(rng, 8, 2)
        protos = [Prototype(Subspace(sample.basis.copy()), label) for label in (1, 2)]
        relevance = np.ones(2) if mode == "glgq" else np.array([0.25, 0.75])
        model = ModelState(protos, relevance, mode, 2, 8)
        config = TrainConfig(eta=0.05, gamma=0.0 if mode == "glgq" else 1e-3,
                             epochs=1, seed=0, mode=mode)
        stack, relevance = model.stack.copy(), model.relevance.copy()
        assert np.isnan(find_winners(model, sample, 1).mu)
        with pytest.raises(DegenerateSample):
            train_step(model, sample, 1, config)
        assert np.array_equal(model.stack, stack)
        assert np.array_equal(model.relevance, relevance)


class TestRelevanceUpdate:
    def _model(self, relevance):
        rng = np.random.default_rng(6)
        return two_class_model(rng, 6, len(relevance), mode="grlgq",
                               relevance=np.asarray(relevance, dtype=float))

    def test_zero_gradient_keeps_weights(self):
        model = self._model([0.25, 0.75])
        out = apply_relevance_update(model, np.zeros(2), 0.1)
        assert np.allclose(out, [0.25, 0.75])

    def test_plain_step(self):
        model = self._model([0.5, 0.5])
        out = apply_relevance_update(model, np.array([1.0, -1.0]), 0.1)
        assert np.allclose(out, [0.4, 0.6])

    def test_clip_then_normalize(self):
        model = self._model([0.1, 0.9])
        out = apply_relevance_update(model, np.array([2.0, 0.0]), 0.1)
        assert np.allclose(out, [0.0, 1.0])

    def test_all_zero_raises(self):
        model = self._model([0.5, 0.5])
        with pytest.raises(AllZeroRelevance):
            apply_relevance_update(model, np.array([1.0, 1.0]), 10.0)

    def test_simplex_output(self):
        rng = np.random.default_rng(7)
        model = self._model(rng.dirichlet(np.ones(4)))
        out = apply_relevance_update(model, rng.standard_normal(4), 1e-3)
        assert abs(out.sum() - 1.0) < 1e-12
        assert np.all(out >= 0)


class TestPrototypeUpdate:
    def test_eta_zero_keeps_span(self):
        rng = np.random.default_rng(8)
        model = two_class_model(rng, 8, 2)
        # the items of model.prototypes are views that follow training
        before = [Subspace(p.subspace.basis.copy()) for p in model.prototypes]
        sample = random_subspace(rng, 8, 2)
        out = find_winners(model, sample, 1)
        apply_prototype_update(model, out, 0.0)
        for old, new in zip(before, model.prototypes):
            pd = principal_decomposition(old, new.subspace)
            assert geodesic_distance(pd) < 1e-8

    def test_small_step_descends(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            model = two_class_model(rng, 10, 3)
            sample = random_subspace(rng, 10, 3)
            out = find_winners(model, sample, 1)
            mu_before = out.mu
            apply_prototype_update(model, out, 1e-4)
            mu_after = find_winners(model, sample, 1).mu
            assert mu_after <= mu_before + 1e-12

    @pytest.mark.parametrize("D,d,eta", [(8, 3, 0.05), (20, 5, 0.5), (784, 12, 1e-4)])
    def test_rescale_spans_svd_orthonormalization(self, D, d, eta):
        rng = np.random.default_rng(D)
        for _ in range(5):
            model = two_class_model(rng, D, d, mode="grlgq")
            out = find_winners(model, random_subspace(rng, D, d), 1)
            expected = {
                idx: subspace_from_set(
                    pd.principal_right
                    - eta * prototype_gradient(out, model.relevance, which), d)
                for which, idx, pd in (("plus", out.winner_same, out.pd_plus),
                                       ("minus", out.winner_other, out.pd_minus))}
            apply_prototype_update(model, out, eta)
            for idx, svd_basis in expected.items():
                pd = principal_decomposition(model.subspace(idx), svd_basis)
                assert np.sum(pd.angles ** 2) < 1e-20

    @staticmethod
    def _collapsing_step():
        # the sample shares w_0 with the other-label winner, so u_0 = v_0; an
        # eta with eta * scale * g_0 = 1 removes that column entirely
        rng = np.random.default_rng(30)
        model = two_class_model(rng, 10, 3)
        shared = model.stack[1][:, :1]
        sample = subspace_from_set(
            np.hstack([shared, rng.standard_normal((10, 2))]), 3)
        out = find_winners(model, sample, 1)
        assert out.winner_other == 1 and out.pd_minus.angles[0] < 1e-12
        grad = prototype_gradient(out, model.relevance, "minus")
        eta = 1.0 / (out.pd_minus.principal_left[:, 0] @ grad[:, 0])
        return model, out, grad, eta, sample

    def test_collapsed_column_raises(self):
        model, out, grad, eta, _ = self._collapsing_step()
        with pytest.raises(RankDeficient):
            subspace_from_set(out.pd_minus.principal_right - eta * grad, 3)
        with pytest.raises(RankDeficient, match="winner minus"):
            apply_prototype_update(model, out, eta)

    def test_rank_deficient_update_writes_neither_winner(self):
        # the plus winner's step is valid, but it must not land when the
        # minus winner's step collapses
        model, out, _, eta, _ = self._collapsing_step()
        before = model.stack.copy()
        with pytest.raises(RankDeficient, match="winner minus"):
            apply_prototype_update(model, out, eta)
        assert np.array_equal(model.stack, before)

    def test_overflowing_step_raises_rank_deficient(self):
        # the sample has no weight on pixel 0, so row 0 of U is exactly zero
        # and an overflowing eta * c meets 0 * inf there
        rng = np.random.default_rng(34)
        model = two_class_model(rng, 8, 2)
        basis = random_subspace(rng, 7, 2).basis
        sample = Subspace(np.vstack([np.zeros((1, 2)), basis]))
        out = find_winners(model, sample, 1)
        assert np.all(out.pair.principal_left[:, 0] == 0.0)
        out.d_plus = out.d_minus = 1e-3  # scale 500: eta * c overflows
        before = model.stack.copy()
        with pytest.raises(RankDeficient):
            apply_prototype_update(model, out, 1e308)
        assert np.array_equal(model.stack, before)

    def test_non_finite_gradient_writes_neither_winner(self):
        rng = np.random.default_rng(32)
        model = two_class_model(rng, 8, 2)
        out = find_winners(model, random_subspace(rng, 8, 2), 1)
        angles = out.pair.angles.copy()
        angles[1, 0] = np.nan
        out.pair = dataclasses.replace(out.pair, angles=angles)
        before = model.stack.copy()
        with pytest.raises(FloatingPointError, match="winner minus"):
            apply_prototype_update(model, out, 0.05)
        assert np.array_equal(model.stack, before)

    def test_orthonormality_drift_over_many_steps(self):
        rng = np.random.default_rng(31)
        dataset = synthetic_subspace_dataset(rng, classes=3, D=20, d=5,
                                             per_class=10, noise=0.3)
        config = TrainConfig(eta=0.05, gamma=1e-4, epochs=1, seed=0, mode="grlgq")
        model, _ = fit(dataset[::10], config, init="example")
        worst = 0.0
        for step in range(3000):
            sample, label = dataset[rng.integers(len(dataset))]
            out = train_step(model, sample, label, config)
            for idx in (out.winner_same, out.winner_other):
                b = model.stack[idx]
                worst = max(worst, np.max(np.abs(b.T @ b - np.eye(5))))
        assert worst < 1e-12

    def test_trajectory_matches_per_winner_reference(self):
        # 200 fused steps against a loop that decomposes each winner on its
        # own, takes prototype_gradient per winner and rescales its columns
        rng = np.random.default_rng(33)
        dataset = synthetic_subspace_dataset(rng, classes=3, D=20, d=4,
                                             per_class=10, noise=0.3)
        config = TrainConfig(eta=0.05, gamma=1e-3, epochs=1, seed=0, mode="grlgq")
        model, _ = fit(dataset[::5], config, init="example", prototypes_per_class=2)
        ref = ModelState(model.prototypes, model.relevance.copy(), "grlgq", 4, 20)
        for step in range(200):
            sample, label = dataset[rng.integers(len(dataset))]
            out = train_step(model, sample, label, config)
            pds = [principal_decomposition(sample, Subspace(w)) for w in ref.stack]
            dists = [adaptive_squared_distance(pd, ref.relevance) for pd in pds]
            same = [i for i, y in enumerate(ref.labels) if y == label]
            other = [i for i, y in enumerate(ref.labels) if y != label]
            winners = (min(same, key=dists.__getitem__),
                       min(other, key=dists.__getitem__))
            assert (out.winner_same, out.winner_other) == winners, step
            d_plus, d_minus = dists[winners[0]], dists[winners[1]]
            pair = PrincipalDecomposition(*(
                np.stack([getattr(pds[i], f.name) for i in winners])
                for f in dataclasses.fields(PrincipalDecomposition)))
            ref_out = SampleOutcome(*winners, d_plus, d_minus,
                                    (d_plus - d_minus) / (d_plus + d_minus), pair)
            grad_rel = relevance_gradient(ref_out)
            for which, idx, pd in zip(("plus", "minus"), winners,
                                        (pds[i] for i in winners)):
                updated = (pd.principal_right
                           - config.eta * prototype_gradient(ref_out, ref.relevance, which))
                ref.stack[idx] = updated / np.linalg.norm(updated, axis=0)
            apply_relevance_update(ref, grad_rel, config.gamma)
            # compared as projectors W W^T: at nearly equal singular values an
            # ulp in a product can flip or rotate the SVD's singular vectors,
            # and with them the columns of V, without moving the subspace
            assert np.abs(projectors(model.stack) - projectors(ref.stack)).max() <= 1e-12, step
            assert np.abs(model.relevance - ref.relevance).max() <= 1e-15, step

    def test_winners_orthonormal_after_update(self):
        rng = np.random.default_rng(10)
        model = two_class_model(rng, 8, 3)
        sample = random_subspace(rng, 8, 3)
        out = find_winners(model, sample, 1)
        apply_prototype_update(model, out, 0.05)
        for p in model.prototypes:
            b = p.subspace.basis
            assert np.max(np.abs(b.T @ b - np.eye(3))) < 1e-8


class TestTrainStep:
    def test_glgq_leaves_relevance(self):
        rng = np.random.default_rng(11)
        model = two_class_model(rng, 8, 2, mode="glgq")
        config = TrainConfig(eta=0.01, gamma=0.0, epochs=1, seed=0, mode="glgq")
        train_step(model, random_subspace(rng, 8, 2), 1, config)
        assert np.all(model.relevance == 1.0)

    def test_grlgq_keeps_simplex(self):
        rng = np.random.default_rng(12)
        model = two_class_model(rng, 8, 2, mode="grlgq")
        config = TrainConfig(eta=0.05, gamma=1e-3, epochs=1, seed=0, mode="grlgq")
        for _ in range(20):
            train_step(model, random_subspace(rng, 8, 2), 1, config)
            assert abs(model.relevance.sum() - 1.0) < 1e-12
            assert np.all(model.relevance >= 0)


def _copy(model):
    """An independent ModelState with the same prototypes and relevance."""
    return ModelState(model.prototypes, model.relevance.copy(), model.mode,
                      model.subspace_dim, model.ambient_dim)


def _public_step(model, sample, label, config):
    """train_step's update through the public one-at-a-time functions."""
    out = find_winners(model, sample, label)
    relevance_step = model.mode == "grlgq" and config.gamma > 0
    grad = relevance_gradient(out) if relevance_step else None
    apply_prototype_update(model, out, config.eta)
    if relevance_step:
        apply_relevance_update(model, grad, config.gamma)
    return out


def _near_pair_step():
    # the sample is within 5e-3 rad of both winners, so d+ + d- is 2.5e-5 and
    # the coefficients about 1e5: eta = 1e308 overflows the step
    rng = np.random.default_rng(35)
    frame = random_subspace(rng, 8, 6).basis
    a, b, c = frame[:, :2], frame[:, 2:4], frame[:, 4:]
    t = np.array([1e-3, 2e-3])
    protos = [Prototype(Subspace(a * np.cos(t) + b * np.sin(t)), 1),
              Prototype(Subspace(a * np.cos(2 * t) + c * np.sin(2 * t)), 2)]
    model = ModelState(protos, np.ones(2), "glgq", 2, 8)
    config = TrainConfig(eta=1e308, gamma=0.0, epochs=1, seed=0, mode="glgq")
    return model, Subspace(a), 1, config


def _collapsing_train_step():
    # an eta that removes the other-label winner's first column
    model, _, _, eta, sample = TestPrototypeUpdate._collapsing_step()
    config = TrainConfig(eta=eta, gamma=0.0, epochs=1, seed=0, mode="glgq")
    return model, sample, 1, config


def _nan_gradient_step(monkeypatch):
    # a NaN in the minus winner's G matrix, as the test of the public path
    # puts a NaN in its angles
    rng = np.random.default_rng(32)
    model = two_class_model(rng, 8, 2)
    g_matrix = model_module.g_matrix_diagonal

    def with_nan(pd, weights):
        g = g_matrix(pd, weights)
        g[1, 0] = np.nan
        return g

    monkeypatch.setattr(model_module, "g_matrix_diagonal", with_nan)
    config = TrainConfig(eta=0.05, gamma=0.0, epochs=1, seed=0, mode="glgq")
    return model, random_subspace(rng, 8, 2), 1, config


def _degenerate_step():
    rng = np.random.default_rng(5)
    sample = random_subspace(rng, 8, 2)
    protos = [Prototype(Subspace(sample.basis.copy()), label) for label in (1, 2)]
    model = ModelState(protos, np.array([0.25, 0.75]), "grlgq", 2, 8)
    config = TrainConfig(eta=0.05, gamma=1e-3, epochs=1, seed=0, mode="grlgq")
    return model, sample, 1, config


class TestStepEntryPoints:
    """train_step runs on arrays; find_winners, relevance_gradient,
    apply_prototype_update and apply_relevance_update take the same step
    one function at a time, and must land on the same bits."""

    @pytest.mark.parametrize("mode, gamma, per_class", [
        ("glgq", 0.0, 1), ("grlgq", 1e-3, 1), ("grlgq", 1e-3, 2)])
    def test_trajectory_bitwise_equal(self, mode, gamma, per_class):
        rng = np.random.default_rng(60)
        dataset = synthetic_subspace_dataset(rng, classes=3, D=20, d=4,
                                             per_class=10, noise=0.3)
        config = TrainConfig(eta=0.05, gamma=gamma, epochs=1, seed=0, mode=mode)
        model, _ = fit(dataset[::5], config, init="example",
                       prototypes_per_class=per_class)
        ref = _copy(model)
        for step in range(300):
            sample, label = dataset[rng.integers(len(dataset))]
            out = train_step(model, sample, label, config)
            ref_out = _public_step(ref, sample, label, config)
            assert out.pair is None
            assert ((out.winner_same, out.winner_other, out.d_plus, out.d_minus, out.mu)
                    == (ref_out.winner_same, ref_out.winner_other, ref_out.d_plus,
                        ref_out.d_minus, ref_out.mu)), step
            assert np.array_equal(model.stack, ref.stack), step
            assert np.array_equal(model.relevance, ref.relevance), step

    @pytest.mark.parametrize("case, error, match", [
        ("collapsed-column", RankDeficient, "winner minus"),
        ("overflowing-eta", RankDeficient, "winner plus"),
        ("non-finite-gradient", FloatingPointError, "winner minus"),
        ("degenerate-sample", DegenerateSample, "both polarities"),
    ])
    def test_errors_match_and_write_nothing(self, case, error, match, monkeypatch):
        model, sample, label, config = {
            "collapsed-column": _collapsing_train_step,
            "overflowing-eta": _near_pair_step,
            "non-finite-gradient": lambda: _nan_gradient_step(monkeypatch),
            "degenerate-sample": _degenerate_step,
        }[case]()
        stack, relevance = model.stack.copy(), model.relevance.copy()
        for step in (_public_step, train_step):
            target = _copy(model) if step is _public_step else model
            with pytest.raises(error, match=match) as info:
                step(target, sample, label, config)
            assert type(info.value) is error
            assert np.array_equal(target.stack, stack)
            assert np.array_equal(target.relevance, relevance)


class TestWinnerGroups:
    @pytest.mark.parametrize("labels, label, message", [
        ((1, 2), 9, "no prototype with label 9"),
        ((3, 3), 3, "no prototype with label != 3"),
    ], ids=["label-without-prototype", "every-prototype-has-the-label"])
    def test_missing_class_on_every_call(self, labels, label, message):
        rng = np.random.default_rng(61)
        model = ModelState([Prototype(random_subspace(rng, 6, 2), y) for y in labels],
                           np.ones(2), "glgq", 2, 6)
        config = TrainConfig(eta=0.05, gamma=0.0, epochs=1, seed=0, mode="glgq")
        sample, stack = random_subspace(rng, 6, 2), model.stack.copy()
        for _ in range(2):
            for call in (lambda: find_winners(model, sample, label),
                         lambda: train_step(model, sample, label, config)):
                with pytest.raises(MissingClassPrototype) as info:
                    call()
                assert str(info.value) == message
        assert np.array_equal(model.stack, stack)

    def test_labels_read_only(self):
        model = two_class_model(np.random.default_rng(62), 6, 2)
        with pytest.raises(ValueError, match="read-only"):
            model.labels[0] = 2
        with pytest.raises(AttributeError):
            model.labels = np.array([2, 1])
        assert model.labels.tolist() == [1, 2]
        assert find_winners(model, model.subspace(0), 1).winner_same == 0


class TestOrthonormalityCheck:
    @staticmethod
    def _skewed(basis):
        """basis with its second column tilted 1e-7 towards its first."""
        skewed = basis.copy()
        skewed[:, 1] += 1e-7 * basis[:, 0]
        skewed[:, 1] /= np.linalg.norm(skewed[:, 1])
        return skewed

    @staticmethod
    def _with_nan(basis):
        bad = basis.copy()
        bad[3, 1] = np.nan
        return bad

    @pytest.mark.parametrize("corrupt", ["_skewed", "_with_nan"])
    def test_write_path_raises_the_subspace_error(self, corrupt):
        rng = np.random.default_rng(63)
        model = two_class_model(rng, 8, 2)
        out = find_winners(model, random_subspace(rng, 8, 2), 1)
        bad = getattr(self, corrupt)(out.pair.principal_right[1])
        with pytest.raises(ValueError) as expected:
            Subspace(bad)
        with pytest.raises(ValueError) as batched:
            check_orthonormal(np.stack([out.pair.principal_right[0], bad]))
        assert str(batched.value) == str(expected.value)
        # eta = 0 writes V itself, its columns rescaled to unit norm
        out.pair = dataclasses.replace(
            out.pair, principal_right=np.stack([out.pair.principal_right[0], bad]))
        stack = model.stack.copy()
        with pytest.raises(ValueError) as written:
            apply_prototype_update(model, out, 0.0)
        assert str(written.value) == str(expected.value)
        assert np.array_equal(model.stack, stack)

    def test_first_bad_basis_decides(self):
        rng = np.random.default_rng(64)
        good = random_subspace(rng, 8, 2).basis
        skewed = self._skewed(good)
        with pytest.raises(ValueError, match="not orthonormal"):
            check_orthonormal(np.stack([good, skewed, self._with_nan(good)]))
        with pytest.raises(ValueError, match="non-finite entries"):
            check_orthonormal(np.stack([good, self._with_nan(good), skewed]))
        check_orthonormal(np.stack([good, good]))


class TestFit:
    def test_determinism(self):
        rng = np.random.default_rng(13)
        dataset = synthetic_subspace_dataset(rng, classes=2, D=10, d=2,
                                             per_class=5)
        config = TrainConfig(eta=0.05, gamma=1e-4, epochs=5, seed=7,
                             mode="grlgq")
        model_a, stats_a = fit(dataset, config, init="example")
        model_b, stats_b = fit(dataset, config, init="example")
        assert stats_a == stats_b
        assert np.array_equal(model_a.relevance, model_b.relevance)
        for pa, pb in zip(model_a.prototypes, model_b.prototypes):
            assert np.array_equal(pa.subspace.basis, pb.subspace.basis)

    def test_grlgq_gamma_zero_matches_glgq_bitwise(self):
        rng = np.random.default_rng(14)
        dataset = synthetic_subspace_dataset(rng, classes=3, D=12, d=3,
                                             per_class=4)
        runs = {}
        for mode in ("glgq", "grlgq"):
            init_rng = np.random.default_rng(21)
            protos = init_prototypes(dataset, 3, "example", init_rng)
            model = ModelState(protos, np.ones(3), mode, 3, 12)
            config = TrainConfig(eta=0.05, gamma=0.0, epochs=4, seed=21,
                                 mode=mode)
            runs[mode] = fit(dataset, config, model=model)
        model_g, stats_g = runs["glgq"]
        model_r, stats_r = runs["grlgq"]
        assert stats_g == stats_r
        for pg, pr in zip(model_g.prototypes, model_r.prototypes):
            assert np.array_equal(pg.subspace.basis, pr.subspace.basis)
        assert np.array_equal(model_g.relevance, model_r.relevance)

    def test_given_model_of_another_mode_rejected(self):
        rng = np.random.default_rng(14)
        dataset = synthetic_subspace_dataset(rng, classes=2, D=10, d=2,
                                             per_class=3)
        model, _ = fit(dataset, TrainConfig(eta=0.05, gamma=0.0, epochs=1,
                                            seed=0, mode="glgq"), init="example")
        config = TrainConfig(eta=0.05, gamma=1e-2, epochs=1, seed=0, mode="grlgq")
        with pytest.raises(ConfigError, match="'grlgq' differs from the model's mode 'glgq'"):
            fit(dataset, config, model=model)
        assert np.array_equal(model.relevance, np.ones(2))

    def test_separable_synthetic_task(self):
        rng = np.random.default_rng(15)
        train = synthetic_subspace_dataset(rng, classes=3, D=20, d=3,
                                           per_class=10, noise=0.05)
        config = TrainConfig(eta=0.05, gamma=1e-4, epochs=20, seed=3,
                             mode="grlgq")
        model, stats = fit(train, config, init="example")
        test_rng = np.random.default_rng(16)
        acc, _ = evaluate(model, train, "sets")
        assert acc >= 0.95


class TestInitPrototypes:
    def test_example_single_sample_per_class(self):
        rng = np.random.default_rng(17)
        a, b = random_subspace(rng, 8, 2), random_subspace(rng, 8, 2)
        dataset = [(a, 1), (b, 2)]
        protos = init_prototypes(dataset, 2, "example",
                                 np.random.default_rng(0))
        assert np.array_equal(protos[0].subspace.basis, a.basis)
        assert np.array_equal(protos[1].subspace.basis, b.basis)

    def test_pca_recovers_low_dim_class(self):
        rng = np.random.default_rng(18)
        center = random_subspace(rng, 10, 2)
        images = center.basis @ rng.standard_normal((2, 30))
        dataset = [(random_subspace(rng, 10, 2), 1),
                   (random_subspace(rng, 10, 2), 2)]
        protos = init_prototypes(dataset, 2, "pca", np.random.default_rng(0),
                                 class_matrices={1: images, 2: images})
        pd = principal_decomposition(protos[0].subspace, center)
        assert geodesic_distance(pd) < 1e-6

    def test_pca_fit_takes_uint8_class_matrices(self):
        # the pca init builds from pixels bitwise what it builds from their
        # unit_columns, and so does the whole run after it
        rng = np.random.default_rng(22)
        dataset = synthetic_subspace_dataset(rng, classes=2, D=16, d=2, per_class=4)
        pixels = {label: rng.integers(0, 256, (16, 12), dtype=np.uint8)
                  for label in (1, 2)}
        config = TrainConfig(eta=0.05, gamma=1e-4, epochs=2, seed=3, mode="grlgq")
        got, got_stats = fit(dataset, config, init="pca", class_matrices=pixels)
        want, want_stats = fit(dataset, config, init="pca", class_matrices={
            label: unit_columns(X) for label, X in pixels.items()})
        assert got.pixel_stack.tobytes() == want.pixel_stack.tobytes()
        assert got.relevance.tobytes() == want.relevance.tobytes()
        assert got_stats == want_stats

    def test_pca_runs_one_svd_per_class(self, monkeypatch):
        rng = np.random.default_rng(20)
        dataset = [(random_subspace(rng, 10, 2), label) for label in (1, 2, 3)]
        matrices = {label: rng.standard_normal((10, 30)) for label in (1, 2, 3)}
        calls = []
        monkeypatch.setattr(model_module, "subspace_from_set",
                            lambda X, d: calls.append(X) or subspace_from_set(X, d))
        protos = init_prototypes(dataset, 2, "pca", np.random.default_rng(0),
                                 prototypes_per_class=3, class_matrices=matrices)
        assert len(calls) == 3
        assert [p.label for p in protos] == [1, 1, 1, 2, 2, 2, 3, 3, 3]
        for first, *copies in zip(*[iter(protos)] * 3):
            for p in copies:
                assert np.array_equal(p.subspace.basis, first.subspace.basis)
                assert not np.shares_memory(p.subspace.basis, first.subspace.basis)

    def test_random_orthonormal(self):
        rng = np.random.default_rng(19)
        dataset = [(random_subspace(rng, 9, 3), 1),
                   (random_subspace(rng, 9, 3), 2)]
        protos = init_prototypes(dataset, 3, "random", np.random.default_rng(1))
        for p in protos:
            b = p.subspace.basis
            assert np.max(np.abs(b.T @ b - np.eye(3))) < 1e-10


def nearest(model, sample, kind="sets"):
    """Nearest-prototype label of one sample, and its row of scores."""
    row = scores(model, [sample], kind)[0]
    return int(model.labels[np.argmin(row)]), row


class TestPrediction:
    def test_predict_prototype_itself(self):
        rng = np.random.default_rng(20)
        model = two_class_model(rng, 8, 2)
        for p in model.prototypes:
            label, dists = nearest(model, Subspace(p.subspace.basis.copy()))
            assert label == p.label
            assert np.min(dists) < 1e-12

    def test_single_prototype_always_wins(self):
        rng = np.random.default_rng(21)
        protos = [Prototype(random_subspace(rng, 6, 2), 5)]
        model = ModelState(protos, np.ones(2), "glgq", 2, 6)
        label, _ = nearest(model, random_subspace(rng, 6, 2))
        assert label == 5

    def test_relevance_scaling_invariance(self):
        rng = np.random.default_rng(22)
        model = two_class_model(rng, 8, 3, mode="grlgq",
                                relevance=np.array([0.2, 0.3, 0.5]))
        scaled = ModelState([Prototype(Subspace(p.subspace.basis.copy()), p.label)
                             for p in model.prototypes],
                            model.relevance * 7.0, "grlgq", 3, 8)
        for _ in range(10):
            sample = random_subspace(rng, 8, 3)
            assert nearest(model, sample)[0] == nearest(scaled, sample)[0]

    def test_predict_vector(self):
        rng = np.random.default_rng(23)
        model = two_class_model(rng, 8, 2)
        x = model.prototypes[1].subspace.basis[:, 0]
        label, angles = nearest(model, x, "vectors")
        assert label == model.prototypes[1].label
        assert np.min(angles) < 1e-7

    def test_vector_agrees_with_set_for_d1(self):
        rng = np.random.default_rng(24)
        protos = [Prototype(random_subspace(rng, 7, 1), 1),
                  Prototype(random_subspace(rng, 7, 1), 2)]
        model = ModelState(protos, np.ones(1), "glgq", 1, 7)
        for _ in range(10):
            x = rng.standard_normal(7)
            x /= np.linalg.norm(x)
            assert (nearest(model, x, "vectors")[0]
                    == nearest(model, Subspace(x[:, None]))[0])


class TestEvaluate:
    def test_prototypes_as_data(self):
        rng = np.random.default_rng(25)
        model = two_class_model(rng, 8, 2)
        dataset = [(p.subspace, p.label) for p in model.prototypes]
        acc, confusion = evaluate(model, dataset, "sets")
        assert acc == 1.0
        assert np.trace(confusion) == 2

    def test_confusion_rows_sum_to_class_counts(self):
        rng = np.random.default_rng(26)
        model = two_class_model(rng, 8, 2)
        dataset = [(random_subspace(rng, 8, 2), 1 + (i % 2))
                   for i in range(12)]
        _, confusion = evaluate(model, dataset, "sets")
        assert list(confusion.sum(axis=1)) == [6, 6]

    def test_random_labels_near_chance(self):
        rng = np.random.default_rng(27)
        classes = 3
        dataset = synthetic_subspace_dataset(rng, classes=classes, D=15, d=2,
                                             per_class=40, noise=0.05)
        perm_rng = np.random.default_rng(28)
        shuffled = [(s, int(perm_rng.integers(1, classes + 1)))
                    for s, _ in dataset]
        config = TrainConfig(eta=0.05, gamma=0.0, epochs=1, seed=1, mode="glgq")
        model, _ = fit(dataset, config, init="example")
        acc, _ = evaluate(model, shuffled, "sets")
        assert abs(acc - 1.0 / classes) < 0.1

    @staticmethod
    def _model(rng, D, d, classes=3):
        protos = [Prototype(random_subspace(rng, D, d), c + 1)
                  for c in range(classes)]
        return ModelState(protos, np.full(d, 1.0 / d), "grlgq", d, D)

    @staticmethod
    def _looped_confusion(model, dataset, kind):
        labels = sorted(set(model.labels.tolist()) | {y for _, y in dataset})
        confusion = np.zeros((len(labels), len(labels)), dtype=np.int64)
        for sample, y in dataset:
            pred, _ = nearest(model, sample, kind)
            confusion[labels.index(y), labels.index(pred)] += 1
        return confusion

    # N = 1, and one block plus one image so that a second block is made;
    # one image lies in a prototype's span, which takes the refined path
    @pytest.mark.parametrize("n", [1, EVAL_BLOCK_BYTES // (8 * 784) + 1])
    def test_vectors_match_predict_vector(self, n):
        rng = np.random.default_rng(29)
        model = self._model(rng, 784, 3)
        images = np.abs(rng.standard_normal((n, 784)))
        images[n // 2] = model.stack[1] @ rng.standard_normal(3)
        images /= np.linalg.norm(images, axis=1)[:, None]
        dataset = [(x, int(y)) for x, y in zip(images, rng.integers(1, 5, n))]
        acc, confusion = evaluate(model, dataset, "vectors")
        assert np.array_equal(
            confusion, self._looped_confusion(model, dataset, "vectors"))
        assert acc == np.trace(confusion) / n
        assert nearest(model, images[n // 2], "vectors")[0] == 2

    def test_sets_match_predict_set(self):
        rng = np.random.default_rng(30)
        D, d = 400, 25
        model = self._model(rng, D, d)
        n = EVAL_BLOCK_BYTES // (8 * D * d) + 1
        dataset = [(random_subspace(rng, D, d), int(y))
                   for y in rng.integers(1, 4, n)]
        dataset[0] = (Subspace(model.stack[2].copy()), 1)
        _, confusion = evaluate(model, dataset, "sets")
        assert np.array_equal(
            confusion, self._looped_confusion(model, dataset, "sets"))
        assert confusion[0, 2] >= 1

    # one odd sample in the middle of a block; the others stack fine
    @pytest.mark.parametrize("kind, shape, error, match", [
        ("vectors", (783,), InconsistentDims, "sample 3 has D = 783"),
        ("vectors", (784, 2), ValueError, "sample 3 has shape"),
        ("sets", (783, 3), InconsistentDims, "sample 3 has D = 783"),
        ("sets", (784, 2), ValueError, "sample 3 has d = 2, model has d = 3"),
    ])
    def test_odd_sample_in_block(self, kind, shape, error, match):
        rng = np.random.default_rng(32)
        model = self._model(rng, 784, 3)

        def make(shape):
            basis = np.linalg.qr(rng.standard_normal((*shape, 1)[:2]))[0]
            return basis.reshape(shape) if kind == "vectors" else Subspace(basis)

        good = (784,) if kind == "vectors" else (784, 3)
        samples = [make(shape if i == 2 else good) for i in range(5)]
        with pytest.raises(error, match=match):
            evaluate(model, [(s, 1) for s in samples], kind)

    def test_unknown_kind(self):
        rng = np.random.default_rng(31)
        with pytest.raises(ValueError, match="kind"):
            evaluate(two_class_model(rng, 8, 2), [], "images")


class TestScores:
    """scores against references that do not go through the batched kernel."""

    def test_sets_match_principal_decomposition(self):
        rng = np.random.default_rng(33)
        D, d = 400, 25
        model = TestEvaluate._model(rng, D, d)
        # one block plus one set, so that a second block is made
        samples = [random_subspace(rng, D, d)
                   for _ in range(EVAL_BLOCK_BYTES // (8 * D * d) + 1)]
        samples[-1] = Subspace(model.stack[1].copy())
        table = scores(model, samples, "sets")
        expected = [[adaptive_squared_distance(principal_decomposition(s, p.subspace),
                                               model.relevance)
                     for p in model.prototypes] for s in samples]
        assert table.shape == (len(samples), 3)
        assert np.max(np.abs(table - expected)) < 1e-12

    def test_vectors_match_projection_residual(self):
        rng = np.random.default_rng(34)
        D = 784
        model = TestEvaluate._model(rng, D, 3)
        images = rng.standard_normal((EVAL_BLOCK_BYTES // (8 * D) + 1, D))
        images[-1] = model.stack[2] @ rng.standard_normal(3)  # in the span
        images /= np.linalg.norm(images, axis=1)[:, None]
        table = scores(model, list(images), "vectors")
        coeffs = np.einsum("ne,pek->npk", images, model.stack)  # W^T x
        residuals = images[:, None] - np.einsum("pdk,npk->npd", model.stack, coeffs)
        expected = np.arcsin(np.minimum(np.linalg.norm(residuals, axis=2), 1.0))
        assert table.shape == (len(images), 3)
        assert np.max(np.abs(table - expected)) < 1e-12
        assert table[-1, 2] < 1e-12

    @pytest.mark.parametrize("kind", ["sets", "vectors"])
    def test_no_samples(self, kind):
        rng = np.random.default_rng(35)
        model = TestEvaluate._model(rng, 8, 2)
        assert scores(model, [], kind).shape == (0, 3)
        accuracy, confusion = evaluate(model, [], kind)
        assert accuracy == 0.0
        assert np.array_equal(confusion, np.zeros((3, 3), dtype=np.int64))


class TestStreaming:
    """scores and evaluate pull any iterable one block of samples at a time."""

    @staticmethod
    def _samples(rng, model, kind, n):
        D, d = model.stack.shape[1:]
        if kind == "sets":
            return [random_subspace(rng, D, d) for _ in range(n)]
        images = np.abs(rng.standard_normal((n, D)))
        return list(images / np.linalg.norm(images, axis=1)[:, None])

    @pytest.mark.parametrize("kind, D, d", [("sets", 400, 25), ("vectors", 784, 3)])
    @pytest.mark.parametrize("size", ["0", "1", "block", "block+1"])
    def test_one_shot_generator_matches_list_bitwise(self, kind, D, d, size):
        rng = np.random.default_rng(36)
        model = TestEvaluate._model(rng, D, d)
        block = model_module.eval_block_size(model, kind)
        n = {"0": 0, "1": 1, "block": block, "block+1": block + 1}[size]
        starts = range(0, n, block)
        if kind == "vectors":
            # evaluate takes the pixel rows; eval --images passes blocks of
            # them as (D, B, 1) uint8 views
            pixels = rng.integers(0, 256, (n, D), np.uint8)
            samples = list(pixels)
            blocks = (pixels[s:s + block].T[:, :, None] for s in starts)
        else:
            samples = self._samples(rng, model, kind, n)
            blocks = (np.stack([x.basis for x in samples[s:s + block]], axis=1)
                      for s in starts)
        dataset = list(zip(samples, rng.integers(1, 4, n).tolist()))
        table = scores(model, samples, kind)
        streamed = scores(model, (s for s in samples), kind)
        blocked = score_blocks(model, blocks, kind)
        assert streamed.shape == blocked.shape == table.shape == (n, 3)
        assert streamed.tobytes() == table.tobytes()
        assert blocked.tobytes() == table.tobytes()
        accuracy, confusion = evaluate(model, dataset, kind)
        streamed_accuracy, streamed_confusion = evaluate(model, iter(dataset), kind)
        assert streamed_accuracy == accuracy
        assert np.array_equal(streamed_confusion, confusion)

    @pytest.mark.parametrize("kind, shape", [("sets", (399, 25)), ("vectors", (399,))])
    def test_bad_shape_in_second_block_named_by_dataset_index(self, kind, shape):
        rng = np.random.default_rng(37)
        model = TestEvaluate._model(rng, 400, 25)
        block = model_module.eval_block_size(model, kind)
        samples = self._samples(rng, model, kind, block + 3)
        bad = np.linalg.qr(rng.standard_normal((*shape, 1)[:2]))[0]
        samples[block + 1] = bad.reshape(shape) if kind == "vectors" else Subspace(bad)
        with pytest.raises(InconsistentDims, match=f"^sample {block + 2} has D = 399"):
            scores(model, iter(samples), kind)

    def test_evaluate_holds_at_most_one_block(self):
        rng = np.random.default_rng(38)
        model = TestEvaluate._model(rng, 400, 25)
        block = model_module.eval_block_size(model, "sets")
        refs, peak = [], 0

        def dataset():
            # counts the samples and bases still alive as each new one is made
            nonlocal peak
            for i in range(3 * block + 2):
                sample = random_subspace(rng, 400, 25)
                refs.extend([weakref.ref(sample), weakref.ref(sample.basis)])
                peak = max(peak, sum(r() is not None for r in refs[0::2]),
                           sum(r() is not None for r in refs[1::2]))
                yield sample, 1 + i % 3

        accuracy, confusion = evaluate(model, dataset(), "sets")
        assert confusion.sum() == 3 * block + 2
        assert 1 <= peak <= block

    @pytest.mark.parametrize("kind, D, d", [("sets", 400, 25), ("vectors", 784, 3)])
    def test_scores_holds_one_block_at_a_time(self, kind, D, d, monkeypatch):
        rng = np.random.default_rng(39)
        model = TestEvaluate._model(rng, D, d)
        block = model_module.eval_block_size(model, kind)
        calls = track_kernel_blocks(monkeypatch)

        def samples():
            # no block the kernel has scored is alive while the next is made
            for sample in self._samples(rng, model, kind, 3 * block + 2):
                calls.all_dead()
                yield sample

        table = scores(model, samples(), kind)
        assert table.shape == (3 * block + 2, 3)
        assert [shape[1] for shape in calls.shapes] == [block, block, block, 2]
        calls.all_dead()

    @staticmethod
    def _blocks(rng, model, kind, sizes):
        D, d = model.stack.shape[1:]
        k = 1 if kind == "vectors" else d
        return (np.linalg.qr(rng.standard_normal((D, n * k)))[0].reshape(D, n, k)
                for n in sizes)

    @pytest.mark.parametrize("kind", ["sets", "vectors"])
    def test_every_block_meets_the_model_array(self, kind, monkeypatch):
        rng = np.random.default_rng(41)
        model = TestEvaluate._model(rng, 60, 3)
        calls = track_kernel_blocks(monkeypatch)
        table = score_blocks(model, self._blocks(rng, model, kind, [4, 4, 1]), kind)
        assert table.shape == (9, 3)
        assert len(calls.stacks) == 3
        assert all(stack is model.pixel_stack for stack in calls.stacks)

    @staticmethod
    def _pixel_and_unit_tables(model, rows):
        """score_blocks of uint8 (B, D) pixel row blocks, as (D, B, 1) views
        as eval --images makes them, and of their unit_columns."""
        table = score_blocks(model, (r.T[:, :, None] for r in rows), "vectors")
        unit = score_blocks(model, (unit_columns(r.T)[:, :, None] for r in rows), "vectors")
        return table, unit

    @pytest.mark.parametrize("sizes", [[4, 4], [4, 4, 1], [1, 4, 2]])
    def test_uint8_vector_blocks_score_as_their_unit_columns(self, sizes):
        """Full blocks, a short last block, and a short block before a longer
        one, which replaces the buffer: score_blocks scores uint8 pixel rows
        on their raw pixels, their norms dividing the cosines, within 4e-15
        rad of the unit_columns of those rows, for dim rows (pixels 0 and 1),
        bright rows (up to 255) and rows of one nonzero pixel."""
        rng = np.random.default_rng(43)
        model = TestEvaluate._model(rng, 60, 3)
        bright = [rng.integers(1, 256, (n, 60), np.uint8) for n in sizes]
        dim = [(rng.random(r.shape) < 0.5).astype(np.uint8) for r in bright]
        for r in dim:
            r[:, 0] = 1  # no black row
        one = [r * (np.arange(60) == rng.integers(60, size=(len(r), 1))) for r in bright]
        for rows in (dim, bright, one):
            table, unit = self._pixel_and_unit_tables(model, rows)
            assert table.shape == (sum(sizes), 3)
            assert np.abs(table - unit).max() <= 4e-15

    def test_uint8_vector_rows_in_a_prototype_span(self):
        """Pixel rows in prototype 0's span, and rows one pixel off it, have
        cos > 0.9 to it, so their angles take the atan2 refinement: still
        within 4e-15 rad of their unit_columns rows."""
        rng = np.random.default_rng(44)
        span = rng.integers(0, 4, (60, 3)).astype(np.uint8)
        model = TestEvaluate._model(rng, 60, 3)
        model.stack[0] = subspace_from_set(span, 3).basis
        rows = (span @ rng.integers(1, 20, (3, 8))).T.astype(np.uint8)
        rows[4:, 7] += 1
        table, unit = self._pixel_and_unit_tables(model, [rows[:5], rows[5:]])
        assert np.all(table[:, 0] < np.arccos(0.9))
        assert np.abs(table - unit).max() <= 4e-15

    def test_black_uint8_row_is_not_scored(self):
        """A black pixel row through scores raises the unit-vector
        ValueError before the kernel's GEMM reads the stack."""

        class Unread(np.ndarray):
            def reshape(self, *shape):
                raise AssertionError("the GEMM ran")

        model = TestEvaluate._model(np.random.default_rng(45), 60, 3)
        model.pixel_stack = model.pixel_stack.view(Unread)
        rows = np.random.default_rng(46).integers(1, 256, (3, 60)).astype(np.uint8)
        rows[1] = 0
        with pytest.raises(ValueError, match="x must be a unit vector"):
            scores(model, rows, "vectors")

    @pytest.mark.parametrize("kind", ["sets", "vectors"])
    def test_scoring_copies_no_model(self, kind, monkeypatch):
        # 24 prototypes of 784 x 12 make a 1.8 MB model; a block is a quarter
        # of it, and a copy of the model would lift the peak above it
        rng = np.random.default_rng(42)
        protos = [Prototype(random_subspace(rng, 784, 12), 1 + i % 3) for i in range(24)]
        model = ModelState(protos, np.full(12, 1 / 12), "grlgq", 12, 784)
        size = model.stack.nbytes
        monkeypatch.setattr(model_module, "EVAL_BLOCK_BYTES", size // 4)
        block = model_module.eval_block_size(model, kind)
        blocks = list(self._blocks(rng, model, kind, [block] * 3 + [1]))
        assert max(b.nbytes for b in blocks) <= size // 4
        tracemalloc.start()
        try:
            table = score_blocks(model, iter(blocks), kind)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.shape == (3 * block + 1, 24)
        assert peak < size, peak / size

    @pytest.mark.parametrize("kind, shape", [
        ("sets", (784, 1, 2)), ("vectors", (784, 1, 3)), ("vectors", (784, 1))])
    def test_block_of_another_width(self, kind, shape):
        model = TestEvaluate._model(np.random.default_rng(40), 784, 3)
        with pytest.raises(ValueError, match="block of shape"):
            score_blocks(model, [np.zeros(shape)], kind)


def _config(mode="grlgq"):
    return TrainConfig(eta=0.05, gamma=1e-4, epochs=1, seed=0, mode=mode)


# case -> (exception type, message, call on (model, dataset) that raises)
INPUT_CHECKS = {
    "model-unknown-mode": (
        ConfigError, "unknown mode 'bogus'", lambda model, dataset: ModelState(
            [Prototype(dataset[0][0], 1)], [0.5, 0.5], "bogus", 2, 8)),
    "model-relevance-of-another-length": (
        ConfigError, "relevance length must equal the subspace dimension",
        lambda model, dataset: ModelState(
            [Prototype(dataset[0][0], 1)], np.full(3, 1 / 3), "grlgq", 2, 8)),
    "config-unknown-mode": (
        ConfigError, "unknown mode 'bogus'", lambda model, dataset: _config("bogus")),
    "gradient-of-neither-winner": (
        ValueError, "which must be 'plus' or 'minus'",
        lambda model, dataset: prototype_gradient(
            find_winners(model, *dataset[0]), model.relevance, "neither")),
    "relevance-nan-gradient": (
        FloatingPointError, "non-finite relevance gradient",
        lambda model, dataset: apply_relevance_update(model, [np.nan, 0.0], 0.1)),
    "init-empty-dataset": (
        ConfigError, "dataset is empty", lambda model, dataset: init_prototypes(
            [], 2, "example", np.random.default_rng(0))),
    "init-unknown-strategy": (
        ConfigError, "unknown init strategy 'bogus'",
        lambda model, dataset: init_prototypes(
            dataset, 2, "bogus", np.random.default_rng(0))),
    "fit-pca-without-class-matrices": (
        ConfigError, "pca init requires per-class image matrices",
        lambda model, dataset: fit(dataset, _config(), init="pca")),
    "fit-empty-dataset": (
        ConfigError, "dataset is empty",
        lambda model, dataset: fit([], _config(), model=model)),
}


@pytest.mark.parametrize("case", sorted(INPUT_CHECKS))
def test_input_check_raises_and_leaves_model(case):
    rng = np.random.default_rng(41)
    model = two_class_model(rng, 8, 2, mode="grlgq")
    dataset = synthetic_subspace_dataset(rng, classes=2, D=8, d=2, per_class=2)
    before = model.pixel_stack.copy(), model.relevance.copy()
    error, message, call = INPUT_CHECKS[case]
    with pytest.raises(error) as info:
        call(model, dataset)
    assert type(info.value) is error
    assert str(info.value) == message
    assert np.array_equal(model.pixel_stack, before[0])
    assert np.array_equal(model.relevance, before[1])


class TestConfigValidation:
    def test_glgq_forbids_gamma(self):
        with pytest.raises(ConfigError):
            TrainConfig(eta=0.05, gamma=0.5, epochs=1, seed=0, mode="glgq")

    @pytest.mark.parametrize("eta,gamma", [
        (np.nan, 1e-4), (np.inf, 1e-4), (-np.inf, 1e-4),
        (0.05, np.nan), (0.05, np.inf)])
    def test_non_finite_rates_rejected(self, eta, gamma):
        with pytest.raises(ConfigError, match="finite"):
            TrainConfig(eta=eta, gamma=gamma, epochs=1, seed=0, mode="grlgq")

    def test_grlgq_requires_small_gamma(self):
        with pytest.raises(ConfigError):
            TrainConfig(eta=0.05, gamma=0.05, epochs=1, seed=0, mode="grlgq")

    def test_glgq_relevance_must_be_ones(self):
        rng = np.random.default_rng(29)
        protos = [Prototype(random_subspace(rng, 6, 2), 1),
                  Prototype(random_subspace(rng, 6, 2), 2)]
        with pytest.raises(ConfigError):
            ModelState(protos, np.array([0.5, 0.5]), "glgq", 2, 6)
