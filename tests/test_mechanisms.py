"""Update schemes and noising mechanisms against enumeration and MC oracles."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aggnoise import spectra as spectra_module
from aggnoise.errors import EmptyDataset, NonFinite, NotPositiveSemidefinite
from aggnoise.fedsim.models import ModelFamily, ModelOps, design
from aggnoise.mechanisms import (
    NoisedUpdate,
    SchemeKind,
    UpdateScheme,
    clip_gradient,
    compute_update,
    ddp_noise,
    fedavg_replays,
    wfdp_from_spectra,
    wfdp_update,
    wfna_noise,
)
from aggnoise.spectra import (
    CovarianceModel,
    GradientMatrix,
    eig_decompose,
    estimate_mean_cov,
    estimate_width,
    floor_coverage,
    rank,
    sample_gaussian,
)

LINEAR = ModelOps(ModelFamily.LINEAR_REGRESSION)


class TestClipGradient:
    def test_inside_ball_unchanged(self):
        g = np.array([0.3, 0.4])
        assert np.array_equal(clip_gradient(g, 1.0), g)

    def test_rescale_to_boundary(self):
        out = clip_gradient(np.array([3.0, 4.0]), 1.0)
        assert np.allclose(out, [0.6, 0.8])

    def test_zero_vector(self):
        assert np.array_equal(clip_gradient(np.zeros(4), 2.0), np.zeros(4))

    def test_rejects_nan(self):
        with pytest.raises(NonFinite):
            clip_gradient(np.array([np.nan]), 1.0)

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=6),
           st.floats(min_value=0.1, max_value=5.0))
    @settings(max_examples=100, deadline=None)
    def test_idempotent_and_bounded(self, values, clip):
        g = np.array(values)
        once = clip_gradient(g, clip)
        assert np.linalg.norm(once) <= clip * (1 + 1e-12)
        assert np.allclose(clip_gradient(once, clip), once)

    @given(st.floats(min_value=0.1, max_value=2.0),
           st.floats(min_value=0.1, max_value=2.0))
    @settings(max_examples=50, deadline=None)
    def test_lipschitz_in_clip(self, c1, c2):
        g = np.array([5.0, -2.0, 1.0])
        a = clip_gradient(g, c1)
        b = clip_gradient(g, c2)
        assert np.linalg.norm(a - b) <= abs(c1 - c2) + 1e-12


def one_point_dataset(d=3, repeats=6):
    x = np.full((repeats, d), 0.5)
    y = np.zeros(repeats)
    return x, y


def update_of_one(scheme, features, labels, theta, clip, rng):
    """One user's ``compute_update`` as a stack of one: its (dim,) update, gradients and estimate."""
    x, grads, dist = compute_update(scheme, design(features)[None], labels[None], LINEAR, theta,
                                    clip, [rng])
    return x[0], grads, dist


class TestComputeUpdate:
    def test_full_gd_identical_examples(self):
        features, labels = one_point_dataset()
        scheme = UpdateScheme(SchemeKind.FULL_GD, learning_rate=0.3)
        theta = np.ones(4)
        x, grads, _ = update_of_one(scheme, features, labels, theta, 1.0, np.random.default_rng(0))
        g = LINEAR.per_example_gradients(theta, design(features[:1]), labels[:1])[0]
        # the update is the mean clipped gradient: the learning rate is the caller's
        assert np.allclose(-0.3 * x, -0.3 * clip_gradient(g, 1.0))
        assert grads.count == 6

    def test_no_learning_rate_is_applied(self):
        rng = np.random.default_rng(9)
        features, labels = rng.standard_normal((10, 3)), rng.standard_normal(10)
        theta = np.zeros(4)
        for kind in SchemeKind:
            updates = [
                update_of_one(UpdateScheme(kind, batch=4, learning_rate=eta, fedavg_samples=2),
                              features, labels, theta, 1.0, np.random.default_rng(4))[0]
                for eta in (0.3, 0.3 if kind is SchemeKind.FEDAVG else 7.0)
            ]
            assert np.array_equal(updates[0], updates[1])

    def test_fedavg_returns_no_gradients(self):
        features, labels = one_point_dataset()
        scheme = UpdateScheme(SchemeKind.FEDAVG, batch=2, learning_rate=0.3, fedavg_samples=2)
        x, grads, dist = update_of_one(scheme, features, labels, np.ones(4), 1.0,
                                       np.random.default_rng(0))
        assert x.shape == (4,) and grads is None and dist is None

    def test_iid_sgd_collapses_to_full_gd_on_repeated_example(self):
        features, labels = one_point_dataset()
        theta = np.ones(4)
        full = update_of_one(UpdateScheme(SchemeKind.FULL_GD, learning_rate=0.3),
                             features, labels, theta, 1.0, np.random.default_rng(1))[0]
        sgd = update_of_one(UpdateScheme(SchemeKind.IID_SGD, batch=6, learning_rate=0.3),
                            features, labels, theta, 1.0, np.random.default_rng(2))[0]
        assert np.allclose(full, sgd)

    def test_gaussian_sampled_stays_on_gradient_line(self):
        # identical gradients: the uncentered second moment is rank one, so
        # the sampled update varies only along the shared gradient direction
        features, labels = one_point_dataset()
        theta = np.ones(4)
        scheme = UpdateScheme(SchemeKind.GAUSSIAN_SAMPLED, batch=2, learning_rate=1.0)
        g = clip_gradient(LINEAR.per_example_gradients(theta, design(features[:1]), labels[:1])[0], 1.0)
        direction = g / np.linalg.norm(g)
        rng = np.random.default_rng(3)
        for _ in range(10):
            x, _, _ = update_of_one(scheme, features, labels, theta, 1.0, rng)
            residual = x - direction * (direction @ x)
            # off-line contamination is bounded by the eigensolver's noise floor
            assert np.linalg.norm(residual) < 1e-6 * max(np.linalg.norm(x), 1.0)

    def test_gaussian_sampled_zero_spectrum_is_deterministic(self):
        # a zero covariance around the full-GD gradients' mean: sampling from
        # it returns that mean exactly
        features, labels = one_point_dataset()
        theta = np.ones(4)
        grads = update_of_one(UpdateScheme(SchemeKind.FULL_GD), features, labels, theta, 1.0,
                              np.random.default_rng(0))[1]
        model = eig_decompose(np.zeros((grads.dim, grads.dim)), grads.columns[0].mean(axis=1))
        draw = sample_gaussian(model, np.random.default_rng(5))
        assert np.array_equal(draw, model.mean)

    def test_empty_dataset(self):
        with pytest.raises(EmptyDataset):
            update_of_one(UpdateScheme(SchemeKind.FULL_GD), np.zeros((0, 2)), np.zeros(0),
                          np.zeros(3), 1.0, np.random.default_rng(0))

    def test_norm_bounded_by_clip_times_rate(self):
        rng = np.random.default_rng(8)
        features = rng.standard_normal((20, 3)) * 5
        labels = rng.standard_normal(20) * 5
        theta = np.zeros(4)
        for kind in (SchemeKind.FULL_GD, SchemeKind.IID_SGD):
            scheme = UpdateScheme(kind, batch=4, learning_rate=0.5)
            x, _, _ = update_of_one(scheme, features, labels, theta, 2.0, rng)
            assert np.linalg.norm(0.5 * x) <= 0.5 * 2.0 + 1e-9


def fedavg_oracle_enumeration(features, labels, theta, eta, batch):
    """Exact mean/var of the one-epoch minibatch delta over all orders."""
    n = features.shape[0]
    deltas = []
    for order in itertools.permutations(range(n)):
        current = theta.copy()
        for start in range(0, n, batch):
            idx = list(order[start : start + batch])
            grads = LINEAR.per_example_gradients(current, design(features[idx]), labels[idx])
            current = current - eta * grads.mean(axis=0)
        deltas.append(current - theta)
    deltas = np.array(deltas)
    return deltas.mean(axis=0), deltas.var(axis=0)


def replays_of_one(scheme, features, labels, theta, clip, rng):
    """One user's ``fedavg_replays`` as a stack of one, returned as that user's (dim, M) replays."""
    replays = fedavg_replays(scheme, design(features)[None], labels[None], LINEAR, theta, clip,
                             [rng])
    assert replays.columns.shape[0] == 1
    return GradientMatrix(replays.columns[0], clip)


class TestFedavgDistribution:
    def test_deterministic_local_training_collapses(self):
        rng = np.random.default_rng(10)
        features = rng.standard_normal((5, 2))
        labels = rng.standard_normal(5)
        # batch = dataset size: every replay is full-batch GD, no randomness,
        # so all update samples coincide and the second moment is rank one
        scheme = UpdateScheme(SchemeKind.FEDAVG, batch=5, learning_rate=0.1, fedavg_samples=8)
        replays = replays_of_one(scheme, features, labels, np.zeros(3), 10.0, rng)
        model = estimate_mean_cov(replays, scheme.batch)
        assert rank(model.spectrum()) <= 1
        # residual spread around the mean direction is numerically zero
        centered = model.matrix() - np.outer(model.mean, model.mean) / scheme.batch
        assert np.abs(centered).max() < 1e-16

    def test_two_samples_rank_at_most_two(self):
        rng = np.random.default_rng(11)
        features = rng.standard_normal((8, 3))
        labels = rng.standard_normal(8)
        scheme = UpdateScheme(SchemeKind.FEDAVG, batch=2, learning_rate=0.2, fedavg_samples=2)
        replays = replays_of_one(scheme, features, labels, np.zeros(4), 5.0, rng)
        assert replays.columns.shape == (4, 2)
        model = estimate_mean_cov(replays, scheme.batch)
        assert rank(model.spectrum()) <= 2

    def test_quadratic_loss_mean_matches_enumeration(self):
        rng = np.random.default_rng(12)
        features = rng.standard_normal((4, 2))
        labels = rng.standard_normal(4)
        theta = np.array([0.2, -0.1, 0.05])
        eta, batch, m = 0.4, 2, 200
        exact_mean, exact_var = fedavg_oracle_enumeration(features, labels, theta, eta, batch)
        scheme = UpdateScheme(SchemeKind.FEDAVG, batch=batch, learning_rate=eta, fedavg_samples=m)
        replays = replays_of_one(scheme, features, labels, theta, 100.0, rng)
        model = estimate_mean_cov(replays, scheme.batch)
        se = np.sqrt(exact_var / m)
        assert np.all(np.abs(model.mean - exact_mean) <= 3.0 * se + 1e-12)


class TestWfdpUpdate:
    def test_floor_noop_when_spectrum_covered(self):
        model = eig_decompose(np.diag([0.5, 0.3]))
        out = wfdp_update(model, 0.1, np.random.default_rng(0))
        assert out.noise_trace == 0.0

    def test_pure_additive_case(self):
        mu = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        model = CovarianceModel(mu, np.eye(5), np.zeros(5))
        n = 100_000
        # members sharing one generator draw as n calls in a row would
        out = wfdp_update(repeated(model, n), 0.01, [np.random.default_rng(1)] * n)
        assert out.noise_trace == pytest.approx(0.05)
        draws = out.vector
        assert np.allclose(draws.mean(axis=0), mu, atol=0.002)
        emp_var = draws.var(axis=0)
        assert np.all(np.abs(emp_var - 0.01) < 0.001)

    def test_accepts_gradients_and_estimates(self):
        rng = np.random.default_rng(2)
        cols = rng.standard_normal((3, 6))
        cols /= np.maximum(np.linalg.norm(cols, axis=0), 1.0)
        grads = GradientMatrix(cols, 1.0)
        model = estimate_mean_cov(grads, 2)
        out = wfdp_update(model, 0.05, rng)
        expected_trace = np.maximum(0.05 - model.eigvals, 0.0).sum()
        assert out.noise_trace == pytest.approx(expected_trace)

    def test_blockwise_matches_unblocked_for_block_diagonal_truth(self):
        # columns supported on disjoint blocks give an exactly block-diagonal
        # second moment, so flooring each block's rows on their own describes
        # the same Gaussian as flooring the whole
        rng = np.random.default_rng(3)
        cols = np.zeros((4, 12))
        cols[:2, :6] = rng.standard_normal((2, 6))
        cols[2:, 6:] = rng.standard_normal((2, 6))
        cols /= np.maximum(np.linalg.norm(cols, axis=0), 1.0)
        grads = GradientMatrix(cols, 1.0)

        n = 100_000
        rng_a, rng_b = np.random.default_rng(4), np.random.default_rng(5)
        model = estimate_mean_cov(grads, 1)
        xa = wfdp_update(repeated(model, n), 0.02, [rng_a] * n).vector
        xb = np.concatenate([
            wfdp_update(repeated(estimate_mean_cov(GradientMatrix(cols[rows], 1.0), 1), n), 0.02,
                        [rng_b] * n).vector
            for rows in (slice(0, 2), slice(2, 4))
        ], axis=1)
        assert np.abs(xa.mean(axis=0) - xb.mean(axis=0)).max() < 0.01
        ca = np.cov(xa.T)
        cb = np.cov(xb.T)
        assert np.abs(ca - cb).max() < 0.01


def repeated(model, n):
    """A stack of n copies of one model."""
    return CovarianceModel(
        np.broadcast_to(model.mean, (n, model.dim)),
        np.broadcast_to(model.eigvecs, (n,) + model.eigvecs.shape),
        np.broadcast_to(model.eigvals, (n, model.n_components)),
        model.tail,
    )


class TestStackedMechanisms:
    """A stack's draws equal the per-call loop's over the same generators."""

    def models(self, dim=5):
        rng = np.random.default_rng(50)
        grads = [GradientMatrix(rng.standard_normal((dim, 3)) * 0.2, 1.0) for _ in range(4)]
        models = [estimate_mean_cov(g, 2) for g in grads]
        stacked = estimate_mean_cov(GradientMatrix(np.stack([g.columns for g in grads]), 1.0), 2)
        assert stacked.mean.shape[0] == 4
        return models, stacked

    @pytest.mark.parametrize("dim", [5, 8])
    @pytest.mark.parametrize("mechanism", [wfdp_update, wfna_noise])
    def test_flooring_mechanisms_match_per_member_calls(self, dim, mechanism):
        models, stack = self.models(dim)
        looped = [mechanism(m, 0.05, np.random.default_rng(i)) for i, m in enumerate(models)]
        out = mechanism(stack, 0.05, [np.random.default_rng(i) for i in range(4)])
        assert np.array_equal(out.vector, np.array([u.vector for u in looped]))
        assert np.array_equal(out.noise_trace, [u.noise_trace for u in looped])
        for i, u in enumerate(looped):
            assert np.array_equal(out.floored.eigvals[i], u.floored.eigvals)
            assert np.array_equal(out.floored.eigvecs[i], u.floored.eigvecs)
            assert np.array_equal(out.floored.tail[i], u.floored.tail)

    def test_ddp_shares_match_per_member_calls(self):
        looped = [ddp_noise(0.2, 4, 3, np.random.default_rng(i)) for i in range(4)]
        out = ddp_noise(0.2, 4, 3, [np.random.default_rng(i) for i in range(4)])
        assert np.array_equal(out.vector, np.array([u.vector for u in looped]))
        assert np.array_equal(out.noise_trace, [u.noise_trace for u in looped])

    def test_shared_generator_draws_in_loop_order(self):
        models, stack = self.models()
        rng_loop, rng_stack = np.random.default_rng(3), np.random.default_rng(3)
        looped = [sample_gaussian(m, rng_loop) for m in models]
        assert np.array_equal(sample_gaussian(stack, [rng_stack] * 4), np.array(looped))
        assert rng_loop.bit_generator.state == rng_stack.bit_generator.state


class TestWfdpFromSpectra:
    """Members the floor covers are floored to sigma^2 I; the others are estimated and floored."""

    BATCH = 2

    def stack(self, dim, count):
        # members 1, 2 and 4 have small gradients; the floor sits between the two groups
        rng = np.random.default_rng(60)
        cols = rng.standard_normal((5, dim, count))
        cols /= np.linalg.norm(cols, axis=1, keepdims=True)
        cols *= np.array([1.0, 0.1, 0.15, 0.9, 0.12])[:, None, None]
        grads = GradientMatrix(cols, 1.0)
        top = floor_coverage(grads, self.BATCH, 0.0, spectra=True)[1][:, 0]
        floor = 0.5 * (max(top[[1, 2, 4]]) + min(top[[0, 3]]))
        return grads, floor

    @pytest.mark.parametrize("dim,count", [(6, 10), (30, 6)], ids=["dense", "thin"])
    @pytest.mark.parametrize("skipped", [True, False])
    def test_mixed_stack_matches_per_member_calls(self, dim, count, skipped):
        # with ``skipped`` the caller has advanced each stream past the
        # Gaussian-sampled draw WFDP replaces; the floored draws start there
        grads, floor = self.stack(dim, count)
        rngs = [np.random.default_rng(i) for i in range(5)]
        for rng in rngs if skipped else ():
            rng.standard_normal(estimate_width(dim, count))
        spectra, runs = wfdp_from_spectra(grads, self.BATCH, floor, rngs)
        assert [run.vector.shape[0] for run in runs] == [1, 2, 1, 1]
        members = [(run, j) for run in runs for j in range(run.vector.shape[0])]
        for i, cols in enumerate(grads.columns):
            run, j = members[i]
            rng = np.random.default_rng(i)
            one = GradientMatrix(cols, 1.0)
            if i in (0, 3):
                model = estimate_mean_cov(one, self.BATCH)
                if skipped:
                    rng.standard_normal(model.n_components)  # the Gaussian-sampled draw
                expected = wfdp_update(model, floor, rng)
                assert np.array_equal(spectra[i], model.spectrum())
                assert np.array_equal(run.floored.eigvecs[j], expected.floored.eigvecs)
                assert np.array_equal(run.floored.eigvals[j], expected.floored.eigvals)
            else:
                covered, spectrum = floor_coverage(one, self.BATCH, floor, spectra=True)
                assert covered and np.array_equal(spectra[i], spectrum)
                width = estimate_width(dim, count)
                assert width == (dim if 2 * count > dim else count)
                if skipped:
                    rng.standard_normal(width)
                # sigma^2 I: no eigenpairs, tail sigma^2, the mean plus sigma times d normals
                model = CovarianceModel(cols.mean(axis=1), np.zeros((dim, 0)), np.zeros(0), floor)
                lift = dim * floor - np.sum(np.sum(cols ** 2, axis=0)) / (self.BATCH * count)
                expected = NoisedUpdate(sample_gaussian(model, rng), lift, model)
                assert run.floored.n_components == 0 and run.floored.tail[j] == floor
                # every eigenvalue is lifted: d sigma^2 minus the second moment's trace
                trace = np.trace(cols @ cols.T) / (self.BATCH * count)
                assert run.noise_trace[j] == pytest.approx(dim * floor - trace, rel=1e-12)
            assert np.array_equal(run.vector[j], expected.vector)
            assert run.noise_trace[j] == expected.noise_trace

    def test_uncovered_stack_equals_estimate_and_wfdp_update(self):
        grads, floor = self.stack(6, 10)
        rngs = [np.random.default_rng(i) for i in range(5)]
        spectra, (run,) = wfdp_from_spectra(grads, self.BATCH, 0.0, rngs)
        model = estimate_mean_cov(grads, self.BATCH)
        expected = wfdp_update(model, 0.0, [np.random.default_rng(i) for i in range(5)])
        assert np.array_equal(spectra, model.spectrum())
        assert np.array_equal(run.vector, expected.vector)
        assert np.array_equal(run.floored.eigvecs, expected.floored.eigvecs)


    def test_infinite_batch_is_covered_without_a_decomposition(self, monkeypatch):
        # a deterministic update (FULL_GD) has the zero spectrum: sigma^2 I, from d normals each
        grads, _ = self.stack(6, 10)
        monkeypatch.setattr(np.linalg, "eigvalsh", None)
        spectra, (run,) = wfdp_from_spectra(
            grads, np.inf, 0.3, [np.random.default_rng(i) for i in range(5)]
        )
        assert np.array_equal(spectra, np.zeros((5, 6)))
        assert run.floored.n_components == 0 and np.array_equal(run.floored.tail, [0.3] * 5)
        assert np.array_equal(run.noise_trace, [6 * 0.3] * 5)  # every eigenvalue lifted
        for i, cols in enumerate(grads.columns):
            normals = np.random.default_rng(i).standard_normal(6)
            assert np.array_equal(run.vector[i], cols.mean(axis=1) + np.sqrt(0.3) * normals)


class TestFloorCertificate:
    """A stack the Cholesky certificate covers reads no eigenvalue; it covers only what they would."""

    BATCH = 2

    def gradients(self, dim, count, members=4, seed=61):
        rng = np.random.default_rng(seed)
        cols = rng.standard_normal((members, dim, count))
        cols /= np.linalg.norm(cols, axis=1, keepdims=True)
        return cols * rng.uniform(0.2, 1.0, size=(members, 1, 1))

    @staticmethod
    def refuse(monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("an eigenvalue was computed")

        monkeypatch.setattr(np.linalg, "eigvalsh", refused)
        monkeypatch.setattr(np.linalg, "eigh", refused)

    @pytest.mark.parametrize("skipped", [True, False])
    def test_covered_stack_reads_no_eigenvalue(self, monkeypatch, skipped):
        dim, count, floor = 12, 10, 0.2  # every largest eigenvalue is below 0.1
        cols = self.gradients(dim, count)
        self.refuse(monkeypatch)
        rngs = [np.random.default_rng(i) for i in range(4)]
        for rng in rngs if skipped else ():
            rng.standard_normal(dim)
        spectra, (run,) = wfdp_from_spectra(
            GradientMatrix(cols, 1.0), self.BATCH, floor, rngs, spectra=False,
        )
        assert spectra is None
        assert run.floored.n_components == 0 and np.array_equal(run.floored.tail, [floor] * 4)
        for i, member in enumerate(cols):
            lift = dim * floor - np.sum(np.sum(member ** 2, axis=0)) / (self.BATCH * count)
            assert run.noise_trace[i] == lift
            rng = np.random.default_rng(i)
            if skipped:
                rng.standard_normal(dim)  # the dense estimate keeps every coordinate
            expected = member.mean(axis=1) + np.sqrt(floor) * rng.standard_normal(dim)
            assert np.array_equal(run.vector[i], expected)

    def coverage(self, monkeypatch, grads, floor):
        """``floor_coverage``'s flags, and whether its certificate cleared the stack unread."""
        calls = []
        original = np.linalg.eigvalsh

        def counting(a, *args, **kwargs):
            calls.append(np.shape(a))
            return original(a, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "eigvalsh", counting)
            covered, spectra = floor_coverage(grads, self.BATCH, floor)
        assert spectra is None
        return covered, not calls

    @pytest.mark.parametrize("dim,count", [(12, 10), (30, 6)], ids=["dense", "thin"])
    def test_certificate_covers_only_what_the_spectra_cover(self, monkeypatch, dim, count):
        # each member's largest eigenvalue sits a hair or a little above or below the floor
        floor = 0.01
        cols = self.gradients(dim, count, members=5)
        top = floor_coverage(GradientMatrix(cols, 1.0), self.BATCH, floor, spectra=True)[1][:, 0]
        targets = floor * (1.0 + np.array([-1e-6, -1e-12, 0.0, 1e-12, 1e-6]))
        cols *= np.sqrt(targets / top)[:, None, None]
        grads = GradientMatrix(cols, 1.0)
        rule_covered, spectra = floor_coverage(grads, self.BATCH, floor, spectra=True)
        rule = spectra[:, 0] <= floor
        assert rule[0] and not rule[-1] and rule_covered.tolist() == rule.tolist()
        members = [self.coverage(monkeypatch, GradientMatrix(member, 1.0), floor)
                   for member in cols]
        # eta = 4 w^2 eps is at most about 1.3e-13, so a member 1e-12 below the floor is certified
        assert [cleared for _, cleared in members] == [True, True, False, False, False]
        assert [bool(covered) for covered, _ in members] == rule.tolist()
        # whichever path decides, a stack covers the members the spectra cover
        rngs = [np.random.default_rng(i) for i in range(5)]
        _, runs = wfdp_from_spectra(grads, self.BATCH, floor, rngs, spectra=False)
        covered = [run.floored.n_components == 0 for run in runs for _ in run.vector]
        assert covered == rule.tolist()
        for i, member in enumerate(cols):
            _, (one,) = wfdp_from_spectra(GradientMatrix(member[None], 1.0), self.BATCH, floor,
                                          [np.random.default_rng(i)], spectra=False)
            assert (one.floored.n_components == 0) == rule[i]

    @pytest.mark.parametrize("dim,count", [(12, 10), (30, 6)], ids=["dense", "thin"])
    def test_one_matrix_and_one_eigvalsh(self, monkeypatch, dim, count):
        # one member above the floor: the certificate fails on the matrix it
        # formed, and the eigenvalues are read from that same buffer
        cols = self.gradients(dim, count)
        cols[2] *= 10.0
        moments, eigvalsh = [], []
        moment, original = spectra_module._second_moment, np.linalg.eigvalsh

        def forming(part, batch):
            moments.append(part.shape)
            return moment(part, batch)

        def reading(a, *args, **kwargs):
            eigvalsh.append(np.shape(a))
            return original(a, *args, **kwargs)

        monkeypatch.setattr(spectra_module, "_second_moment", forming)
        monkeypatch.setattr(np.linalg, "eigvalsh", reading)
        _, runs = wfdp_from_spectra(GradientMatrix(cols, 10.0), self.BATCH, 0.2,
                                    [np.random.default_rng(i) for i in range(4)], spectra=False)
        assert [run.floored.n_components == 0 for run in runs] == [True, False, True]
        # the stack's matrix; the estimate of the member above the floor forms its own
        assert [shape for shape in moments if shape[0] == 4] == [(4, dim, count)]
        # a thin stack's matrix is its count x count Gram matrix
        assert eigvalsh == [(4, count, count) if 2 * count <= dim else (4, dim, dim)]

    def test_zero_batch_raises_on_a_thin_stack(self):
        with pytest.raises(ValueError, match="batch must be >= 1"):
            floor_coverage(GradientMatrix(self.gradients(30, 6), 1.0), 0, 0.2)

    @pytest.mark.parametrize("floor", [float("nan"), float("inf"), -1e-3])
    def test_nan_or_out_of_range_floor_raises_on_a_dense_stack(self, floor):
        # a Cholesky factorization does not fail on NaN, so the check runs first
        with pytest.raises(ValueError, match="floor must be finite and >= 0"):
            floor_coverage(GradientMatrix(self.gradients(12, 10), 1.0), 2, floor)

    def test_certificate_refuses_a_stack_it_cannot_clear(self, monkeypatch):
        cols = self.gradients(12, 10)
        grads = GradientMatrix(cols, 1.0)
        covered, cleared = self.coverage(monkeypatch, grads, 0.2)
        assert covered.all() and cleared
        # one member above the floor fails the whole stack
        loud = cols.copy()
        loud[2] *= 10.0
        covered, cleared = self.coverage(monkeypatch, GradientMatrix(loud, 10.0), 0.2)
        assert covered.tolist() == [True, True, False, True] and not cleared
        # a thin block is cleared on its Gram matrix; zero gradients fail the PSD check
        covered, cleared = self.coverage(monkeypatch, GradientMatrix(self.gradients(30, 6), 1.0), 0.2)
        assert covered.all() and cleared
        covered, cleared = self.coverage(monkeypatch, GradientMatrix(np.zeros((2, 6, 10)), 1.0), 0.2)
        assert covered.all() and not cleared
        # a second moment that is not exactly symmetric is left to the eigenvalue path
        moment = spectra_module._second_moment
        skew = np.triu(np.full((12, 12), 1e-15), 1)
        monkeypatch.setattr(spectra_module, "_second_moment",
                            lambda cols, batch: moment(cols, batch) + skew)
        covered, cleared = self.coverage(monkeypatch, grads, 0.2)
        assert covered.all() and not cleared
        # nor is one below _psd_eigh's clamp, although the floor covers it
        dent = np.diag([-1e-6] + [0.0] * 11)
        monkeypatch.setattr(spectra_module, "_second_moment",
                            lambda cols, batch: moment(cols, batch) + dent)
        with pytest.raises(NotPositiveSemidefinite):
            floor_coverage(grads, self.BATCH, 0.2)
        with pytest.raises(NotPositiveSemidefinite):
            wfdp_from_spectra(grads, self.BATCH, 0.2, [np.random.default_rng(i) for i in range(4)],
                              spectra=False)

    def test_covered_thin_stack_reads_no_eigenvalue(self, monkeypatch):
        # the certificate reads the Gram matrices: no eigenvalue, no QR
        self.refuse(monkeypatch)
        monkeypatch.setattr(np.linalg, "qr", None)
        cols = self.gradients(30, 6)
        _, (run,) = wfdp_from_spectra(GradientMatrix(cols, 1.0), self.BATCH, 0.2,
                                      [np.random.default_rng(i) for i in range(4)], spectra=False)
        assert run.floored.n_components == 0 and np.array_equal(run.floored.tail, [0.2] * 4)
        for i, member in enumerate(cols):
            rng = np.random.default_rng(i)
            expected = member.mean(axis=1) + np.sqrt(0.2) * rng.standard_normal(30)
            assert np.array_equal(run.vector[i], expected)


class TestWfnaNoise:
    def test_zero_lift_gives_zero_vector(self):
        model = eig_decompose(np.diag([0.5, 0.3]))
        out = wfna_noise(model, 0.1, np.random.default_rng(0))
        assert np.array_equal(out.vector, np.zeros(2))
        assert out.noise_trace == 0.0

    def test_per_coordinate_variances(self):
        model = eig_decompose(np.diag([0.5, 0.02, 0.0]))
        rng = np.random.default_rng(6)
        # one stacked call: every member draws from rng, one after the other
        draws = wfna_noise(repeated(model, 100_000), 0.04, [rng] * 100_000).vector
        target = np.array([0.0, 0.02, 0.04])
        emp = draws.var(axis=0)
        assert np.all(np.abs(emp - target) <= 0.05 * np.maximum(target, 0.004))

    def test_moments_match_replacement_variant(self):
        rng = np.random.default_rng(7)
        base = rng.standard_normal((3, 3)) * 0.1
        model = eig_decompose(base @ base.T)
        model = CovarianceModel(np.array([1.0, -1.0, 0.5]), model.eigvecs, model.eigvals)
        floor = 0.05
        n = 200_000
        rng_a, rng_b = np.random.default_rng(8), np.random.default_rng(9)
        stack = repeated(model, n)
        # additive route: raw Gaussian update + lift noise
        raw = sample_gaussian(stack, [rng_a] * n)
        lift = wfna_noise(stack, floor, [rng_a] * n).vector
        additive = raw + lift
        replaced = wfdp_update(stack, floor, [rng_b] * n).vector
        assert np.abs(additive.mean(axis=0) - replaced.mean(axis=0)).max() < 0.01
        assert np.abs(np.cov(additive.T) - np.cov(replaced.T)).max() < 0.01


class TestDdpNoise:
    def test_single_user_variance(self):
        rng = np.random.default_rng(20)
        draws = np.array([ddp_noise(0.25, 1, 3, rng).vector for _ in range(100_000)])
        assert np.all(np.abs(draws.var(axis=0) - 0.25) < 0.01)

    def test_shares_sum_to_target_variance(self):
        rng = np.random.default_rng(21)
        n_users, trials = 50, 100_000
        sums = np.zeros((trials, 2))
        for _ in range(n_users):
            sums += ddp_noise(0.09, n_users, 2, [rng] * trials).vector
        assert np.all(np.abs(sums.var(axis=0) - 0.09) < 0.05 * 0.09)

    def test_zero_floor(self):
        out = ddp_noise(0.0, 5, 4, np.random.default_rng(0))
        assert np.array_equal(out.vector, np.zeros(4))
        assert out.noise_trace == 0.0

    def test_trace_accounting(self):
        out = ddp_noise(0.2, 4, 10, np.random.default_rng(0))
        assert out.noise_trace == pytest.approx(10 * 0.2 / 4)


class TestNoiseEconomy:
    def test_flooring_never_exceeds_isotropic_budget(self):
        rng = np.random.default_rng(30)
        for _ in range(100):
            d = int(rng.integers(2, 16))
            eigvals = rng.random(d) * 0.2
            model = CovarianceModel(np.zeros(d), np.eye(d), np.sort(eigvals)[::-1])
            sigma2 = float(rng.random() * 0.2 + 1e-3)
            out = wfdp_update(model, sigma2, rng)
            assert out.noise_trace <= d * sigma2 + 1e-12
            if np.any(eigvals > 0):
                assert out.noise_trace < d * sigma2

    def test_equality_only_for_zero_spectrum(self):
        model = CovarianceModel(np.zeros(6), np.eye(6), np.zeros(6))
        out = wfdp_update(model, 0.03, np.random.default_rng(0))
        assert out.noise_trace == pytest.approx(6 * 0.03)


class TestSensitivityBounds:
    def test_mean_shift_and_scaled_sensitivity(self):
        rng = np.random.default_rng(40)
        for _ in range(50):
            d = int(rng.integers(2, 5))
            count = int(rng.integers(d + 1, 9))
            batch = int(rng.integers(1, min(count, 4) + 1))
            clip = float(0.5 + rng.random())
            cols = rng.standard_normal((d, count))
            cols *= clip * rng.random(count) / np.linalg.norm(cols, axis=0)
            grads = GradientMatrix(cols, clip)
            replacement = rng.standard_normal(d)
            replacement *= clip * rng.random() / np.linalg.norm(replacement)
            swapped = cols.copy()
            swapped[:, 0] = replacement
            grads2 = GradientMatrix(swapped, clip)

            m1 = estimate_mean_cov(grads, batch)
            m2 = estimate_mean_cov(grads2, batch)
            shift = np.linalg.norm(m1.mean - m2.mean)
            assert shift <= 2 * clip / count + 1e-12

            # whitened sensitivity against any aggregate with lambda_min >= lam
            lam = 0.3
            whitened = shift / np.sqrt(lam)
            assert whitened * np.sqrt(lam) <= 2 * clip / batch + 1e-12


class TestNoisedUpdate:
    def test_rejects_negative_trace(self):
        with pytest.raises(ValueError):
            NoisedUpdate(np.zeros(2), -1.0)

    def test_scheme_validation(self):
        with pytest.raises(ValueError):
            UpdateScheme(SchemeKind.FEDAVG, fedavg_samples=1)
        with pytest.raises(ValueError):
            UpdateScheme(SchemeKind.FULL_GD, batch=0)
