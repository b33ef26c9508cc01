"""Update schemes and noising mechanisms against enumeration and MC oracles."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aggnoise.errors import EmptyDataset, NonFinite
from aggnoise.fedsim.models import ModelFamily, ModelOps
from aggnoise.mechanisms import (
    NoisedUpdate,
    SchemeKind,
    UpdateScheme,
    clip_gradient,
    compute_update,
    ddp_noise,
    estimate_fedavg_distribution,
    wfdp_update,
    wfna_noise,
)
from aggnoise.spectra import (
    BlockSpec,
    CovarianceModel,
    GradientMatrix,
    eig_decompose,
    estimate_mean_cov,
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


class TestComputeUpdate:
    def test_full_gd_identical_examples(self):
        features, labels = one_point_dataset()
        scheme = UpdateScheme(SchemeKind.FULL_GD, learning_rate=0.3)
        theta = np.ones(4)
        x, grads, _ = compute_update(scheme, features, labels, LINEAR, theta, 1.0, np.random.default_rng(0))
        g = LINEAR.per_example_gradients(theta, features[:1], labels[:1])[0]
        expected = -0.3 * clip_gradient(g, 1.0)
        assert np.allclose(x, expected)
        assert grads.count == 6

    def test_iid_sgd_collapses_to_full_gd_on_repeated_example(self):
        features, labels = one_point_dataset()
        theta = np.ones(4)
        full = compute_update(
            UpdateScheme(SchemeKind.FULL_GD, learning_rate=0.3),
            features, labels, LINEAR, theta, 1.0, np.random.default_rng(1),
        )[0]
        sgd = compute_update(
            UpdateScheme(SchemeKind.IID_SGD, batch=6, learning_rate=0.3),
            features, labels, LINEAR, theta, 1.0, np.random.default_rng(2),
        )[0]
        assert np.allclose(full, sgd)

    def test_gaussian_sampled_stays_on_gradient_line(self):
        # identical gradients: the uncentered second moment is rank one, so
        # the sampled update varies only along the shared gradient direction
        features, labels = one_point_dataset()
        theta = np.ones(4)
        scheme = UpdateScheme(SchemeKind.GAUSSIAN_SAMPLED, batch=2, learning_rate=1.0)
        g = clip_gradient(LINEAR.per_example_gradients(theta, features[:1], labels[:1])[0], 1.0)
        direction = g / np.linalg.norm(g)
        rng = np.random.default_rng(3)
        for _ in range(10):
            x, _, _ = compute_update(scheme, features, labels, LINEAR, theta, 1.0, rng)
            residual = x - direction * (direction @ x)
            # off-line contamination is bounded by the eigensolver's noise floor
            assert np.linalg.norm(residual) < 1e-6 * max(np.linalg.norm(x), 1.0)

    def test_gaussian_sampled_centered_estimator_is_deterministic(self):
        # the centered covariance of identical gradients is zero, so sampling
        # from it returns the mean update exactly
        features, labels = one_point_dataset()
        theta = np.ones(4)
        grads = compute_update(
            UpdateScheme(SchemeKind.FULL_GD), features, labels, LINEAR, theta, 1.0,
            np.random.default_rng(0),
        )[1]
        model = estimate_mean_cov(grads, batch=2, centered=True)
        draw = sample_gaussian(model, np.random.default_rng(5))
        assert np.allclose(draw, model.mean, atol=1e-12)

    def test_empty_dataset(self):
        with pytest.raises(EmptyDataset):
            compute_update(
                UpdateScheme(SchemeKind.FULL_GD), np.zeros((0, 2)), np.zeros(0),
                LINEAR, np.zeros(3), 1.0, np.random.default_rng(0),
            )

    def test_norm_bounded_by_clip_times_rate(self):
        rng = np.random.default_rng(8)
        features = rng.standard_normal((20, 3)) * 5
        labels = rng.standard_normal(20) * 5
        theta = np.zeros(4)
        for kind in (SchemeKind.FULL_GD, SchemeKind.IID_SGD):
            scheme = UpdateScheme(kind, batch=4, learning_rate=0.5)
            x, _, _ = compute_update(scheme, features, labels, LINEAR, theta, 2.0, rng)
            assert np.linalg.norm(x) <= 0.5 * 2.0 + 1e-9


def fedavg_oracle_enumeration(features, labels, theta, eta, batch):
    """Exact mean/var of the one-epoch minibatch delta over all orders."""
    n = features.shape[0]
    deltas = []
    for order in itertools.permutations(range(n)):
        current = theta.copy()
        for start in range(0, n, batch):
            idx = list(order[start : start + batch])
            grads = LINEAR.per_example_gradients(current, features[idx], labels[idx])
            current = current - eta * grads.mean(axis=0)
        deltas.append(current - theta)
    deltas = np.array(deltas)
    return deltas.mean(axis=0), deltas.var(axis=0)


class TestFedavgDistribution:
    def test_deterministic_local_training_collapses(self):
        rng = np.random.default_rng(10)
        features = rng.standard_normal((5, 2))
        labels = rng.standard_normal(5)
        # batch = dataset size: every replay is full-batch GD, no randomness,
        # so all update samples coincide and the second moment is rank one
        scheme = UpdateScheme(SchemeKind.FEDAVG, batch=5, learning_rate=0.1, fedavg_samples=8)
        model = estimate_fedavg_distribution(
            scheme, features, labels, LINEAR, np.zeros(3), 10.0, rng
        )
        assert model.rank() <= 1
        # residual spread around the mean direction is numerically zero
        centered = model.matrix() - np.outer(model.mean, model.mean) / scheme.batch
        assert np.abs(centered).max() < 1e-16

    def test_two_samples_rank_at_most_two(self):
        rng = np.random.default_rng(11)
        features = rng.standard_normal((8, 3))
        labels = rng.standard_normal(8)
        scheme = UpdateScheme(SchemeKind.FEDAVG, batch=2, learning_rate=0.2, fedavg_samples=2)
        model = estimate_fedavg_distribution(
            scheme, features, labels, LINEAR, np.zeros(4), 5.0, rng
        )
        assert model.rank() <= 2

    def test_quadratic_loss_mean_matches_enumeration(self):
        rng = np.random.default_rng(12)
        features = rng.standard_normal((4, 2))
        labels = rng.standard_normal(4)
        theta = np.array([0.2, -0.1, 0.05])
        eta, batch, m = 0.4, 2, 200
        exact_mean, exact_var = fedavg_oracle_enumeration(features, labels, theta, eta, batch)
        scheme = UpdateScheme(SchemeKind.FEDAVG, batch=batch, learning_rate=eta, fedavg_samples=m)
        model = estimate_fedavg_distribution(
            scheme, features, labels, LINEAR, theta, 100.0, rng
        )
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
        draws = []
        rng = np.random.default_rng(1)
        for _ in range(100_000):
            out = wfdp_update(model, 0.01, rng)
            draws.append(out.vector)
        assert out.noise_trace == pytest.approx(0.05)
        draws = np.array(draws)
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
        # second moment, so both estimates describe the same Gaussian
        rng = np.random.default_rng(3)
        cols = np.zeros((4, 12))
        cols[:2, :6] = rng.standard_normal((2, 6))
        cols[2:, 6:] = rng.standard_normal((2, 6))
        cols /= np.maximum(np.linalg.norm(cols, axis=0), 1.0)
        grads = GradientMatrix(cols, 1.0)
        blocks = BlockSpec.equal_parts(4, 2)

        n = 100_000
        rng_a, rng_b = np.random.default_rng(4), np.random.default_rng(5)
        model = estimate_mean_cov(grads, 1)
        xa = np.array([wfdp_update(model, 0.02, rng_a).vector for _ in range(n)])
        model_blocked = estimate_mean_cov(grads, 1, blocks=blocks)
        xb = np.array([wfdp_update(model_blocked, 0.02, rng_b).vector for _ in range(n)])
        assert np.abs(xa.mean(axis=0) - xb.mean(axis=0)).max() < 0.01
        ca = np.cov(xa.T)
        cb = np.cov(xb.T)
        assert np.abs(ca - cb).max() < 0.01


class TestWfnaNoise:
    def test_zero_lift_gives_zero_vector(self):
        model = eig_decompose(np.diag([0.5, 0.3]))
        out = wfna_noise(model, 0.1, np.random.default_rng(0))
        assert np.array_equal(out.vector, np.zeros(2))
        assert out.noise_trace == 0.0

    def test_per_coordinate_variances(self):
        model = eig_decompose(np.diag([0.5, 0.02, 0.0]))
        rng = np.random.default_rng(6)
        draws = np.array([wfna_noise(model, 0.04, rng).vector for _ in range(100_000)])
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
        # additive route: raw Gaussian update + lift noise
        raw = np.array([sample_gaussian(model, rng_a) for _ in range(n)])
        lift = np.array([wfna_noise(model, floor, rng_a).vector for _ in range(n)])
        additive = raw + lift
        replaced = np.array([wfdp_update(model, floor, rng_b).vector for _ in range(n)])
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
            sums += np.array([ddp_noise(0.09, n_users, 2, rng).vector for _ in range(trials)])
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
