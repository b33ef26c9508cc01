"""Covariance spectrum operations against independent linear-algebra oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aggnoise.errors import (
    BlockMismatch,
    DimensionMismatch,
    EmptyGradients,
    IndefiniteSigmaAlpha,
    NonSymmetric,
    NotPositiveSemidefinite,
    PartialSpectrum,
    SingularCovariance,
)
from aggnoise.spectra import (
    BlockSpec,
    CovarianceModel,
    GradientMatrix,
    eig_decompose,
    estimate_mean_cov,
    floor_eigenvalues,
    renyi_gaussian,
    sample_gaussian,
    span_contains,
    sum_covariances,
)


def random_gradients(rng, dim, count, clip):
    cols = rng.standard_normal((dim, count))
    norms = np.linalg.norm(cols, axis=0)
    cols = cols * (clip * rng.random(count) / norms)
    return GradientMatrix(cols, clip)


def full_rank_model(rng, dim, jitter=0.3):
    a = rng.standard_normal((dim, dim))
    base = eig_decompose(a @ a.T + jitter * np.eye(dim))
    return CovarianceModel(rng.standard_normal(dim), base.eigvecs, base.eigvals)


class TestEigDecompose:
    def test_identity(self):
        model = eig_decompose(np.eye(3))
        assert np.allclose(model.eigvals, 1.0)
        assert np.allclose(model.eigvecs @ model.eigvecs.T, np.eye(3))

    def test_diagonal(self):
        model = eig_decompose(np.diag([0.5, 0.02, 0.0]))
        assert np.allclose(model.eigvals, [0.5, 0.02, 0.0])
        # eigenvectors are a signed permutation of the axes
        assert np.allclose(np.abs(model.eigvecs).max(axis=0), 1.0)

    def test_reconstruction_oracle(self):
        rng = np.random.default_rng(42)
        a = rng.standard_normal((4, 4))
        mat = a @ a.T
        model = eig_decompose(mat)
        err = np.linalg.norm(model.matrix() - mat) / np.linalg.norm(mat)
        assert err < 1e-7

    def test_rejects_asymmetric(self):
        with pytest.raises(NonSymmetric):
            eig_decompose(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_nan(self):
        from aggnoise.errors import NonFinite

        with pytest.raises(NonFinite):
            eig_decompose(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_clamps_tiny_negatives_but_rejects_indefinite(self):
        mat = np.diag([1.0, -1e-12])
        model = eig_decompose(mat)
        assert model.eigvals[-1] == 0.0
        with pytest.raises(NotPositiveSemidefinite):
            eig_decompose(np.diag([1.0, -1e-3]))


    def test_keeps_given_mean(self):
        mean = np.array([1.0, -2.0, 0.5])
        model = eig_decompose(np.diag([0.5, 0.02, 0.0]), mean)
        assert np.array_equal(model.mean, mean)
        assert np.array_equal(eig_decompose(np.eye(3)).mean, np.zeros(3))

    def test_rejects_mean_of_wrong_length(self):
        with pytest.raises(DimensionMismatch):
            eig_decompose(np.eye(3), np.zeros(2))


class TestModelConstructions:
    """Each producer builds its model once: one CovarianceModel.__post_init__."""

    @pytest.fixture
    def count_models(self, monkeypatch):
        calls = []
        original = CovarianceModel.__post_init__

        def counted(self):
            calls.append(1)
            original(self)

        monkeypatch.setattr(CovarianceModel, "__post_init__", counted)
        return calls

    def test_estimate_mean_cov_builds_one_model(self, count_models):
        g = random_gradients(np.random.default_rng(11), dim=4, count=6, clip=1.0)
        estimate_mean_cov(g, batch=2)
        assert len(count_models) == 1

    def test_sum_covariances_builds_one_model(self, count_models):
        rng = np.random.default_rng(12)
        models = [full_rank_model(rng, 3) for _ in range(3)]
        count_models.clear()
        summed = sum_covariances(models, isotropic_extra=0.1)
        assert len(count_models) == 1
        assert np.allclose(summed.mean, sum(m.mean for m in models))


class TestGradientMatrix:
    def test_rejects_clip_violation(self):
        with pytest.raises(ValueError):
            GradientMatrix(np.array([[3.0], [4.0]]), clip_bound=1.0)

    def test_rejects_empty(self):
        with pytest.raises(EmptyGradients):
            GradientMatrix(np.zeros((3, 0)), clip_bound=1.0)

    def test_shape_accessors(self):
        g = GradientMatrix(np.zeros((5, 7)), clip_bound=1.0)
        assert g.dim == 5 and g.count == 7


class TestEstimateMeanCov:
    def test_two_axis_vectors(self):
        g = GradientMatrix(np.array([[1.0, 0.0], [0.0, 1.0]]), 1.0)
        model = estimate_mean_cov(g, batch=1)
        assert np.allclose(model.mean, [0.5, 0.5])
        assert np.allclose(model.matrix(), 0.5 * np.eye(2))

    def test_repeated_single_direction(self):
        vec = np.array([0.6, 0.8])
        g = GradientMatrix(np.tile(vec[:, None], (1, 9)), 1.0)
        model = estimate_mean_cov(g, batch=1)
        assert np.allclose(model.mean, vec)
        assert np.allclose(model.matrix(), np.outer(vec, vec))
        assert model.rank() == 1

    def test_batch_scaling(self):
        vec = np.array([0.6, 0.8])
        g = GradientMatrix(np.tile(vec[:, None], (1, 4)), 1.0)
        model = estimate_mean_cov(g, batch=5)
        assert np.allclose(model.matrix(), np.outer(vec, vec) / 5)

    def test_blockwise_matches_unblocked_subblocks(self):
        rng = np.random.default_rng(7)
        g = random_gradients(rng, dim=6, count=10, clip=2.0)
        full = estimate_mean_cov(g, batch=3)
        blocked = estimate_mean_cov(g, batch=3, blocks=BlockSpec.equal_parts(6, 2))
        fm, bm = full.matrix(), blocked.matrix()
        assert np.allclose(bm[:3, :3], fm[:3, :3])
        assert np.allclose(bm[3:, 3:], fm[3:, 3:])
        assert np.allclose(bm[:3, 3:], 0.0)
        assert np.allclose(blocked.mean, full.mean)

    def test_centered_flag(self):
        rng = np.random.default_rng(3)
        g = random_gradients(rng, dim=3, count=8, clip=1.0)
        un = estimate_mean_cov(g, batch=1)
        ce = estimate_mean_cov(g, batch=1, centered=True)
        mu = g.columns.mean(axis=1)
        assert np.allclose(un.matrix() - ce.matrix(), np.outer(mu, mu), atol=1e-12)

    def test_block_mismatch(self):
        g = GradientMatrix(np.zeros((4, 2)), 1.0)
        with pytest.raises(BlockMismatch):
            estimate_mean_cov(g, 1, blocks=BlockSpec(((0, 3),)))


class TestBlockSpec:
    def test_equal_parts(self):
        spec = BlockSpec.equal_parts(10, 3)
        assert spec.block_count == 3
        assert spec.dim == 10

    def test_rejects_gap_and_empty(self):
        with pytest.raises(BlockMismatch):
            BlockSpec(((0, 2), (3, 4)))
        with pytest.raises(BlockMismatch):
            BlockSpec(((0, 0),))


class TestFloorEigenvalues:
    def test_direct_clipping_example(self):
        model = eig_decompose(np.diag([0.5, 0.02, 0.0]))
        floored, delta = floor_eigenvalues(model, 0.04)
        assert np.allclose(floored.eigvals, [0.5, 0.04, 0.04])
        assert sorted(delta.eigvals) == pytest.approx([0.0, 0.02, 0.04])
        assert floored.lambda_min() >= 0.04

    def test_noop_when_spectrum_above_floor(self):
        model = eig_decompose(np.diag([0.5, 0.2]))
        floored, delta = floor_eigenvalues(model, 0.1)
        assert np.allclose(delta.eigvals, 0.0)
        assert np.allclose(floored.matrix(), model.matrix())

    def test_pure_noise_case(self):
        model = eig_decompose(np.zeros((5, 5)))
        floored, delta = floor_eigenvalues(model, 0.01)
        assert np.allclose(floored.matrix(), 0.01 * np.eye(5))
        assert delta.eigvals.sum() == pytest.approx(0.05)

    def test_matrix_identity_and_exact_differences(self):
        rng = np.random.default_rng(11)
        model = full_rank_model(rng, 4, jitter=0.01)
        floored, delta = floor_eigenvalues(model, 0.5)
        assert np.allclose(floored.matrix() - model.matrix(), delta.matrix(), atol=1e-12)
        diffs = np.sort(floored.eigvals - model.eigvals)
        assert np.array_equal(diffs, np.sort(delta.eigvals))

    def test_delta_psd_and_idempotence(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            g = random_gradients(rng, 4, 6, 1.5)
            model = estimate_mean_cov(g, 2)
            floor = float(rng.random() * 0.5)
            floored, delta = floor_eigenvalues(model, floor)
            assert np.all(delta.eigvals >= 0)
            assert np.all(delta.eigvals <= floor + 1e-15)
            again, delta2 = floor_eigenvalues(floored, floor)
            assert np.allclose(again.eigvals, floored.eigvals)
            assert np.allclose(delta2.eigvals, 0.0)

    def test_requires_full_spectrum(self):
        partial = CovarianceModel(np.zeros(3), np.eye(3)[:, :2], np.array([1.0, 0.5]))
        with pytest.raises(PartialSpectrum):
            floor_eigenvalues(partial, 0.1)

    def test_results_share_no_memory_with_input(self):
        model = full_rank_model(np.random.default_rng(3), 4)
        for out in floor_eigenvalues(model, 0.5):
            for theirs in (out.mean, out.eigvecs, out.eigvals):
                for ours in (model.mean, model.eigvecs, model.eigvals):
                    assert not np.shares_memory(theirs, ours)


class TestSampleGaussian:
    def test_zero_covariance_returns_mean(self):
        mean = np.array([1.0, -2.0, 3.0])
        model = CovarianceModel(mean, np.eye(3), np.zeros(3))
        out = sample_gaussian(model, np.random.default_rng(0))
        assert np.array_equal(out, mean)

    def test_monte_carlo_identity_covariance(self):
        model = CovarianceModel(np.zeros(2), np.eye(2), np.ones(2))
        rng = np.random.default_rng(123)
        samples = np.array([sample_gaussian(model, rng) for _ in range(100_000)])
        emp = samples.T @ samples / samples.shape[0]
        assert np.abs(emp - np.eye(2)).max() < 0.05

    def test_rank_one_support(self):
        g = np.array([2.0, 1.0, -1.0])
        model = eig_decompose(np.outer(g, g))
        mu = np.array([0.5, 0.0, 0.25])
        model = CovarianceModel(mu, model.eigvecs, model.eigvals)
        rng = np.random.default_rng(9)
        direction = g / np.linalg.norm(g)
        for _ in range(50):
            x = sample_gaussian(model, rng) - mu
            residual = x - direction * (direction @ x)
            assert np.linalg.norm(residual) < 1e-10

    def test_deterministic_given_seed(self):
        rng_a = np.random.default_rng(77)
        rng_b = np.random.default_rng(77)
        model = full_rank_model(np.random.default_rng(1), 5)
        xa = sample_gaussian(model, rng_a)
        xb = sample_gaussian(model, rng_b)
        assert np.array_equal(xa, xb)


def renyi_quadrature_2d(alpha, p, q, half_width=12.0, points=601):
    """Grid integration of E_Q[(P/Q)^alpha] for 2-D Gaussians."""
    xs = np.linspace(-half_width, half_width, points)
    grid = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1).reshape(-1, 2)

    def log_density(model, pts):
        diff = pts - model.mean
        inv = np.linalg.inv(model.matrix())
        _, logdet = np.linalg.slogdet(model.matrix())
        quad = np.einsum("ni,ij,nj->n", diff, inv, diff)
        return -0.5 * (quad + logdet + 2 * np.log(2 * np.pi))

    log_p = log_density(p, grid)
    log_q = log_density(q, grid)
    integrand = np.exp(alpha * log_p + (1.0 - alpha) * log_q).reshape(points, points)
    integral = np.trapezoid(np.trapezoid(integrand, xs, axis=1), xs, axis=0)
    return np.log(integral) / (alpha - 1.0)


class TestRenyiGaussian:
    def test_identical_models_zero(self):
        model = full_rank_model(np.random.default_rng(2), 3)
        assert renyi_gaussian(2.0, model, model) == 0.0

    def test_one_dim_equal_covariance_closed_form(self):
        p = CovarianceModel(np.array([1.0]), np.eye(1), np.array([1.0]))
        q = CovarianceModel(np.array([0.0]), np.eye(1), np.array([1.0]))
        assert renyi_gaussian(2.0, p, q) == pytest.approx(1.0, abs=1e-12)

    def test_quadrature_oracle_2d(self):
        rng = np.random.default_rng(21)
        a = rng.standard_normal((2, 2)) * 0.3
        b = rng.standard_normal((2, 2)) * 0.3
        sig_p = a @ a.T + 0.8 * np.eye(2)
        sig_q = b @ b.T + 1.2 * np.eye(2)
        pm = eig_decompose(sig_p)
        qm = eig_decompose(sig_q)
        p = CovarianceModel(np.array([0.3, -0.2]), pm.eigvecs, pm.eigvals)
        q = CovarianceModel(np.array([-0.1, 0.4]), qm.eigvecs, qm.eigvals)
        for alpha in (0.5, 2.0):
            exact = renyi_gaussian(alpha, p, q)
            numeric = renyi_quadrature_2d(alpha, p, q)
            assert exact == pytest.approx(numeric, abs=1e-3)

    def test_monotone_in_alpha(self):
        # with Sq >= Sp the alpha-mixture stays PD on the whole grid
        rng = np.random.default_rng(31)
        p = full_rank_model(rng, 3, jitter=1.0)
        bump = rng.standard_normal((3, 3)) * 0.2
        q_mat = p.matrix() + bump @ bump.T + 0.1 * np.eye(3)
        qd = eig_decompose(q_mat)
        q = CovarianceModel(rng.standard_normal(3), qd.eigvecs, qd.eigvals)
        alphas = [1.1, 1.5, 2.0, 3.0, 5.0]
        values = [renyi_gaussian(a, p, q) for a in alphas]
        assert all(v2 >= v1 - 1e-12 for v1, v2 in zip(values, values[1:]))

    def test_rejects_singular_input(self):
        singular = eig_decompose(np.diag([1.0, 0.0]))
        full = eig_decompose(np.eye(2))
        with pytest.raises(SingularCovariance):
            renyi_gaussian(2.0, singular, full)

    def test_indefinite_mixture(self):
        p = eig_decompose(np.diag([10.0, 10.0]))
        q = eig_decompose(np.diag([0.1, 0.1]))
        with pytest.raises(IndefiniteSigmaAlpha):
            renyi_gaussian(4.0, p, q)


class TestSpanContains:
    def test_orthogonal_direction(self):
        cols = np.eye(3)[:, :2]
        assert not span_contains(cols, np.array([0.0, 0.0, 1.0]))

    def test_linear_combination(self):
        cols = np.eye(3)[:, :2]
        assert span_contains(cols, np.array([1.0, 1.0, 0.0]))

    def test_zero_vector(self):
        cols = np.eye(3)[:, :2]
        assert span_contains(cols, np.zeros(3))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            span_contains(np.eye(3), np.zeros(2))

    @given(scale=st.floats(min_value=0.01, max_value=100.0))
    @settings(max_examples=25, deadline=None)
    def test_scale_invariance(self, scale):
        rng = np.random.default_rng(17)
        cols = rng.standard_normal((5, 3))
        inside = cols @ rng.standard_normal(3)
        outside = rng.standard_normal(5)
        assert span_contains(cols * scale, inside)
        # a random vector in 5-D is almost surely outside a 3-D span
        assert not span_contains(cols * scale, outside)


class TestSpectrumInvariants:
    def test_lambda_max_bounded_by_clip_squared(self):
        rng = np.random.default_rng(101)
        for _ in range(50):
            clip = float(0.5 + 2 * rng.random())
            g = random_gradients(rng, int(rng.integers(2, 6)), int(rng.integers(2, 12)), clip)
            model = estimate_mean_cov(g, batch=1)
            assert model.lambda_max() <= clip**2 + 1e-9

    def test_min_eigenvalue_superadditive(self):
        rng = np.random.default_rng(55)
        for _ in range(20):
            models = [full_rank_model(rng, 4) for _ in range(int(rng.integers(2, 5)))]
            total = sum_covariances(models)
            assert total.lambda_min() >= sum(m.lambda_min() for m in models) - 1e-9

    def test_lambda_min_nonzero(self):
        model = eig_decompose(np.diag([0.5, 0.02, 0.0]))
        assert model.lambda_min() == 0.0
        assert model.lambda_min_nonzero() == pytest.approx(0.02)
        zero = eig_decompose(np.zeros((2, 2)))
        with pytest.raises(SingularCovariance):
            zero.lambda_min_nonzero()
