"""Covariance spectrum operations against independent linear-algebra oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aggnoise.errors import (
    DimensionMismatch,
    EmptyGradients,
    IndefiniteSigmaAlpha,
    NonSymmetric,
    NotPositiveSemidefinite,
    SingularCovariance,
)
from aggnoise.spectra import (
    DEFAULT_RANK_TOL,
    CovarianceModel,
    GradientMatrix,
    eig_decompose,
    estimate_mean_cov,
    estimate_width,
    floor_coverage,
    floor_eigenvalues,
    rank,
    renyi_gaussian,
    sample_gaussian,
    span_contains,
    sum_covariances,
    _psd_eigh,
    _renyi_divergence,
    _second_moment,
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


class TestStackedPrimitives:
    """Stacks of matrices through the one-matrix primitives: member by member, bit for bit."""

    def test_stacked_eigh_equals_each_member(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((5, 4, 4))
        stack = a @ a.swapaxes(-1, -2)
        stack[2] = np.diag([2.0, 1.0, 1e-14, 0.0])  # ties and a clamped zero
        vals, vecs = _psd_eigh(stack)
        for i, mat in enumerate(stack):
            one_vals, one_vecs = _psd_eigh(mat)
            assert np.array_equal(vals[i], one_vals) and np.array_equal(vecs[i], one_vecs)

    def test_stack_with_one_non_symmetric_member(self):
        stack = np.stack([np.eye(3), np.eye(3), np.eye(3)])
        stack[1, 0, 2] += 1e-3
        with pytest.raises(NonSymmetric):
            _psd_eigh(stack)

    def test_stack_with_one_indefinite_member(self):
        stack = np.stack([np.eye(3), np.diag([1.0, 0.5, -1e-3]), np.eye(3)])
        with pytest.raises(NotPositiveSemidefinite, match="-1.000e-03"):
            _psd_eigh(stack)

    def test_each_member_is_checked_on_its_own_scale(self):
        # beside a 1e6-scale member, 1e-6 of asymmetry or negativity would pass
        # a stack-wide tolerance; on the small member's own scale it fails
        big = 1e6 * np.eye(2)
        skewed = np.array([[1.0, 1e-6], [0.0, 1.0]])
        with pytest.raises(NonSymmetric):
            _psd_eigh(np.stack([big, skewed]))
        with pytest.raises(NotPositiveSemidefinite):
            _psd_eigh(np.stack([big, np.diag([1.0, -1e-6])]))
        _psd_eigh(np.stack([big, np.diag([1.0, -1e-12])]))  # within the clamp

    def test_rejects_non_square_stack(self):
        with pytest.raises(DimensionMismatch):
            _psd_eigh(np.zeros((2, 3, 4)))

    def test_stacked_second_moment_per_member_batch(self):
        rng = np.random.default_rng(4)
        cols = rng.standard_normal((3, 4, 7))
        batch = np.array([1, 3, 2])
        stacked = _second_moment(cols, batch[:, None, None])
        for i in range(3):
            one = _second_moment(cols[i], int(batch[i]))
            assert np.array_equal(stacked[i], one)

    @pytest.mark.parametrize("dim, count", [(4, 7), (12, 4)], ids=["dense", "thin"])
    def test_per_member_batch_and_floor_equal_per_member_calls(self, dim, count):
        rng = np.random.default_rng(6)
        cols = rng.standard_normal((4, dim, count))
        cols /= np.linalg.norm(cols, axis=-2, keepdims=True)
        cols[1, :, 2:] = 0.0  # a rank-deficient member keeps as many components as its mates
        batch = np.array([1, 3, 2, 4])
        floor = np.array([0.0, 0.05, 0.01, 0.2])
        stack = estimate_mean_cov(GradientMatrix(cols, 1.0), batch)
        assert stack.mean.shape[0] == 4
        assert stack.n_components == estimate_width(dim, count)
        floored, lift = floor_eigenvalues(stack, floor)
        for k in range(4):
            one = estimate_mean_cov(GradientMatrix(cols[k], 1.0), int(batch[k]))
            one_floored, one_lift = floor_eigenvalues(one, float(floor[k]))
            for stacked, alone in ((stack, one), (floored, one_floored)):
                assert np.array_equal(stacked.mean[k], alone.mean)
                assert np.array_equal(stacked.eigvals[k], alone.eigvals)
                assert np.array_equal(stacked.eigvecs[k], alone.eigvecs)
                assert np.array_equal(np.asarray(stacked.tail)[k], alone.tail)
            assert lift[k] == one_lift

    def test_eigenvalues_only_keep_every_check(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((3, 4, 4))
        stack = a @ a.swapaxes(-1, -2)
        vals, vecs = _psd_eigh(stack, vectors=False)
        assert vecs is None
        assert np.allclose(vals, _psd_eigh(stack)[0], rtol=1e-13, atol=0.0)
        big = 1e6 * np.eye(2)
        with pytest.raises(NonSymmetric):
            _psd_eigh(np.stack([big, np.array([[1.0, 1e-6], [0.0, 1.0]])]), vectors=False)
        with pytest.raises(NotPositiveSemidefinite, match="-1.000e-06"):
            _psd_eigh(np.stack([big, np.diag([1.0, -1e-6])]), vectors=False)
        low, _ = _psd_eigh(np.stack([big, np.diag([1.0, -1e-12])]), vectors=False)
        assert low[1, 0] == 0.0  # within the clamp, clamped
        with pytest.raises(DimensionMismatch):
            _psd_eigh(np.zeros((2, 3, 4)), vectors=False)

    @pytest.mark.parametrize("dim, count", [(4, 7), (12, 4)], ids=["dense", "thin"])
    def test_second_moment_spectra_match_the_estimates(self, dim, count):
        rng = np.random.default_rng(8)
        cols = rng.standard_normal((4, dim, count))
        cols /= np.linalg.norm(cols, axis=-2, keepdims=True)
        cols[1, :, 2:] = 0.0  # rank deficient: a thin estimate still keeps every component
        batch = np.array([1, 3, 2, 4])
        grads = GradientMatrix(cols, 1.0)
        floor = 0.3
        covered, spectra = floor_coverage(grads, batch, floor, spectra=True)
        assert spectra.shape == (4, dim)
        assert covered.tolist() == (spectra[:, 0] <= floor).tolist()
        for k in range(4):
            one = GradientMatrix(cols[k], 1.0)
            model = estimate_mean_cov(one, int(batch[k]))
            # the dense second moment's
            reference = np.linalg.eigvalsh(cols[k] @ cols[k].T / (batch[k] * count))[::-1]
            assert np.all(spectra[k, :-1] >= spectra[k, 1:])
            assert np.allclose(spectra[k], reference, rtol=1e-12, atol=1e-12 * reference[0])
            assert np.allclose(spectra[k], model.spectrum(), rtol=1e-12, atol=1e-12 * reference[0])
            assert model.n_components == estimate_width(dim, count)
            # a member alone gets the values it gets in the stack
            one_covered, one_spectrum = floor_coverage(one, int(batch[k]), floor, spectra=True)
            assert np.array_equal(one_spectrum, spectra[k]) and one_covered == covered[k]
        with pytest.raises(ValueError, match="batch must be >= 1"):
            floor_coverage(grads, 0, floor)

    def test_per_member_batch_or_floor_below_range_raises(self):
        grads = GradientMatrix(np.full((2, 3, 4), 0.1), 1.0)
        with pytest.raises(ValueError):
            estimate_mean_cov(grads, np.array([2, 0]))
        model = estimate_mean_cov(grads, np.array([2, 1]))
        with pytest.raises(ValueError):
            floor_eigenvalues(model, np.array([0.1, -1e-3]))

    def test_stacked_renyi_equals_each_pair(self):
        rng = np.random.default_rng(5)
        pairs = []
        for _ in range(4):
            # Sq >= Sp keeps every order's mixture positive definite
            p = full_rank_model(rng, 3)
            bump = rng.standard_normal((3, 3)) * 0.3
            q = eig_decompose(p.matrix() + bump @ bump.T + 0.1 * np.eye(3), rng.standard_normal(3))
            pairs.append((p, q))

        def stack(read):
            return [np.stack([read(p) for p, _ in pairs]), np.stack([read(q) for _, q in pairs])]

        mean_p, mean_q = stack(lambda m: m.mean)
        sig_p, sig_q = stack(lambda m: m.matrix())
        spec_p, spec_q = stack(lambda m: m.spectrum())
        for alpha in (0.5, 1.5, 2.0):
            stacked = _renyi_divergence(alpha, mean_p, mean_q, sig_p, sig_q, spec_p, spec_q)
            assert stacked.tolist() == [renyi_gaussian(alpha, p, q) for p, q in pairs]
        spec_q[2, -1] = 0.0  # one rank-deficient member
        with pytest.raises(SingularCovariance):
            _renyi_divergence(2.0, mean_p, mean_q, sig_p, sig_q, spec_p, spec_q)


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

    def test_sum_covariances_builds_no_model(self, count_models):
        rng = np.random.default_rng(12)
        models = [full_rank_model(rng, 3) for _ in range(3)]
        count_models.clear()
        summed = sum_covariances(models, isotropic_extra=0.1)
        assert len(count_models) == 0
        dense = sum(m.matrix() for m in models) + 0.1 * np.eye(3)
        assert np.allclose(summed, np.linalg.eigvalsh(dense)[::-1], rtol=1e-12, atol=0)


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

    def test_scalar_clip_unchanged(self):
        cols = np.stack([np.eye(2), 2.0 * np.eye(2)])
        g = GradientMatrix(cols, clip_bound=2.0)
        assert g.clip_bound == 2.0 and g.columns.shape == (2, 2, 2)
        with pytest.raises(ValueError, match=r"column norm 2 exceeds clip bound 1\b"):
            GradientMatrix(cols, clip_bound=1.0)
        for bad in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="clip_bound must be positive"):
                GradientMatrix(cols, clip_bound=bad)

    def test_per_member_clip_checks_each_member_against_its_own(self):
        # member norms 1, 3, 2, 5 against bounds 1, 4, 1.5, 4: members 2 and 3
        # are over; the message names member 2's worst norm and its own bound
        cols = np.stack([s * np.eye(3)[:, :2] for s in (1.0, 3.0, 2.0, 5.0)])
        GradientMatrix(cols[:2], clip_bound=np.array([1.0, 4.0]))
        with pytest.raises(ValueError, match=r"column norm 2 exceeds clip bound 1\.5\b"):
            GradientMatrix(cols, clip_bound=np.array([1.0, 4.0, 1.5, 4.0]))
        # the largest bound alone would pass member 2
        with pytest.raises(ValueError, match=r"column norm 5 exceeds clip bound 4\b"):
            GradientMatrix(cols, clip_bound=np.array([1.0, 4.0, 2.0, 4.0]))
        GradientMatrix(cols.reshape(2, 2, 3, 2), clip_bound=np.array([[1.0, 3.0], [2.0, 5.0]]))

    @pytest.mark.parametrize("clip", [[1.0, 0.0], [1.0, -2.0], [float("nan"), 1.0]])
    def test_per_member_clip_must_be_positive(self, clip):
        with pytest.raises(ValueError, match="clip_bound must be positive"):
            GradientMatrix(np.zeros((2, 3, 4)), clip_bound=np.array(clip))

    def test_per_member_clip_needs_a_stack(self):
        with pytest.raises(DimensionMismatch):
            GradientMatrix(np.zeros((3, 4)), clip_bound=np.array([1.0, 1.0, 1.0]))


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
        assert rank(model.spectrum()) == 1

    def test_batch_scaling(self):
        vec = np.array([0.6, 0.8])
        g = GradientMatrix(np.tile(vec[:, None], (1, 4)), 1.0)
        model = estimate_mean_cov(g, batch=5)
        assert np.allclose(model.matrix(), np.outer(vec, vec) / 5)



class TestFloorEigenvalues:
    def test_direct_clipping_example(self):
        model = eig_decompose(np.diag([0.5, 0.02, 0.0]))
        floored, lift_trace = floor_eigenvalues(model, 0.04)
        assert np.allclose(floored.eigvals, [0.5, 0.04, 0.04])
        assert sorted(floored.eigvals - model.eigvals) == pytest.approx([0.0, 0.02, 0.04])
        assert lift_trace == pytest.approx(0.06)
        assert floored.spectrum()[-1] >= 0.04

    def test_noop_when_spectrum_above_floor(self):
        model = eig_decompose(np.diag([0.5, 0.2]))
        floored, lift_trace = floor_eigenvalues(model, 0.1)
        assert lift_trace == pytest.approx(0.0)
        assert np.allclose(floored.matrix(), model.matrix())

    def test_pure_noise_case(self):
        model = eig_decompose(np.zeros((5, 5)))
        floored, lift_trace = floor_eigenvalues(model, 0.01)
        assert np.allclose(floored.matrix(), 0.01 * np.eye(5))
        assert lift_trace == pytest.approx(0.05)

    def test_matrix_identity_and_exact_differences(self):
        rng = np.random.default_rng(11)
        model = full_rank_model(rng, 4, jitter=0.01)
        floored, lift_trace = floor_eigenvalues(model, 0.5)
        lift_vals = np.maximum(0.5 - model.eigvals, 0.0)
        lift = (model.eigvecs * lift_vals) @ model.eigvecs.T
        assert np.allclose(floored.matrix() - model.matrix(), lift, atol=1e-12)
        diffs = np.sort(floored.eigvals - model.eigvals)
        assert np.array_equal(diffs, np.sort(lift_vals))
        assert lift_trace == pytest.approx(float(np.trace(lift)), abs=1e-12)

    def test_delta_psd_and_idempotence(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            g = random_gradients(rng, 4, 6, 1.5)
            model = estimate_mean_cov(g, 2)
            floor = float(rng.random() * 0.5)
            floored, lift_trace = floor_eigenvalues(model, floor)
            lift_vals = floored.eigvals - model.eigvals
            assert np.all(lift_vals >= 0)
            assert np.all(lift_vals <= floor + 1e-15)
            assert lift_trace == pytest.approx(float(lift_vals.sum()), abs=1e-15)
            again, lift_trace2 = floor_eigenvalues(floored, floor)
            assert np.allclose(again.eigvals, floored.eigvals)
            assert lift_trace2 == pytest.approx(0.0)

    def test_fills_missing_directions(self):
        partial = CovarianceModel(np.zeros(3), np.eye(3)[:, :2], np.array([1.0, 0.5]))
        floored, lift_trace = floor_eigenvalues(partial, 0.7)
        dense, dense_trace = floor_eigenvalues(eig_decompose(partial.matrix()), 0.7)
        assert np.allclose(floored.matrix(), dense.matrix(), atol=1e-15)
        assert np.allclose(floored.matrix(), np.diag([1.0, 0.7, 0.7]))
        assert floored.tail == 0.7 and floored.spectrum()[-1] == 0.7
        assert lift_trace == pytest.approx(0.9) and lift_trace == pytest.approx(dense_trace)

    def test_results_share_only_the_eigenvectors_with_input(self):
        # a lifted non-increasing spectrum stays sorted: no argsort, no copy of U
        model = full_rank_model(np.random.default_rng(3), 4)
        floored, _ = floor_eigenvalues(model, 0.5)
        assert floored.eigvecs is model.eigvecs
        for theirs in (floored.mean, floored.eigvals):
            for ours in (model.mean, model.eigvecs, model.eigvals):
                assert not np.shares_memory(theirs, ours)

    def test_unsorted_input_is_still_reordered(self):
        vecs = np.linalg.qr(np.random.default_rng(4).standard_normal((4, 4)))[0]
        model = CovarianceModel(np.zeros(4), vecs, np.array([0.1, 0.4, 0.3, 0.2]))
        assert np.array_equal(model.eigvals, [0.4, 0.3, 0.2, 0.1])
        assert np.array_equal(model.eigvecs, vecs[:, [1, 2, 3, 0]])
        assert not np.shares_memory(model.eigvecs, vecs)
        # a sorted row-major input is laid out column-major, as a sorted copy would be
        sorted_model = CovarianceModel(np.zeros(4), vecs[:, [1, 2, 3, 0]].copy(order="C"),
                                       np.array([0.4, 0.3, 0.2, 0.1]))
        assert sorted_model.eigvecs.flags.f_contiguous
        assert np.array_equal(sorted_model.eigvecs, model.eigvecs)


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

    @pytest.mark.parametrize("floor", [0.0, 0.3])
    def test_single_model_is_a_stack_of_one(self, floor):
        # a rank-3 model in d = 8, with a tail once floored: its draw is row 0
        # of the same model as a stack of one, and takes the same normals
        grads = random_gradients(np.random.default_rng(2), dim=8, count=3, clip=1.0)
        model = estimate_mean_cov(grads, 1)
        if floor:
            model, _ = floor_eigenvalues(model, floor)
        assert (model.tail != 0.0) == bool(floor)
        stack = CovarianceModel(model.mean[None], model.eigvecs[None], model.eigvals[None],
                                np.reshape(model.tail, (1,)))
        rng_single, rng_stack = np.random.default_rng(4), np.random.default_rng(4)
        single = sample_gaussian(model, rng_single)
        stacked = sample_gaussian(stack, [rng_stack])
        assert single.shape == (8,) and stacked.shape == (1, 8)
        assert np.array_equal(single, stacked[0])
        assert rng_single.bit_generator.state == rng_stack.bit_generator.state


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

    def test_reversed_view_spectrum_gives_its_copys_bits(self):
        # a spectrum whose logs, taken on the reversed view, once differed
        # from its copy's in the last bit and moved the divergence with them
        ascending = np.array([0.79, 0.981, 1.137, 1.291, 1.366, 1.396, 1.462, 1.65, 1.732])
        view = ascending[::-1]
        q = CovarianceModel(np.zeros(9), np.eye(9), np.ones(9))
        as_view = CovarianceModel(np.zeros(9), np.eye(9), view)
        as_copy = CovarianceModel(np.zeros(9), np.eye(9), view.copy())
        assert as_view.spectrum().strides[0] < 0 < as_copy.spectrum().strides[0]
        assert renyi_gaussian(0.5, as_view, q) == renyi_gaussian(0.5, as_copy, q)


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

    @pytest.mark.parametrize("shape", [(3,), (2, 3, 2)], ids=["1d", "3d"])
    def test_columns_must_be_two_dimensional(self, shape):
        with pytest.raises(DimensionMismatch):
            span_contains(np.ones(shape), np.ones(3))

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
            assert model.spectrum()[0] <= clip**2 + 1e-9

    def test_min_eigenvalue_superadditive(self):
        rng = np.random.default_rng(55)
        for _ in range(20):
            models = [full_rank_model(rng, 4) for _ in range(int(rng.integers(2, 5)))]
            total = sum_covariances(models)
            assert total[-1] >= sum(m.spectrum()[-1] for m in models) - 1e-9

    def test_rank_and_smallest_nonzero_eigenvalue(self):
        spectrum = eig_decompose(np.diag([0.5, 0.02, 0.0])).spectrum()
        assert spectrum[-1] == 0.0
        assert rank(spectrum) == 2
        assert spectrum[rank(spectrum) - 1] == pytest.approx(0.02)
        assert rank(eig_decompose(np.zeros((2, 2))).spectrum()) == 0

    def test_rank_gives_the_widths_thin_block_kept(self):
        rng = np.random.default_rng(61)
        cols = rng.standard_normal((4, 20, 6))
        cols /= np.linalg.norm(cols, axis=-2, keepdims=True)
        cols[1, :, 3:] = cols[1, :, :3]  # rank 3
        cols[2, :, 1:] = cols[2, :, :1]  # rank 1
        cols[3] *= 1e-3  # the threshold is relative to each member's largest eigenvalue
        batch = np.array([1, 2, 3, 4])[:, None, None]
        # the rule a thin estimate once kept its components by: ascending
        # eigenvalues above DEFAULT_RANK_TOL times each member's last, largest one
        _, r = np.linalg.qr(cols / np.sqrt(batch * 6))
        vals, _ = _psd_eigh(r @ r.swapaxes(-1, -2))
        inline = np.sum(vals > DEFAULT_RANK_TOL * vals[..., -1:], axis=-1)
        assert inline.tolist() == [6, 3, 1, 6]
        assert rank(vals).tolist() == rank(vals[..., ::-1]).tolist() == inline.tolist()
        # the estimate now keeps all of them, whatever the rank
        model = estimate_mean_cov(GradientMatrix(cols, 1.0), batch[:, 0, 0])
        assert model.n_components == 6 == estimate_width(20, 6)
        assert rank(model.spectrum()).tolist() == inline.tolist()


def _clipped(cols, clip=1.0):
    return GradientMatrix(cols * (0.999 * clip / np.linalg.norm(cols, axis=0).max()), clip)


def _thin_inputs(rng, dim=50, count=20):
    """Gradient sets with fewer columns than half the dimension, easy and hard."""
    base = rng.standard_normal((dim, count // 2))
    q1, _ = np.linalg.qr(rng.standard_normal((dim, count)))
    q2, _ = np.linalg.qr(rng.standard_normal((count, count)))
    return {
        "random": _clipped(rng.standard_normal((dim, count))),
        "duplicated": _clipped(np.hstack([base, base])),
        "column_scales": _clipped(rng.standard_normal((dim, count)) * np.logspace(0, -4, count)),
        "singular_values": _clipped(q1 @ np.diag(np.logspace(0, -6, count)) @ q2.T),
    }


def _dense_second_moment(grads, batch):
    x = grads.columns
    return (x @ x.T) / (batch * x.shape[1])


def _dense_oracle(grads, batch, rank_tol=0.0):
    """Eigenpairs of the dense second moment.

    Eigenvalues at or below ``rank_tol`` times the largest are set to 0, and
    so are tiny negatives; with DEFAULT_RANK_TOL these are the ones
    ``rank()`` counts as zero.
    """
    lam, vecs = np.linalg.eigh(_dense_second_moment(grads, batch))
    return np.where(lam > rank_tol * lam[-1], lam, 0.0), vecs


def _forbidden(name):
    def fail(*args, **kwargs):
        raise AssertionError(f"np.linalg.{name} called")

    return fail


class TestLowRankModels:
    """Models estimated from D <= dim/2 gradients carry D eigenpairs plus a tail."""

    def test_matches_dense_eigh_floor_sum_oracle(self):
        batch = 3
        user_inputs = [_thin_inputs(np.random.default_rng(40 + u)) for u in range(3)]
        for kind in user_inputs[0]:
            models, dense = [], []
            for inputs in user_inputs:
                grads = inputs[kind]
                model = estimate_mean_cov(grads, batch)
                vals, vecs = _dense_oracle(grads, batch)
                lam_max = vals.max()
                assert model.n_components == estimate_width(50, 20) < model.dim
                # every component is kept, down to the smallest
                raw = _dense_second_moment(grads, batch)
                assert np.abs(model.matrix() - raw).max() <= 1e-12 * lam_max, kind
                assert np.abs(model.eigvecs.T @ model.eigvecs - np.eye(model.n_components)).max() <= 1e-12
                models.append(model)
                dense.append((vals, vecs))
            # the median of the first user's eigenvalues above the rank threshold
            kept = _dense_oracle(user_inputs[0][kind], batch, DEFAULT_RANK_TOL)[0]
            sigma2 = float(np.median(kept[kept > 0]))
            floored_sum = np.zeros((50, 50))
            floored_models = []
            for model, (vals, vecs) in zip(models, dense):
                floored, lift_trace = floor_eigenvalues(model, sigma2)
                dense_floored = np.maximum(vals, sigma2)
                dense_trace = float(np.maximum(sigma2 - vals, 0.0).sum())
                assert floored.spectrum()[-1] == pytest.approx(dense_floored.min(), rel=1e-12, abs=0)
                assert lift_trace == pytest.approx(dense_trace, rel=1e-12, abs=0), kind
                floored_sum += (vecs * dense_floored) @ vecs.T
                floored_models.append(floored)
            summed = sum_covariances(floored_models)
            expected = float(np.linalg.eigvalsh(floored_sum)[0])
            assert summed[-1] == pytest.approx(expected, rel=1e-12, abs=0), kind

    def test_dense_path_is_unchanged(self):
        # D >= dim: the same eigendecomposition of the same matrix, and the
        # sampler draws r normals with the same arithmetic as before
        grads = random_gradients(np.random.default_rng(21), dim=5, count=8, clip=1.0)
        model = estimate_mean_cov(grads, 2)
        cols = grads.columns
        reference = eig_decompose((cols @ cols.T) / (2 * 8), cols.mean(axis=1))
        for ours, theirs in ((model.eigvecs, reference.eigvecs), (model.eigvals, reference.eigvals)):
            assert np.array_equal(ours, theirs)
        for m in (model, floor_eigenvalues(model, 0.05)[0]):
            assert m.n_components == m.dim and m.tail == 0.0
            rng_new, rng_old = np.random.default_rng(5), np.random.default_rng(5)
            drawn = sample_gaussian(m, rng_new)
            old = m.mean + (m.eigvecs * np.sqrt(m.eigvals)) @ rng_old.standard_normal(m.n_components)
            assert np.array_equal(drawn, old)
            assert rng_new.bit_generator.state == rng_old.bit_generator.state

    def test_floored_samples_have_the_model_covariance(self):
        from aggnoise.mechanisms import wfna_noise

        grads = random_gradients(np.random.default_rng(31), dim=6, count=3, clip=1.0)
        model = estimate_mean_cov(grads, 1)
        assert model.n_components == 3
        floored, _ = floor_eigenvalues(model, 0.5 * model.spectrum()[0])
        target = floored.matrix()
        scale = floored.spectrum()[0]
        rng = np.random.default_rng(32)
        n = 30_000
        replaced = np.array([sample_gaussian(floored, rng) for _ in range(n)]) - model.mean
        added = np.array(
            [sample_gaussian(model, rng) + wfna_noise(model, floored.tail, rng).vector
             for _ in range(n)]
        ) - model.mean
        for samples in (replaced, added):
            emp = samples.T @ samples / n
            # entry standard errors are below sqrt(2/n) * lambda_max ~ 0.008 * lambda_max
            assert np.abs(emp - target).max() < 0.045 * scale

    def test_thousand_dim_sum_floor_is_exact_without_large_eigh(self, monkeypatch):
        rng = np.random.default_rng(77)
        dim, count, users, batch = 1001, 100, 9, 10
        original = np.linalg.eigh
        sizes = []

        def recording(a, *args, **kwargs):
            sizes.append(a.shape[0])
            return original(a, *args, **kwargs)

        grads = [random_gradients(rng, dim, count, 1.0) for _ in range(users)]
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "eigh", recording)
            models = [estimate_mean_cov(g, batch) for g in grads]
        assert sizes and max(sizes) <= count
        sigma2 = float(np.median(models[0].eigvals))
        summed = sum_covariances([floor_eigenvalues(m, sigma2)[0] for m in models])
        assert summed[-1] == pytest.approx(users * sigma2, rel=1e-12, abs=0)
        # a floor >= C^2/B lifts every eigenvalue (the trace is at most C^2/B)
        # to the tail: every floored model is isotropic and the sum decomposes nothing
        sigma2 = 1.0**2 / batch
        floored = [floor_eigenvalues(m, sigma2)[0] for m in models]
        with monkeypatch.context() as patch:
            for name in ("eigh", "qr"):
                patch.setattr(np.linalg, name, _forbidden(name))
            summed = sum_covariances(floored)
        tail = 0.0
        for _ in floored:  # model by model, the order sum_covariances adds them in
            tail += sigma2
        assert np.array_equal(summed, np.full(dim, tail))

    def test_thin_estimate_builds_one_model(self, monkeypatch):
        calls = []
        original = CovarianceModel.__post_init__

        def counted(self):
            calls.append(1)
            original(self)

        monkeypatch.setattr(CovarianceModel, "__post_init__", counted)
        estimate_mean_cov(random_gradients(np.random.default_rng(4), 8, 3, 1.0), 2)
        assert len(calls) == 1

    def test_spectrum_readers_include_the_tail(self):
        model = CovarianceModel(np.zeros(4), np.eye(4)[:, :2], np.array([2.0, 0.5]), tail=1.0)
        assert np.array_equal(model.spectrum(), [2.0, 1.0, 1.0, 0.5])
        assert rank(model.spectrum()) == 4
        assert np.allclose(model.matrix(), np.diag([2.0, 0.5, 1.0, 1.0]))
        untailed = CovarianceModel(np.zeros(4), np.eye(4)[:, :2], np.array([2.0, 0.5]))
        assert np.array_equal(untailed.spectrum(), [2.0, 0.5, 0.0, 0.0])
        assert rank(untailed.spectrum()) == 2

    def test_full_dimension_model_stores_no_tail(self):
        model = CovarianceModel(np.zeros(2), np.eye(2), np.ones(2), tail=3.0)
        assert model.tail == 0.0
        with pytest.raises(NotPositiveSemidefinite):
            CovarianceModel(np.zeros(3), np.eye(3)[:, :1], np.ones(1), tail=-1.0)
        with pytest.raises(DimensionMismatch):
            CovarianceModel(np.zeros(2), np.ones((2, 3)), np.ones(3))

    def test_renyi_reads_the_tail(self):
        rng = np.random.default_rng(13)
        p = floor_eigenvalues(estimate_mean_cov(random_gradients(rng, 6, 2, 1.0), 1), 0.05)[0]
        q = floor_eigenvalues(estimate_mean_cov(random_gradients(rng, 6, 3, 1.0), 1), 0.08)[0]
        assert p.tail == 0.05 and q.tail == 0.08
        dense_p = eig_decompose(p.matrix(), p.mean)
        dense_q = eig_decompose(q.matrix(), q.mean)
        for alpha in (1.5, 2.0, 4.0):
            assert renyi_gaussian(alpha, p, q) == pytest.approx(
                renyi_gaussian(alpha, dense_p, dense_q), rel=1e-10
            )


def _thin_model(rng, dim, count, floor=0.0):
    model = estimate_mean_cov(random_gradients(rng, dim, count, 1.0), 2)
    return floor_eigenvalues(model, floor)[0] if floor > 0 else model


def _dense_sum(models, extra):
    """The dense formula: add every matrix(), then the non-increasing eigenvalues of the total."""
    dim = models[0].dim
    total = np.zeros((dim, dim))
    for m in models:
        total += m.matrix()
    if extra:
        total[np.diag_indices(dim)] += extra
    return np.maximum(np.linalg.eigvalsh(0.5 * (total + total.T)), 0.0)[::-1]


class TestIsotropicSum:
    """sum_covariances: the summed tails when every model is isotropic, else the dense formula."""

    DIM = 50

    def _check_against_dense(self, models, extra):
        summed = sum_covariances(models, isotropic_extra=extra)
        dense = sum(m.matrix() for m in models) + extra * np.eye(self.DIM)
        lam_max = float(np.linalg.eigvalsh(dense)[-1])
        # eigvalsh is backward stable: each eigenvalue is off by a small
        # multiple of dim * eps * lambda_max
        backward = 4 * self.DIM * np.finfo(float).eps * lam_max
        assert summed.shape == (self.DIM,)
        assert np.abs(summed[::-1] - np.linalg.eigvalsh(dense)).max() <= backward
        return summed

    @pytest.mark.parametrize("extra", [0.0, 0.03])
    def test_isotropic_models_sum_to_the_summed_tails(self, monkeypatch, extra):
        rng = np.random.default_rng(50)
        models = [_thin_model(rng, self.DIM, 4, floor=0.6) for _ in range(3)]
        # a deterministic update's model: no eigenpairs, tail 0
        models.append(CovarianceModel(rng.standard_normal(self.DIM), np.zeros((self.DIM, 0)), np.zeros(0)))
        assert all(m.eigvals.max(initial=m.tail) == m.tail for m in models)
        with monkeypatch.context() as patch:
            for name in ("eigh", "eigvalsh", "qr"):
                patch.setattr(np.linalg, name, _forbidden(name))
            summed = sum_covariances(models, isotropic_extra=extra)
        assert np.array_equal(summed, np.full(self.DIM, sum(m.tail for m in models) + extra))
        assert summed[-1] == pytest.approx(3 * 0.6 + extra, rel=1e-12, abs=0)
        self._check_against_dense(models, extra)

    def test_other_sums_are_the_dense_formula(self):
        rng = np.random.default_rng(52)
        thin = [_thin_model(rng, self.DIM, 12) for _ in range(2)]
        floored = _thin_model(rng, self.DIM, 8, floor=0.001)
        isotropic = _thin_model(rng, self.DIM, 4, floor=0.6)
        full = full_rank_model(rng, self.DIM)
        for extra in (0.0, 0.03):
            # one thin model, thin with isotropic, mixed thin and full-dimension
            for subset in ([floored], [floored, isotropic], thin + [full], thin + [floored]):
                summed = self._check_against_dense(subset, extra)
                assert np.array_equal(summed, _dense_sum(subset, extra))

    def test_eigenvalue_off_the_tail_takes_the_dense_path(self):
        rng = np.random.default_rng(53)
        basis, _ = np.linalg.qr(rng.standard_normal((self.DIM, 2)))
        floored = _thin_model(rng, self.DIM, 3, floor=0.01)
        isotropic = _thin_model(rng, self.DIM, 4, floor=0.6)
        # one eigenvalue a single ulp above the tail
        nudged = CovarianceModel(
            isotropic.mean, isotropic.eigvecs,
            np.append(np.nextafter(0.6, 1.0), isotropic.eigvals[1:]), tail=0.6,
        )
        for vals, others in (([0.5, 0.1], [floored]), ([0.2, 0.1], [isotropic]), (None, [isotropic])):
            first = nudged if vals is None else CovarianceModel(
                np.zeros(self.DIM), basis, np.array(vals), tail=0.3
            )
            models = [first] + others
            summed = self._check_against_dense(models, 0.0)
            assert np.array_equal(summed, _dense_sum(models, 0.0))
