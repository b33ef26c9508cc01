"""Oracle module self-checks: the verifiers are verified here."""

import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import log_ndtr, ndtr
from scipy.stats import norm

import aggnoise
from aggnoise.accountant import (
    PrivacyParams,
    RdpVariant,
    analytic_gaussian_delta,
    eps_dp_closed_form,
    log_norm_cdf,
    norm_cdf,
    rdp_bound,
)
from aggnoise.errors import BadDimension
from aggnoise.spectra import (
    GradientMatrix,
    eig_decompose,
    estimate_mean_cov,
    floor_eigenvalues,
    renyi_gaussian,
    sum_covariances,
    _psd_eigh,
    _renyi_divergence,
)
from aggnoise.verify import (
    _DISTINGUISHER_BLOCK_BYTES,
    Counterexample,
    DominanceReport,
    Verdict,
    _estimates,
    _floored_models,
    _random_clipped,
    _stacked_bounds,
    _Trial,
    build_counterexample,
    certify_closed_form,
    certify_rdp,
    check_necessary_condition,
    counterexample_floored_lambda_min,
    dp_advantage_bound,
    run_distinguisher,
    summarize_reports,
)


def _random_clipped_columns(dim, count, clip, rng, low, spread):
    """``count`` random directions, with norms drawn uniformly from clip * [low, low + spread)."""
    cols = rng.standard_normal((dim, count))
    norms = np.linalg.norm(cols, axis=0)
    scales = clip * (low + spread * rng.random(count)) / norms
    return cols * scales


def _substitute_column(cols, new_col):
    cols = cols.copy()
    cols[:, 0] = new_col
    return cols


def _whole_distinguisher(instance, trials, rng, floor=0.0):
    """``run_distinguisher`` drawing every trial at once, as one (trials, components) normal matrix."""
    q = instance.quarter_start
    models = _floored_models(instance.helpers, instance.batch, floor)
    agg_model = eig_decompose(sum(m.matrix() for m in models), sum(m.mean for m in models))
    mean_q = agg_model.mean[q:]
    secret = rng.integers(0, 2, size=trials)
    head = (agg_model.eigvecs * np.sqrt(agg_model.eigvals))[q:]
    noise = rng.standard_normal((trials, agg_model.n_components)) @ head.T
    cand = np.where(secret[:, None] == 0, instance.candidate_a[None, q:], instance.candidate_b[None, q:])
    observed = noise + mean_q[None, :] + cand
    da = np.linalg.norm(observed - mean_q[None, :] - instance.candidate_a[None, q:], axis=1)
    db = np.linalg.norm(observed - mean_q[None, :] - instance.candidate_b[None, q:], axis=1)
    guess = (db < da).astype(int)
    return float(np.mean(guess == secret))


def closed_form_instances(n_trials, rng):
    """``certify_closed_form``'s instances, drawn one at a time in its order: (params, floor, users)."""
    for _ in range(n_trials):
        dim = int(rng.integers(2, 6))
        n_users = int(rng.integers(2, 7))
        count = int(rng.integers(max(dim, 4), 11))
        batch = int(rng.integers(1, 5))
        clip = float(0.5 + 1.5 * rng.random())
        delta = float(rng.choice([1e-3, 1e-4]))
        params = PrivacyParams(clip=clip, batch=batch, local_size=count,
                               ns_users=n_users, delta=delta)
        root = math.sqrt(2.0 * math.log(1.25 / delta))
        lambda_0 = 4.0 * clip * clip * root / (batch * batch)
        floor = lambda_0 / n_users * float(rng.choice([1.05, 2.0, 5.0, 20.0]))
        # the reference path checks each user's draw against its clip on its own
        users = [GradientMatrix(_random_clipped_columns(dim, count, clip, rng, 0.6, 0.4), clip)
                 for _ in range(n_users)]
        yield params, floor, users


def summed(gradient_sets, batch, floor):
    """An instance's summed mean and covariance, added model by model as ``sum_covariances`` adds them."""
    models = _floored_models(gradient_sets, batch, floor)
    return sum(m.mean for m in models), sum(m.matrix() for m in models)


def per_instance_closed_form(n_trials, rng):
    """The reference suite: each instance through the public per-model path."""
    reports = []
    for trial, (params, floor, users) in enumerate(closed_form_instances(n_trials, rng)):
        _, total = summed(users, params.batch, floor)
        # eigh's first eigenpair: the smallest eigenvalue, and the first of its
        # eigenvectors when flooring ties it
        vals, vecs = _psd_eigh(total)
        lam_min = float(vals[0])
        bound = eps_dp_closed_form(lam_min, params)
        chol = np.linalg.cholesky(total)
        extremal = (2.0 * params.clip / params.batch) * vecs[:, 0]
        w = np.linalg.solve(chol, extremal[:, None])
        sensitivity = float(np.linalg.norm(w, axis=0)[0])
        reports.append(DominanceReport(
            descriptor=(
                f"closed_form trial={trial} d={total.shape[0]} N={params.ns_users} "
                f"D={params.local_size} B={params.batch} C={params.clip:.3f} "
                f"delta={params.delta:g} region={bound.region.value} "
                f"lam={lam_min:.3e} eps={bound.eps:.4f}"
            ),
            exact=analytic_gaussian_delta(sensitivity, 1.0, bound.eps),
            bound=params.delta,
        ))
    return reports


def per_instance_rdp(variant, n_trials, rng, alphas=(1.5, 2.0, 4.0)):
    """The reference RDP suite: instances drawn and evaluated one at a time."""
    reports = []
    for trial in range(n_trials):
        dim = int(rng.integers(2, 5))
        count = int(rng.integers(max(dim + 2, 5), 11))
        n_users = int(rng.integers(2, 6))
        batch = int(rng.integers(1, 5))
        clip = float(0.5 + 1.0 * rng.random())
        users = []
        for _ in range(n_users):
            cols = rng.standard_normal((dim, count))
            norms = np.linalg.norm(cols, axis=0)
            scales = clip * (0.7 + 0.3 * rng.random(count)) / norms
            users.append(GradientMatrix(cols * scales, clip))
        replaced = _substitute_column(users[0].columns, _random_clipped(dim, clip, rng))
        substituted = [GradientMatrix(replaced, clip)] + users[1:]
        if variant is RdpVariant.THEOREM1_RDP:
            floor = 0.0
            # the users' summed unit-batch lambda_min, as B times each batch-B estimate's
            context = float(sum(batch * estimate_mean_cov(g, batch).spectrum()[-1] for g in users))
            if context <= 0:
                continue
        else:
            context = None
            base = 2.0 * max(alphas) * clip * clip / (n_users * count)
            floor = base * float(rng.choice([1.5, 3.0, 10.0]))
        params = PrivacyParams(clip=clip, batch=batch, local_size=count,
                               ns_users=n_users, delta=1e-5, floor=floor)
        (mean_p, sig_p), (mean_q, sig_q) = summed(users, batch, floor), summed(substituted, batch, floor)
        spec_p = sum_covariances(_floored_models(users, batch, floor))
        spec_q = sum_covariances(_floored_models(substituted, batch, floor))
        for alpha in alphas:
            bound = rdp_bound(alpha, params, variant, sum_lambda_min=context)
            if not math.isfinite(bound):
                continue
            reports.append(DominanceReport(
                descriptor=(
                    f"{variant.value} trial={trial} alpha={alpha:g} d={dim} "
                    f"N={n_users} D={count} B={batch} C={clip:.3f}"
                    + (f" sigma2={floor:.3e}" if floor else "")
                ),
                exact=float(_renyi_divergence(alpha, mean_p, mean_q, sig_p, sig_q, spec_p, spec_q)),
                bound=float(bound),
            ))
    return reports


def as_dicts(reports):
    return [r.to_dict() for r in reports]


def hockey_stick_quadrature(sensitivity, noise_std, eps):
    """Direct numerical integration of max(p - e^eps q, 0) for 1-D Gaussians."""

    def integrand(x):
        p = norm.pdf(x, loc=sensitivity, scale=noise_std)
        q = norm.pdf(x, loc=0.0, scale=noise_std)
        return max(p - math.exp(eps) * q, 0.0)

    lo = -20 * noise_std
    hi = sensitivity + 20 * noise_std
    # the integrand has one kink; split at the likelihood-ratio crossover
    crossover = eps * noise_std**2 / sensitivity + sensitivity / 2.0
    total = 0.0
    for a, b in ((lo, crossover), (crossover, hi)):
        val, _ = quad(integrand, a, b, epsabs=1e-12, epsrel=1e-12, limit=200)
        total += val
    return total


class TestAnalyticGaussianDelta:
    def test_reference_value(self):
        # Phi(0.5) - Phi(-0.5), frozen from a high-precision evaluation
        assert analytic_gaussian_delta(1.0, 1.0, 0.0) == pytest.approx(0.3829249225, abs=1e-9)

    def test_zero_sensitivity(self):
        for eps in (0.0, 0.5, 3.0):
            assert analytic_gaussian_delta(0.0, 1.0, eps) == 0.0

    def test_monotone_decreasing_in_eps(self):
        values = [analytic_gaussian_delta(1.0, 1.0, e) for e in (0.0, 1.0, 2.0)]
        assert values[0] > values[1] > values[2]

    def test_quadrature_agreement_on_random_triples(self):
        rng = np.random.default_rng(123)
        for _ in range(20):
            sens = float(0.2 + 2.0 * rng.random())
            std = float(0.5 + 1.5 * rng.random())
            eps = float(2.0 * rng.random())
            exact = analytic_gaussian_delta(sens, std, eps)
            numeric = hockey_stick_quadrature(sens, std, eps)
            assert exact == pytest.approx(numeric, abs=1e-8)

    def test_tail_stability(self):
        # far tail: the e^eps * Phi(-...) product must not overflow to junk
        val = analytic_gaussian_delta(0.1, 1.0, 30.0)
        assert 0.0 <= val < 1e-300 or val == 0.0

    @pytest.mark.parametrize(
        "args", [(math.nan, 1.0, 1.0), (1.0, math.nan, 1.0), (1.0, 1.0, math.nan),
                 (-1.0, 1.0, 1.0), (1.0, 0.0, 1.0), (1.0, math.inf, 1.0), (1.0, 1.0, -1.0)]
    )
    def test_rejects_nan_and_out_of_range(self, args):
        with pytest.raises(ValueError):
            analytic_gaussian_delta(*args)

    def test_infinite_arguments(self):
        assert analytic_gaussian_delta(1.0, 1.0, math.inf) == 0.0
        assert analytic_gaussian_delta(math.inf, 1.0, math.inf) == 0.0
        assert analytic_gaussian_delta(math.inf, 1.0, 0.0) == 1.0
        assert analytic_gaussian_delta(math.inf, 2.0, 5.0) == 1.0
        assert analytic_gaussian_delta(1e-320, 1.0, 1.0) == 0.0
        assert analytic_gaussian_delta(1e300, 1e-300, 1e300) == 1.0


class TestNormCdf:
    """Phi and log Phi from ``math`` alone, against scipy.special."""

    GRID = np.linspace(-60.0, 40.0, 200_001)

    def test_cdf_matches_ndtr(self):
        ref = ndtr(self.GRID)
        ours = np.array([norm_cdf(float(x)) for x in self.GRID])
        normal = np.abs(ref) >= sys.float_info.min
        assert normal.sum() > 150_000
        assert np.max(np.abs(ours[normal] - ref[normal]) / ref[normal]) <= 1e-12

    def test_log_cdf_matches_log_ndtr(self):
        ref = log_ndtr(self.GRID)
        ours = np.array([log_norm_cdf(float(x)) for x in self.GRID])
        normal = np.abs(ref) >= sys.float_info.min
        assert normal.sum() > 190_000
        assert np.max(np.abs(ours[normal] - ref[normal]) / np.abs(ref[normal])) <= 1e-10

    def test_series_boundary(self):
        # -20 itself takes log(Phi(x)); one ulp below takes the series
        below, above = math.nextafter(-20.0, -math.inf), math.nextafter(-20.0, 0.0)
        for x in (below, -20.0, above):
            assert log_norm_cdf(x) == pytest.approx(float(log_ndtr(x)), rel=1e-12)
        assert log_norm_cdf(below) < log_norm_cdf(-20.0) < log_norm_cdf(above)

    def test_special_values(self):
        assert math.isnan(norm_cdf(math.nan)) and math.isnan(log_norm_cdf(math.nan))
        assert norm_cdf(math.inf) == 1.0 and log_norm_cdf(math.inf) == 0.0
        assert norm_cdf(-math.inf) == 0.0 and log_norm_cdf(-math.inf) == -math.inf
        assert log_norm_cdf(-1e200) == -math.inf
        assert norm_cdf(0.0) == 0.5 and log_norm_cdf(0.0) == -math.log(2.0)


class TestNecessaryCondition:
    def test_inside_subspace(self):
        rng = np.random.default_rng(0)
        basis = rng.standard_normal((6, 3))
        cols = basis @ rng.standard_normal((3, 8))
        cols /= np.maximum(np.linalg.norm(cols, axis=0), 1.0)
        grads = GradientMatrix(cols, 1.0)
        inside = basis @ rng.standard_normal(3)
        assert check_necessary_condition([grads], inside) == Verdict.SATISFIED

    def test_existing_column_satisfied(self):
        rng = np.random.default_rng(1)
        cols = rng.standard_normal((5, 4))
        cols /= np.maximum(np.linalg.norm(cols, axis=0), 1.0)
        grads = GradientMatrix(cols, 1.0)
        assert check_necessary_condition([grads], cols[:, 2]) == Verdict.SATISFIED

    def test_escaping_direction_violated(self):
        cols = np.eye(4)[:, :2]
        grads = GradientMatrix(cols, 1.0)
        assert check_necessary_condition([grads], np.eye(4)[:, 3]) == Verdict.VIOLATED

    def test_scale_invariance(self):
        rng = np.random.default_rng(2)
        cols = rng.standard_normal((5, 3))
        cols /= np.maximum(np.linalg.norm(cols, axis=0), 1.0)
        outside = rng.standard_normal(5)
        for scale in (1e-3, 1.0, 1e3):
            grads = GradientMatrix(cols * scale, scale * 10)
            verdict = check_necessary_condition([grads], outside)
            assert verdict == Verdict.VIOLATED


class TestCounterexample:
    def test_minimal_instance_violates_and_distinguishes(self):
        ce = build_counterexample(8, rng=np.random.default_rng(3))
        assert check_necessary_condition(ce.all_gradients(), ce.replacement) == Verdict.VIOLATED
        success = run_distinguisher(ce, 1000, np.random.default_rng(4))
        assert success == 1.0

    def test_flooring_restores_condition_and_blunts_attack(self):
        ce = build_counterexample(8, rng=np.random.default_rng(5))
        floored_sets = []
        for g in ce.helpers:
            model, _ = floor_eigenvalues(estimate_mean_cov(g, 1), 1.0)
            floored_sets.append(np.linalg.cholesky(model.matrix()))
        verdict = check_necessary_condition(floored_sets, ce.replacement)
        assert verdict == Verdict.SATISFIED
        success = run_distinguisher(ce, 20_000, np.random.default_rng(6), floor=1.0)
        assert success < 0.9

    def test_floored_distinguisher_pinned(self):
        # the draw's normals and products are fixed: this rate pins them
        ce = build_counterexample(8, rng=np.random.default_rng(5))
        assert run_distinguisher(ce, 2000, np.random.default_rng(6), floor=1.0) == 0.528

    def test_smallest_legal_dimension(self):
        # quarter = 1 coordinate: the instance still constructs and the
        # last-quarter attack is still perfect (the span verdict needs a
        # quarter of dimension >= 2 to trigger, as in the d=8 case)
        ce = build_counterexample(4, rng=np.random.default_rng(7))
        assert ce.dim == 4
        assert ce.quarter_start == 3
        assert run_distinguisher(ce, 500, np.random.default_rng(8)) == 1.0

    def test_rejects_bad_dimension(self):
        with pytest.raises(BadDimension):
            build_counterexample(6)
        with pytest.raises(BadDimension):
            build_counterexample(0)

    def test_floored_distinguisher_draws_the_tail(self):
        # d = 64: three helpers of 6 gradients each, floored at 1.0 to
        # isotropic models (every eigenvalue 1, 58 of them the tail), sum to
        # 3 I; the noise must still cover every coordinate, exactly as a dense
        # 3 I would
        ce = build_counterexample(64, rng=np.random.default_rng(1))
        models = _floored_models(ce.helpers, ce.batch, 1.0)
        assert all(m.n_components < 64 and np.all(m.spectrum() == 1.0) for m in models)
        agg = sum_covariances(models)
        assert np.array_equal(agg, np.full(64, 3.0))
        success = run_distinguisher(ce, 20_000, np.random.default_rng(3), floor=1.0)
        params = PrivacyParams(clip=ce.clip, batch=ce.batch, delta=1e-3)
        eps = eps_dp_closed_form(agg[-1], params).eps
        assert 2.0 * success - 1.0 <= dp_advantage_bound(eps, params.delta)
        assert success < 0.6

    def test_advantage_respects_accountant_bound(self):
        ce = build_counterexample(8, rng=np.random.default_rng(8))
        trials = 20_000
        success = run_distinguisher(ce, trials, np.random.default_rng(9), floor=1.0)
        advantage = 2.0 * success - 1.0
        params = PrivacyParams(clip=ce.clip, batch=ce.batch, delta=1e-3)
        lam = counterexample_floored_lambda_min(ce, 1.0)
        assert lam >= 3.0 - 1e-9  # three helpers, floor 1 each
        eps = eps_dp_closed_form(lam, params).eps
        limit = dp_advantage_bound(eps, params.delta)
        assert advantage <= limit + 3.0 / math.sqrt(trials)

    @pytest.mark.parametrize("trials", [0, -3])
    def test_rejects_fewer_than_one_trial(self, trials):
        ce = build_counterexample(8, rng=np.random.default_rng(3))
        with pytest.raises(ValueError, match="trials"):
            run_distinguisher(ce, trials, np.random.default_rng(4))

    @pytest.mark.parametrize("floor", [0.0, 1.0])
    @pytest.mark.parametrize("dim", [8, 12, 64])
    def test_blocked_draw_equals_whole(self, dim, floor):
        # trial counts on both sides of one and of several block boundaries:
        # the same rate and the generator left where one whole draw leaves it
        block = _DISTINGUISHER_BLOCK_BYTES // (8 * dim)  # the aggregate has dim components
        for seed in range(6):
            ce = build_counterexample(dim, rng=np.random.default_rng(seed))
            for trials in (1, block - 1, block, block + 1, 3 * block + 7):
                blocked, whole = np.random.default_rng(seed + 10), np.random.default_rng(seed + 10)
                success = run_distinguisher(ce, trials, blocked, floor)
                assert type(success) is float
                assert success == _whole_distinguisher(ce, trials, whole, floor), (seed, trials)
                assert blocked.random() == whole.random(), (seed, trials)

    def test_memory_grows_only_by_the_secrets(self):
        # numpy traces its buffers: from 10,000 to 100,000 trials the peak may
        # grow by the 90,000 extra int64 secrets (10% slack), not by the draws
        ce = build_counterexample(8, rng=np.random.default_rng(5))
        run_distinguisher(ce, 10, np.random.default_rng(0), floor=1.0)
        peaks = []
        for trials in (10_000, 100_000):
            tracemalloc.start()
            try:
                run_distinguisher(ce, trials, np.random.default_rng(6), floor=1.0)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= 1.1 * 8 * 90_000


class TestCertifyClosedForm:
    def test_randomized_instances_all_pass(self):
        reports = certify_closed_form(60, np.random.default_rng(10))
        summary = summarize_reports(reports)
        assert summary["total"] == 60
        assert summary["sound"]
        assert summary["worst_margin"] >= -1e-9

    def test_margin_grows_with_inflated_spectrum(self):
        # one fixed instance; scaling the aggregate spectrum up must loosen
        # the bound faster than the exact delta decays
        rng = np.random.default_rng(11)
        params = PrivacyParams(clip=1.0, batch=2, local_size=8, ns_users=3, delta=1e-3)
        cols = rng.standard_normal((3, 8))
        cols /= np.linalg.norm(cols, axis=0)
        grads = GradientMatrix(cols, 1.0)
        base, _ = floor_eigenvalues(estimate_mean_cov(grads, 2), 0.05)

        def margin(scale):
            agg = sum_covariances([base] * 3)
            lam = agg[-1] * scale
            eps = eps_dp_closed_form(lam, params).eps
            sens = 2 * params.clip / params.batch / math.sqrt(lam)
            return params.delta - analytic_gaussian_delta(sens, 1.0, eps)

        assert margin(100.0) > margin(1.0)

    def test_extremal_pair_still_dominated(self):
        rng = np.random.default_rng(12)
        params = PrivacyParams(clip=1.0, batch=10, local_size=8, ns_users=4, delta=1e-3)
        models = []
        for _ in range(4):
            cols = rng.standard_normal((4, 8))
            cols /= np.linalg.norm(cols, axis=0)
            model, _ = floor_eigenvalues(estimate_mean_cov(GradientMatrix(cols, 1.0), 10), 0.06)
            models.append(model)
        agg = sum_covariances(models)
        lam = agg[-1]
        bound = eps_dp_closed_form(lam, params)
        assert bound.region.value == "high"
        # worst case: difference of 2C/B aligned with the minimal eigenvector
        sens = (2 * params.clip / params.batch) / math.sqrt(lam)
        exact = analytic_gaussian_delta(sens, 1.0, bound.eps)
        assert exact <= params.delta + 1e-9

    def test_extremal_pair_dominates_random_pairs(self):
        # on the suite's own instances (those `aggnoise verify --seed 7`
        # reports), no random substitution pair's whitened sensitivity
        # exceeds the extremal pair's, which is why the suite evaluates only
        # the extremal pair
        pairs = 10_000
        pair_rng = np.random.default_rng(70)
        ratios = []
        lams = []
        for params, floor, users in closed_form_instances(1000, np.random.default_rng(7)):
            _, total = summed(users, params.batch, floor)
            aggregate = eig_decompose(total)
            lams.append(f"lam={aggregate.spectrum()[-1]:.3e} ")
            chol = np.linalg.cholesky(total)
            clip, dim = params.clip, aggregate.dim
            a = pair_rng.standard_normal((dim, pairs))
            b = pair_rng.standard_normal((dim, pairs))
            a *= clip * pair_rng.random(pairs) / np.linalg.norm(a, axis=0)
            b *= clip * pair_rng.random(pairs) / np.linalg.norm(b, axis=0)
            extremal = (2.0 * clip / params.batch) * aggregate.eigvecs[:, -1]
            diffs = np.column_stack([(a - b) / params.batch, extremal])
            norms = np.linalg.norm(np.linalg.solve(chol, diffs), axis=0)
            ratios.append(norms[:-1].max() / norms[-1])
        assert len(ratios) == 1000
        assert max(ratios) <= 1.0
        suite = certify_closed_form(1000, np.random.default_rng(7))
        assert all(lam in r.descriptor for lam, r in zip(lams, suite))

    def test_low_region_probe_documents_the_printed_gap(self):
        # the low-privacy branch as printed does NOT dominate the exact
        # Gaussian delta for small configured delta; the probe records that
        from aggnoise.verify import probe_low_region

        report = probe_low_region(1e-3)
        assert not report.passed
        assert report.exact > 0.25


class TestCertifyRdp:
    def test_theorem1_dominates_exact_divergence(self):
        reports = certify_rdp(RdpVariant.THEOREM1_RDP, 80, np.random.default_rng(13))
        summary = summarize_reports(reports)
        assert summary["total"] > 0
        assert summary["sound"], f"worst margin {summary['worst_margin']}"

    def test_identical_datasets_give_zero_divergence(self):
        rng = np.random.default_rng(14)
        cols = rng.standard_normal((3, 6))
        cols /= np.linalg.norm(cols, axis=0)
        grads = GradientMatrix(cols, 1.0)
        model, _ = floor_eigenvalues(estimate_mean_cov(grads, 2), 0.1)
        agg = eig_decompose(model.matrix() + model.matrix(), model.mean + model.mean)
        assert renyi_gaussian(2.0, agg, agg) == pytest.approx(0.0, abs=1e-12)

    def test_wfdp_variants_adjudicated(self):
        rng = np.random.default_rng(15)
        outcomes = {}
        for variant in (RdpVariant.WFDP_A, RdpVariant.WFDP_B):
            reports = certify_rdp(variant, 80, rng)
            outcomes[variant] = summarize_reports(reports)
            assert outcomes[variant]["total"] > 0
        # the report is the adjudication artifact; both outcomes must be
        # well-formed regardless of which printed form survives
        for summary in outcomes.values():
            assert set(summary) == {"total", "failures", "pass_rate", "worst_margin", "sound"}

    def test_unsound_bound_is_flagged_not_raised(self):
        bogus = [DominanceReport("synthetic", exact=1.0, bound=0.5)]
        summary = summarize_reports(bogus)
        assert not summary["sound"]
        assert summary["failures"] == 1


class TestStackedSuites:
    """The stacked suites against the per-instance reference, bit for bit."""

    @pytest.mark.parametrize("seed", [0, 7, 11])
    def test_closed_form_matches_per_instance(self, seed):
        stacked = certify_closed_form(300, np.random.default_rng(seed))
        assert as_dicts(stacked) == as_dicts(per_instance_closed_form(300, np.random.default_rng(seed)))

    @pytest.mark.parametrize("variant, seed, n_trials", [
        *(pytest.param(variant, seed, 150, id=f"{variant}-{seed}")
          for variant in (RdpVariant.THEOREM1_RDP, RdpVariant.WFDP_A, RdpVariant.WFDP_B)
          for seed in (3, 7, 11)),
        # past the first stack of 250 trials
        pytest.param(RdpVariant.THEOREM1_RDP, 5, 260, id="RdpVariant.THEOREM1_RDP-5-260-trials"),
    ])
    def test_rdp_matches_per_instance(self, variant, seed, n_trials):
        stacked = certify_rdp(variant, n_trials, np.random.default_rng(seed))
        reference = per_instance_rdp(variant, n_trials, np.random.default_rng(seed))
        assert len(stacked) > 0
        assert as_dicts(stacked) == as_dicts(reference)

    @pytest.mark.parametrize("n_trials", [0, 1, 2, 3])
    def test_few_trials_leave_dimensions_empty(self, n_trials):
        # closed-form instances span d = 2..5 and RDP ones d = 2..4, so up to
        # three (closed form) or two (RDP) trials leave a dimension group empty
        closed = certify_closed_form(n_trials, np.random.default_rng(5))
        assert len(closed) == n_trials
        assert as_dicts(closed) == as_dicts(per_instance_closed_form(n_trials, np.random.default_rng(5)))
        for variant in (RdpVariant.THEOREM1_RDP, RdpVariant.WFDP_A):
            stacked = certify_rdp(variant, n_trials, np.random.default_rng(5))
            reference = per_instance_rdp(variant, n_trials, np.random.default_rng(5))
            assert as_dicts(stacked) == as_dicts(reference)
            assert len(stacked) <= 3 * n_trials

    def test_suites_consume_the_generator_as_the_reference_does(self):
        stacked_rng, reference_rng = np.random.default_rng(9), np.random.default_rng(9)
        certify_closed_form(20, stacked_rng)
        per_instance_closed_form(20, reference_rng)
        for variant in (RdpVariant.THEOREM1_RDP, RdpVariant.WFDP_A, RdpVariant.WFDP_B):
            certify_rdp(variant, 20, stacked_rng)
            per_instance_rdp(variant, 20, reference_rng)
            assert stacked_rng.random() == reference_rng.random()

    @pytest.mark.parametrize(
        "variant", [RdpVariant.THEOREM1_RDP, RdpVariant.WFDP_A, RdpVariant.WFDP_B]
    )
    def test_stacked_bounds_equal_rdp_bound(self, variant):
        # each instance's context (THEOREM1_RDP) or N sigma^2 (WFDP) sits at a multiple of
        # a denominator's zero, so rows hold finite bounds, orders outside the interval,
        # denominators <= 0 at and next to the edge, and contexts <= 0
        rng = np.random.default_rng(21)
        theorem1 = variant is RdpVariant.THEOREM1_RDP
        alphas = (1.5, 2.0, 4.0)
        factors = (-1.0, 0.0, 0.5, 1.0, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0), 1.7, 3.0, 40.0)
        params, context = [], []
        for factor in factors:
            for _ in range(12):
                clip, batch = float(0.5 + rng.random()), int(rng.integers(1, 5))
                count, n_users = int(rng.integers(5, 11)), int(rng.integers(2, 6))
                alpha = alphas[int(rng.integers(0, len(alphas)))]
                if theorem1:
                    zero = alpha * clip * clip / count
                else:
                    zero = 2.0 * alpha * clip * clip / (count * n_users)
                    if variant is RdpVariant.WFDP_B and rng.random() < 0.5:
                        zero /= batch
                value = zero * factor
                if not theorem1 and value < 0:
                    continue  # a floor is >= 0
                params.append(PrivacyParams(clip=clip, batch=batch, local_size=count,
                                            ns_users=n_users, floor=0.0 if theorem1 else value))
                context.append(value if theorem1 else None)
        stacked = _stacked_bounds(params, variant, alphas, np.array(context) if theorem1 else None)
        assert stacked.shape == (len(params), len(alphas))
        for row, p, lam in zip(stacked, params, context):
            assert np.array_equal(row, rdp_bound(np.asarray(alphas), p, variant, lam))
            assert row.tolist() == [rdp_bound(a, p, variant, lam) for a in alphas]
        assert np.isinf(stacked).any() and np.isfinite(stacked).any()
        if theorem1:
            assert np.isinf(stacked[np.array(context) <= 0]).all()

    def test_estimates_check_each_draw_against_its_own_clip(self):
        # a draw over its own trial's clip is rejected even when a larger clip shares its stack
        rng = np.random.default_rng(4)
        long = _random_clipped_columns(3, 5, 2.0, rng, 0.6, 0.4)  # norms in [1.2, 2]
        short = _random_clipped_columns(3, 5, 1.0, rng, 0.6, 0.4)
        small, large = (PrivacyParams(clip=clip, batch=1, local_size=5) for clip in (1.0, 2.0))
        _estimates([_Trial(small, [short]), _Trial(large, [long])], lambda t: t.users)
        with pytest.raises(ValueError, match=r"exceeds clip bound 1\b"):
            _estimates([_Trial(small, [long]), _Trial(large, [short])], lambda t: t.users)

    def test_estimates_read_each_trial_s_batch_and_floor(self):
        rng = np.random.default_rng(6)
        trials = [
            _Trial(PrivacyParams(clip=1.0, batch=batch, local_size=5, floor=floor),
                   [_random_clipped_columns(3, 5, 1.0, rng, 0.6, 0.4) for _ in range(users)])
            for batch, floor, users in ((1, 0.0, 2), (3, 0.05, 1), (2, 0.01, 3))
        ]
        models = _estimates(trials, lambda t: t.users)
        member = 0
        for t in trials:
            for g in t.users:
                alone, _ = floor_eigenvalues(
                    estimate_mean_cov(GradientMatrix(g, t.params.clip), t.params.batch), t.params.floor
                )
                for stacked, one in ((models.mean[member], alone.mean),
                                     (models.eigvals[member], alone.eigvals),
                                     (models.eigvecs[member], alone.eigvecs)):
                    assert np.array_equal(stacked, one)
                member += 1
        assert member == models.mean.shape[0] == 6

    def test_suites_do_not_import_numpy_ma(self):
        # np.unique imports numpy.ma; nothing on the verify path needs it
        code = (
            "import sys\n"
            "import numpy as np\n"
            "from aggnoise.accountant import RdpVariant\n"
            "from aggnoise.verify import certify_closed_form, certify_rdp\n"
            "rng = np.random.default_rng(3)\n"
            "assert certify_closed_form(5, rng)\n"
            "for variant in (RdpVariant.THEOREM1_RDP, RdpVariant.WFDP_A, RdpVariant.WFDP_B):\n"
            "    assert certify_rdp(variant, 5, rng)\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        src = os.path.dirname(os.path.dirname(aggnoise.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert out.stdout == "False\n"

    def test_rejects_unadjudicated_variant(self):
        with pytest.raises(ValueError):
            certify_rdp(RdpVariant.GAUSSIAN, 1, np.random.default_rng(0))


class TestFlooredSum:
    """The one estimate -> floor -> sum path of the harnesses, against a dense sum."""

    @pytest.mark.parametrize("floor", [0.0, 0.05])
    def test_matches_hand_summed_floored_estimates(self, floor):
        rng = np.random.default_rng(16)
        sets = []
        for _ in range(3):
            cols = rng.standard_normal((4, 3))
            sets.append(GradientMatrix(cols / np.linalg.norm(cols, axis=0), 1.0))
        total = np.zeros((4, 4))
        for g in sets:
            model = estimate_mean_cov(g, 2)
            if floor > 0:
                model, _ = floor_eigenvalues(model, floor)
            total += model.matrix()
        expected = float(np.linalg.eigvalsh(total)[0])
        lam_min = sum_covariances(_floored_models(sets, 2, floor))[-1]
        assert lam_min == pytest.approx(expected, rel=1e-10, abs=1e-14)
        assert lam_min >= 3 * floor - 1e-12


class TestDominanceReport:
    def test_margin_and_slack(self):
        assert DominanceReport("x", exact=1.0, bound=1.0).passed
        assert DominanceReport("x", exact=1.0, bound=1.0 - 5e-10).passed
        assert not DominanceReport("x", exact=1.0, bound=0.9).passed
