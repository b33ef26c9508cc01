"""Accountant formulas against hand-evaluated and grid-search oracles.

Expected constants below were derived independently (high-precision arithmetic
on the stated formulas, or dense grid search for the optimized orders) and
frozen, so a regression in the implementation cannot hide behind itself.
"""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aggnoise import accountant

from aggnoise.accountant import (
    ROUTES,
    WARN_MEANINGLESS_DELTA,
    WARN_MIXED_VARIANTS,
    WARN_REGIME,
    CompositionMode,
    LedgerEntry,
    PrivacyParams,
    RdpCurve,
    RdpVariant,
    Region,
    RoundLedger,
    account_round,
    compose,
    curve_eps,
    delta_approx_gaussian,
    delta_validity_limit,
    eps_dp_closed_form,
    optimize_alpha,
    rdp_bound,
    rdp_to_dp,
    round_eps,
)
from aggnoise.errors import (
    DeltaOutOfRegion,
    EmptyLedger,
    EmptyValidityInterval,
    LedgerOrderError,
    NoDpGuarantee,
    NonPositiveLambda,
)

WINE = PrivacyParams(clip=2.0, batch=100, local_size=400, ns_users=5, delta=1e-3)


class TestClosedForm:
    def test_high_region_wine_parameters(self):
        # independent evaluation: 2*2*sqrt(2 ln 1250) / (100 * 0.5)
        bound = eps_dp_closed_form(0.25, WINE)
        assert bound.region is Region.HIGH
        assert bound.eps == pytest.approx(0.302118362613, abs=1e-9)
        assert bound.delta_bound == 1.0
        assert bound.warnings == ()

    def test_low_region_formula(self):
        bound = eps_dp_closed_form(1e-4, WINE)
        assert bound.region is Region.LOW
        assert bound.eps == pytest.approx(8.0)  # max(1, 2*4 / (1e4 * 1e-4))
        assert bound.delta_bound == pytest.approx(delta_validity_limit(8.0))

    def test_low_region_clamps_at_one(self):
        # lambda just under the region threshold -> formula value < 1 -> clamp
        root = math.sqrt(2.0 * math.log(1.25 / WINE.delta))
        lambda_0 = 4.0 * 4.0 * root / 100.0**2
        bound = eps_dp_closed_form(lambda_0 * 0.999, WINE)
        assert bound.region is Region.LOW
        assert bound.eps == 1.0

    def test_iid_sqrt_scaling(self):
        p5 = PrivacyParams(clip=2.0, batch=100, delta=1e-3, ns_users=5)
        p20 = PrivacyParams(clip=2.0, batch=100, delta=1e-3, ns_users=20)
        # the IID case: the aggregate's eigenvalue is N times one user's
        e5 = eps_dp_closed_form(0.05 * p5.ns_users, p5).eps
        e20 = eps_dp_closed_form(0.05 * p20.ns_users, p20).eps
        assert e20 / e5 == pytest.approx(0.5, abs=1e-12)

    def test_regime_warning_not_branch_switch(self):
        # tiny lambda still above lambda_0 thanks to a tiny clip: high region
        p = PrivacyParams(clip=0.05, batch=1, delta=1e-3)
        root = math.sqrt(2.0 * math.log(1.25 / p.delta))
        lambda_0 = 4.0 * p.clip**2 * root
        lam = lambda_0 * 1.5
        bound = eps_dp_closed_form(lam, p)
        assert bound.region is Region.HIGH
        assert bound.eps >= 1.0
        assert WARN_REGIME in bound.warnings

    def test_delta_out_of_region(self):
        p = PrivacyParams(clip=2.0, batch=100, delta=0.49)
        root = math.sqrt(2.0 * math.log(1.25 / 0.49))
        lambda_0 = 4.0 * 4.0 * root / 1e4
        with pytest.raises(DeltaOutOfRegion):
            eps_dp_closed_form(lambda_0 * 0.5, p)

    def test_rejects_nonpositive_lambda(self):
        with pytest.raises(NonPositiveLambda):
            eps_dp_closed_form(0.0, WINE)

    def test_strictly_decreasing_within_regions(self):
        highs = [eps_dp_closed_form(lam, WINE).eps for lam in (0.1, 0.2, 0.4, 0.8)]
        assert all(b < a for a, b in zip(highs, highs[1:]))
        lows = [eps_dp_closed_form(lam, WINE).eps for lam in (1e-5, 2e-5, 4e-5)]
        assert all(b < a for a, b in zip(lows, lows[1:]))

    def test_low_region_reciprocal_scaling(self):
        # 1/N scaling in the (unclamped) low region at N times one user's eigenvalue
        p2 = PrivacyParams(clip=2.0, batch=100, delta=1e-3, ns_users=2)
        p4 = PrivacyParams(clip=2.0, batch=100, delta=1e-3, ns_users=4)
        lam0 = 1e-5
        e2 = eps_dp_closed_form(lam0 * p2.ns_users, p2).eps
        e4 = eps_dp_closed_form(lam0 * p4.ns_users, p4).eps
        assert e4 / e2 == pytest.approx(0.5, abs=1e-12)


class TestDeltaApproxGaussian:
    def test_inflation_example(self):
        p = PrivacyParams(clip=1.0, batch=1, delta=1e-3, approx_gauss_delta0=1e-4)
        out = delta_approx_gaussian(1.0, p)
        assert out == pytest.approx(1e-3 + (1.0 + math.e) * 1e-4, rel=1e-12)
        assert out < 1.0

    def test_zero_delta0_is_noop(self):
        p = PrivacyParams(clip=1.0, batch=1, delta=1e-3)
        assert delta_approx_gaussian(5.0, p) == 1e-3

    def test_flags_meaningless_total(self):
        p = PrivacyParams(clip=1.0, batch=1, delta=0.5, approx_gauss_delta0=0.1)
        out = delta_approx_gaussian(10.0, p)
        assert out >= 1.0
        # the closed form's round carries the total and flags it, not rejects it
        entry = account_round(10.0, dataclasses.replace(p, approx_gauss_delta0=0.3),
                              ROUTES["closed_form:general"])
        assert entry.delta_total >= 1.0 and entry.eps < math.inf
        assert entry.warnings[-1] == WARN_MEANINGLESS_DELTA


class TestPrivacyParams:
    @pytest.mark.parametrize("field, value", [
        ("clip", math.nan), ("clip", math.inf), ("batch", math.nan), ("local_size", math.nan),
        ("ns_users", math.nan), ("delta", math.nan), ("approx_gauss_delta0", math.nan),
        ("approx_gauss_delta0", math.inf), ("floor", math.nan), ("floor", math.inf),
        ("floor", -0.1),
    ])
    def test_rejects_non_finite_or_out_of_range(self, field, value):
        with pytest.raises(ValueError, match=field):
            PrivacyParams(**{"clip": 1.0, "batch": 1, field: value})

    def test_accepts_finite_values(self):
        p = PrivacyParams(clip=1.0, batch=1, approx_gauss_delta0=0.0, floor=0.0)
        assert p.floor == 0.0 and p.approx_gauss_delta0 == 0.0

    @pytest.mark.parametrize("field", ["rounds", "sampling_ratio"])
    def test_has_no_field_that_no_bound_reads(self, field):
        with pytest.raises(TypeError, match=field):
            PrivacyParams(**{"clip": 1.0, "batch": 1, field: 1})

    def test_round_trips_through_its_dict(self):
        p = PrivacyParams(clip=2.0, batch=100, local_size=7, ns_users=3, delta=1e-3,
                          approx_gauss_delta0=1e-6, floor=0.05)
        assert set(p.to_dict()) == {f.name for f in dataclasses.fields(PrivacyParams)}
        assert PrivacyParams.from_dict(json.loads(json.dumps(p.to_dict()))) == p

    # the keys older ledgers stored beside the current ones
    @pytest.mark.parametrize("old", [
        {"rounds": 7}, {"sampling_ratio": 1.0}, {"sampling_ratio": 1},
        {"rounds": 1, "sampling_ratio": 1.0},
    ], ids=["rounds", "unamplified", "unamplified-int", "both"])
    def test_reads_an_old_ledgers_params(self, old):
        p = PrivacyParams(clip=2.0, batch=100, delta=1e-3, floor=0.05)
        d = {**p.to_dict(), **old}
        assert PrivacyParams.from_dict(d) == p
        assert set(d) == set(p.to_dict()) | set(old)  # the caller's dict is left whole

    @pytest.mark.parametrize("q", [0.5, 0.0, 2.0, math.nan, None, "1.0"],
                             ids=["amplified", "zero", "above-one", "nan", "null", "string"])
    def test_refuses_an_old_ledger_that_amplified(self, q):
        d = {**PrivacyParams(clip=2.0, batch=100).to_dict(), "sampling_ratio": q}
        with pytest.raises(ValueError, match="sampling_ratio"):
            PrivacyParams.from_dict(d)


RDP_PARAMS = PrivacyParams(clip=1.0, batch=10, local_size=100, ns_users=50,
                           delta=1e-5, floor=0.01)
VARIANT_CONTEXTS = [(RdpVariant.THEOREM1_RDP, 0.5), (RdpVariant.WFDP_A, None),
                    (RdpVariant.WFDP_B, None), (RdpVariant.GAUSSIAN, 0.5)]


class TestRdpBound:
    def test_theorem1_hand_value(self):
        val = rdp_bound(2.0, RDP_PARAMS, RdpVariant.THEOREM1_RDP, sum_lambda_min=0.5)
        assert val == pytest.approx(0.024 / 0.48, rel=1e-12)  # = 0.05

    def test_wfdp_a_hand_value(self):
        val = rdp_bound(2.0, RDP_PARAMS, RdpVariant.WFDP_A)
        assert val == pytest.approx(0.044 / 0.46, rel=1e-12)

    def test_wfdp_b_hand_value_documents_print_discrepancy(self):
        val = rdp_bound(2.0, RDP_PARAMS, RdpVariant.WFDP_B)
        assert val == pytest.approx(0.0044 / 0.496, rel=1e-12)
        # the two printed forms disagree by roughly an order of magnitude
        ratio = rdp_bound(2.0, RDP_PARAMS, RdpVariant.WFDP_A) / val
        assert 8 < ratio < 12

    def test_out_of_range_is_infinite(self):
        assert rdp_bound(30.0, RDP_PARAMS, RdpVariant.WFDP_A) == math.inf
        assert rdp_bound(0.5, RDP_PARAMS, RdpVariant.WFDP_A) == math.inf
        assert rdp_bound(1e9, RDP_PARAMS, RdpVariant.THEOREM1_RDP, sum_lambda_min=0.5) == math.inf

    def test_vectorized_orders(self):
        vals = rdp_bound(np.array([2.0, 30.0]), RDP_PARAMS, RdpVariant.WFDP_A)
        assert np.isfinite(vals[0]) and np.isinf(vals[1])

    @pytest.mark.parametrize("variant, context", VARIANT_CONTEXTS)
    def test_scalar_path_equals_array_element(self, variant, context):
        lo, hi = accountant.alpha_validity(RDP_PARAMS, variant, context)
        top = hi if math.isfinite(hi) else 1e6
        inside = [lo + frac * (top - lo) for frac in (1e-9, 1e-3, 0.1, 0.37, 0.5, 0.9, 1.0 - 1e-9)]
        inside += [np.nextafter(lo, math.inf), np.nextafter(top, -math.inf), 2.0, 16.45]
        edges = [lo, hi, np.nextafter(lo, -math.inf), np.nextafter(hi, math.inf), 0.5]
        for a in inside + edges:
            scalar = rdp_bound(float(a), RDP_PARAMS, variant, context)
            element = rdp_bound(np.array([a]), RDP_PARAMS, variant, context)[0]
            assert type(scalar) is float
            assert scalar == element, a
        for a in edges:
            assert rdp_bound(float(a), RDP_PARAMS, variant, context) == math.inf

    @given(frac=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=100, deadline=None)
    def test_scalar_path_equals_array_element_anywhere(self, frac):
        for variant, context in VARIANT_CONTEXTS:
            lo, hi = accountant.alpha_validity(RDP_PARAMS, variant, context)
            a = lo + frac * (min(hi, 1e6) - lo)
            assert rdp_bound(a, RDP_PARAMS, variant, context) == rdp_bound(
                np.array([a]), RDP_PARAMS, variant, context
            )[0]

    @pytest.mark.parametrize("context", [None, 0.0, -0.5])
    def test_gaussian_without_positive_lambda_raises_on_both_paths(self, context):
        for alpha in (2.0, 0.5, np.array([2.0]), np.array([0.5])):
            with pytest.raises(NonPositiveLambda):
                rdp_bound(alpha, RDP_PARAMS, RdpVariant.GAUSSIAN, context)

    @given(frac=st.floats(min_value=1e-6, max_value=1.0 - 1e-6))
    @settings(max_examples=60, deadline=None)
    def test_curve_finite_positive_inside_interval(self, frac):
        for variant, context in ((RdpVariant.WFDP_A, None), (RdpVariant.WFDP_B, None),
                                 (RdpVariant.THEOREM1_RDP, 0.5)):
            curve = RdpCurve(variant, RDP_PARAMS, sum_lambda_min=context)
            lo, hi = curve.alpha_interval()
            alpha = lo + frac * (hi - lo)
            if lo < alpha < hi:
                value = float(curve(alpha))
                assert math.isfinite(value) and value > 0

    def test_monotone_decreasing_in_users_and_floor(self):
        for n in (50, 100):
            more = PrivacyParams(clip=1.0, batch=10, local_size=100, ns_users=2 * n,
                                 delta=1e-5, floor=0.01)
            less = PrivacyParams(clip=1.0, batch=10, local_size=100, ns_users=n,
                                 delta=1e-5, floor=0.01)
            for variant in (RdpVariant.WFDP_A, RdpVariant.WFDP_B):
                assert rdp_bound(2.0, more, variant) < rdp_bound(2.0, less, variant)
        big_floor = PrivacyParams(clip=1.0, batch=10, local_size=100, ns_users=50,
                                  delta=1e-5, floor=0.02)
        assert rdp_bound(2.0, big_floor, RdpVariant.WFDP_A) < rdp_bound(
            2.0, RDP_PARAMS, RdpVariant.WFDP_A
        )


class TestRdpToDp:
    def test_hand_value(self):
        assert rdp_to_dp(2.0, 0.05, 1e-5) == pytest.approx(0.05 + math.log(1e5), rel=1e-12)

    def test_ln_e_case(self):
        assert rdp_to_dp(2.0, 0.0, 1.0 / math.e) == pytest.approx(1.0, rel=1e-12)

    def test_large_alpha_limit(self):
        assert rdp_to_dp(1e9, 0.125, 1e-5) == pytest.approx(0.125, abs=1e-6)


class TestOptimizeAlpha:
    def test_grid_search_oracle(self):
        curve = RdpCurve(RdpVariant.WFDP_A, RDP_PARAMS)
        alpha_star, eps_star = optimize_alpha(curve, 1e-5)
        # frozen from an independent 2*10^5-point dense grid search
        assert eps_star == pytest.approx(1.06210, abs=2e-4)
        assert alpha_star == pytest.approx(16.45, abs=0.2)

    def test_degenerate_interval(self):
        # N sigma^2 D = 2 C^2 exactly: upper bound hits 1
        p = PrivacyParams(clip=1.0, batch=10, local_size=100, ns_users=2,
                          delta=1e-5, floor=0.01)
        curve = RdpCurve(RdpVariant.WFDP_A, p)
        with pytest.raises(EmptyValidityInterval):
            optimize_alpha(curve, 1e-5)

    def test_minimizer_dominates_midpoint(self):
        curve = RdpCurve(RdpVariant.WFDP_A, RDP_PARAMS)
        lo, hi = curve.alpha_interval()
        mid = 0.5 * (lo + hi)
        _, eps_star = optimize_alpha(curve, 1e-5)
        assert eps_star <= rdp_to_dp(mid, float(curve(mid)), 1e-5) + 1e-12


def wine_ledger(rounds=50, lam=0.25, composition=CompositionMode.SIMPLE):
    ledger = RoundLedger(WINE, composition)
    for t in range(rounds):
        ledger.append(account_round(lam, WINE, ROUTES["closed_form:general"], round_index=t))
    return ledger


class TestCompose:
    def test_simple_is_additive(self):
        result = compose(wine_ledger())
        assert result.total_eps == pytest.approx(50 * 0.302118362613, rel=1e-9)

    def test_single_round_rdp_equals_optimize(self):
        ledger = RoundLedger(RDP_PARAMS, CompositionMode.RDP)
        ledger.append(account_round(0.0, RDP_PARAMS, ROUTES["wfdp_a"], round_index=0))
        result = compose(ledger)
        _, eps_star = optimize_alpha(RdpCurve(RdpVariant.WFDP_A, RDP_PARAMS), RDP_PARAMS.delta)
        assert result.total_eps == pytest.approx(eps_star, rel=1e-9)

    def test_rdp_below_simple_on_wine_instance(self):
        simple = compose(wine_ledger(composition=CompositionMode.SIMPLE))
        rdp = compose(wine_ledger(composition=CompositionMode.RDP))
        assert rdp.total_eps < simple.total_eps

    def test_permutation_invariance(self):
        lams = [0.25, 0.5, 1.0, 2.0]
        def total(order):
            ledger = RoundLedger(WINE)
            for t, lam in enumerate(order):
                ledger.append(account_round(lam, WINE, ROUTES["closed_form:general"],
                                            round_index=t))
            return compose(ledger).total_eps
        assert total(lams) == pytest.approx(total(lams[::-1]), rel=1e-12)

    def test_mixed_variants_warn_but_compose(self):
        ledger = RoundLedger(RDP_PARAMS, CompositionMode.RDP)
        ledger.append(account_round(0.0, RDP_PARAMS, ROUTES["wfdp_a"], round_index=0))
        ledger.append(account_round(0.0, RDP_PARAMS, ROUTES["wfdp_b"], round_index=1))
        result = compose(ledger)
        assert WARN_MIXED_VARIANTS in result.warnings
        assert math.isfinite(result.total_eps)

    def test_empty_ledger(self):
        with pytest.raises(EmptyLedger):
            compose(RoundLedger(WINE))

    def test_composed_eps_nondecreasing_in_rounds(self):
        totals = [compose(wine_ledger(rounds=t)).total_eps for t in (1, 5, 20, 50)]
        assert all(b > a for a, b in zip(totals, totals[1:]))

    @pytest.mark.parametrize("mode", list(CompositionMode))
    def test_refused_round_propagates(self, mode):
        ledger = RoundLedger(WINE, mode)
        ledger.append(
            LedgerEntry(round_index=0, route="refused", lambda_min=0.25, eps=None,
                        cause="no guarantee")
        )
        with pytest.raises(NoDpGuarantee):
            compose(ledger)

    def test_infinite_round_gives_infinite_total(self):
        ledger = RoundLedger(WINE)
        ledger.append(account_round(1.0, WINE, ROUTES["closed_form:general"], round_index=0,
                                    cause="necessary condition violated"))
        result = compose(ledger)
        assert math.isinf(result.total_eps)


def wfdp_a_eps(alpha, p):
    """Variant-A RDP bound written out from the formula, inside its validity range."""
    c2, b, d = p.clip**2, p.batch, p.local_size
    num = 2.0 * alpha * b * c2 / d**2 + 2.0 * alpha * c2 / ((alpha - 1.0) * d)
    return num / (p.ns_users * p.floor - 2.0 * alpha * c2 / d)


def dense_grid_min(objective, lo, hi):
    """Minimum of a unimodal objective on (lo, hi) by repeatedly refined dense grids."""
    span = hi - lo
    grid = lo + np.geomspace(1e-9 * span, (1.0 - 1e-12) * span, 100_000)
    values = objective(grid)
    while True:
        i = int(np.argmin(values))
        left, right = grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)]
        if right - left < 1e-14 * right:
            return float(values[i])
        grid = np.linspace(left, right, 2001)
        values = objective(grid)


def curve_ledger(variants, params=RDP_PARAMS, composition=CompositionMode.RDP):
    ledger = RoundLedger(params, composition)
    for t, variant in enumerate(variants):
        ledger.append(account_round(0.0, params, variant, round_index=t))
    return ledger


class CountingList(list):
    iterations = 0

    def __iter__(self):
        CountingList.iterations += 1
        return super().__iter__()


class TestDistinctCurveComposition:
    def test_identical_rounds_match_dense_grid(self):
        rounds = 50
        result = compose(curve_ledger([ROUTES["wfdp_a"]] * rounds))
        hi = RDP_PARAMS.ns_users * RDP_PARAMS.floor * RDP_PARAMS.local_size / (
            2.0 * RDP_PARAMS.clip**2
        )
        log_inv_delta = math.log(1.0 / RDP_PARAMS.delta)
        expected = dense_grid_min(
            lambda a: rounds * wfdp_a_eps(a, RDP_PARAMS) + log_inv_delta / (a - 1.0), 1.0, hi
        )
        assert result.total_eps == pytest.approx(expected, rel=1e-6)

    def test_alternating_curves_match_ungrouped_sum(self):
        variants = [ROUTES["wfdp_a"], ROUTES["wfdp_b"]] * 10
        ledger = curve_ledger(variants)
        result = compose(ledger)
        alpha = result.alpha_star
        ungrouped = 0.0
        for entry in ledger.entries:
            ungrouped += rdp_bound(alpha, RDP_PARAMS, entry.curve.variant)
        ungrouped += math.log(1.0 / RDP_PARAMS.delta) / (alpha - 1.0)
        assert result.total_eps == pytest.approx(ungrouped, rel=1e-12)

    @pytest.mark.parametrize("mode", [CompositionMode.RDP, CompositionMode.SIMPLE])
    def test_rdp_bound_calls_independent_of_rounds(self, monkeypatch, mode):
        calls = 0
        original = accountant.rdp_bound

        def counting(*args, **kwargs):
            nonlocal calls
            calls += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(accountant, "rdp_bound", counting)

        def count_for(rounds):
            nonlocal calls
            curve_eps.cache_clear()
            calls = 0
            compose(curve_ledger([ROUTES["wfdp_a"]] * rounds, composition=mode))
            return calls

        few = count_for(2)
        assert few > 0
        assert count_for(200) == few

    def test_repeated_curve_compose_is_independent_of_rounds(self, monkeypatch):
        calls = 0
        grids = 0
        original, geomspace = accountant.rdp_bound, np.geomspace

        def counting(*args, **kwargs):
            nonlocal calls
            calls += 1
            return original(*args, **kwargs)

        def counting_grid(*args, **kwargs):
            nonlocal grids
            grids += 1
            return geomspace(*args, **kwargs)

        monkeypatch.setattr(accountant, "rdp_bound", counting)
        monkeypatch.setattr(accountant.np, "geomspace", counting_grid)

        def one_compose(rounds, mode=CompositionMode.RDP):
            nonlocal calls, grids
            ledger = curve_ledger([ROUTES["wfdp_a"]] * rounds, composition=mode)
            first = compose(ledger)
            ledger.entries = CountingList(ledger.entries)
            CountingList.iterations = calls = grids = 0
            assert compose(ledger) == first
            assert CountingList.iterations == 0
            assert grids == 0  # the interval is unchanged, so is the grid
            return calls

        few = one_compose(10)
        assert few > 0
        assert one_compose(1000) == few
        # a SIMPLE compose reads the running sum: no curve work
        assert one_compose(10, CompositionMode.SIMPLE) == 0

    def test_kept_grid_values_compose_as_a_fresh_list(self):
        # wfdp_a's values are kept from its second round; theorem1's interval
        # (up to 20, inside wfdp_a's 25) rebuilds the grid midway and drops them
        routes = [ROUTES["wfdp_a"]] * 3 + [ROUTES["theorem1_rdp"], ROUTES["wfdp_a"]] * 2
        ledger = RoundLedger(RDP_PARAMS, CompositionMode.RDP)
        curves, kept, grids = [], [], []
        for t, route in enumerate(routes):
            entry = rdp_entry(t, route, lam=0.2)
            ledger.append(entry)
            curves.append(entry.curve)
            result = compose(ledger)
            fresh = optimize_alpha(curves, RDP_PARAMS.delta)
            assert (result.alpha_star, result.total_eps) == fresh
            grid = ledger.state.order_grid()
            for curve, values in ledger.state._grid_values.items():
                assert np.array_equal(values, curve(grid))
            kept.append(sorted(curve.variant.value for curve in ledger.state._grid_values))
            grids.append(grid)
        assert ledger.state.bounds[1] == 20.0
        assert [grid is grids[0] for grid in grids] == [True] * 3 + [False] * 4
        assert kept == [[], ["wfdp_a"], ["wfdp_a"], ["wfdp_a"], ["wfdp_a"],
                        ["theorem1_rdp", "wfdp_a"], ["theorem1_rdp", "wfdp_a"]]

    def test_distinct_curves_keep_no_grid_values(self):
        ledger = RoundLedger(RDP_PARAMS, CompositionMode.RDP)
        for t in range(8):
            ledger.append(rdp_entry(t, ROUTES["theorem1_rdp"], theorem1_context(t)))
            compose(ledger)
            assert ledger.state._grid_values == {}

    def test_curve_eps_matches_optimize_alpha(self):
        curve = RdpCurve(RdpVariant.WFDP_B, RDP_PARAMS)
        assert curve_eps(curve, 1e-5) == optimize_alpha(curve, 1e-5)[1]


def compose_outcome(ledger):
    """compose's result as comparable data, or the type of the error it raised."""
    try:
        result = compose(ledger)
    except (NoDpGuarantee, EmptyValidityInterval) as exc:
        return type(exc)
    return result.total_eps, result.alpha_star, result.warnings


def listed_outcome(ledger):
    """The composition rule applied to the entries themselves, curve list and all."""
    if ledger.composition is CompositionMode.SIMPLE:
        total = 0.0
        for entry in ledger.entries:
            try:
                eps = round_eps(entry, ledger.params.delta)
            except NoDpGuarantee:
                return NoDpGuarantee
            if math.isinf(eps):
                return math.inf, None, ()
            total += eps
        return total, None, ()
    curves = []
    for entry in ledger.entries:
        if entry.eps is not None and math.isinf(entry.eps):
            return math.inf, None, ()
        try:
            curves.append(accountant._entry_curve(entry, ledger.params))
        except NoDpGuarantee:
            return NoDpGuarantee
    try:
        alpha_star, eps_star = optimize_alpha(curves, ledger.params.delta)
    except EmptyValidityInterval:
        return EmptyValidityInterval
    warnings = (WARN_MIXED_VARIANTS,) if len({c.variant for c in curves}) > 1 else ()
    return eps_star, alpha_star, warnings


def assert_running_state_matches_fresh(entries, mode):
    ledger = RoundLedger(RDP_PARAMS, mode)
    outcomes = []
    for entry in entries:
        ledger.append(entry)
        running = compose_outcome(ledger)
        rebuilt = RoundLedger.from_dict(json.loads(ledger.to_json()))
        assert running == compose_outcome(rebuilt)
        assert running == listed_outcome(ledger)
        outcomes.append(running)
    return outcomes


def rdp_entry(t, route, lam=0.0):
    return account_round(lam, RDP_PARAMS, route, round_index=t)


def theorem1_context(t):
    # each round's upper order bound D * lambda / C^2 is smaller than the last
    return 0.5 - 0.02 * t


class TestRunningComposition:
    @pytest.mark.parametrize("mode", list(CompositionMode))
    def test_repeated_curves(self, mode):
        outcomes = assert_running_state_matches_fresh(
            [rdp_entry(t, ROUTES["wfdp_a"]) for t in range(8)], mode
        )
        totals = [total for total, _, _ in outcomes]
        assert all(b > a for a, b in zip(totals, totals[1:]))

    @pytest.mark.parametrize("mode", list(CompositionMode))
    def test_distinct_theorem1_curves_with_shrinking_interval(self, mode):
        entries = [rdp_entry(t, ROUTES["theorem1_rdp"], theorem1_context(t)) for t in range(8)]
        outcomes = assert_running_state_matches_fresh(entries, mode)
        if mode is CompositionMode.RDP:
            ledger = RoundLedger(RDP_PARAMS, mode)
            for entry in entries:
                ledger.append(entry)
            assert ledger.state.bounds == entries[-1].curve.alpha_interval()
            assert len(ledger.state.curves) == len(entries)
            assert all(alpha < ledger.state.bounds[1] for _, alpha, _ in outcomes)

    @pytest.mark.parametrize("mode", list(CompositionMode))
    def test_mixed_variants(self, mode):
        routes = [ROUTES["wfdp_a"], ROUTES["wfdp_b"], ROUTES["wfdp_a"],
                  ROUTES["closed_form:general"], ROUTES["theorem1_rdp"], ROUTES["wfdp_b"]]
        entries = [rdp_entry(t, route, lam=0.5) for t, route in enumerate(routes)]
        outcomes = assert_running_state_matches_fresh(entries, mode)
        if mode is CompositionMode.RDP:
            assert outcomes[0][2] == ()
            assert all(warnings == (WARN_MIXED_VARIANTS,) for _, _, warnings in outcomes[1:])

    @pytest.mark.parametrize("mode", list(CompositionMode))
    @pytest.mark.parametrize("infinite_first", [True, False])
    def test_first_stopping_entry_decides(self, mode, infinite_first):
        infinite = LedgerEntry(round_index=0, route="closed_form:general", eps=math.inf)
        refused = LedgerEntry(round_index=0, route="refused", lambda_min=0.25,
                              cause="no guarantee")
        stops = [infinite, refused] if infinite_first else [refused, infinite]
        entries = [rdp_entry(0, ROUTES["wfdp_a"])]
        entries += [dataclasses.replace(e, round_index=t + 1) for t, e in enumerate(stops)]
        entries.append(rdp_entry(3, ROUTES["wfdp_b"]))
        outcomes = assert_running_state_matches_fresh(entries, mode)
        if infinite_first:
            assert outcomes[1:] == [(math.inf, None, ())] * 3
        else:
            assert outcomes[1:] == [NoDpGuarantee] * 3

    @pytest.mark.parametrize("mode", list(CompositionMode))
    def test_entry_without_curve_or_lambda(self, mode):
        bare = LedgerEntry(round_index=1, route="closed_form:general", eps=0.3)
        entries = [rdp_entry(0, ROUTES["closed_form:general"], lam=0.5), bare,
                   rdp_entry(2, ROUTES["closed_form:general"], lam=0.5)]
        outcomes = assert_running_state_matches_fresh(entries, mode)
        if mode is CompositionMode.RDP:
            assert outcomes[1:] == [NoDpGuarantee] * 2
        else:
            assert all(isinstance(o, tuple) for o in outcomes)

    def test_simple_ledger_does_no_curve_work(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a SIMPLE ledger built a curve on append")

        monkeypatch.setattr(accountant, "_entry_curve", forbidden)
        ledger = RoundLedger(RDP_PARAMS, CompositionMode.SIMPLE)
        for t in range(3):
            ledger.append(rdp_entry(t, ROUTES["wfdp_a"]))
        assert not ledger.state.curves
        assert ledger.state.bounds == (1.0, math.inf)
        assert compose(ledger).total_eps == ledger.state.total > 0


class TestAccountRound:
    def test_wine_round_entry(self):
        entry = account_round(0.25, WINE, ROUTES["closed_form:general"], round_index=3)
        assert entry.eps == pytest.approx(0.302118362613, abs=1e-9)
        assert entry.region == "high"
        assert entry.round_index == 3

    def test_singular_route_chains_delta_inflation(self):
        p = PrivacyParams(clip=2.0, batch=100, delta=1e-3, approx_gauss_delta0=1e-4)
        entry = account_round(0.25, p, ROUTES["closed_form:singular"])
        expected = 1e-3 + (1.0 + math.exp(entry.eps)) * 1e-4
        assert entry.delta_total == pytest.approx(expected, rel=1e-12)

    def test_meaningless_delta_flagged(self):
        p = PrivacyParams(clip=2.0, batch=100, delta=0.5, approx_gauss_delta0=0.3)
        entry = account_round(0.25, p, ROUTES["closed_form:general"])
        assert entry.delta_total >= 1.0
        assert WARN_MEANINGLESS_DELTA in entry.warnings

    def test_rdp_route_defers_scalar(self):
        entry = account_round(0.0, RDP_PARAMS, ROUTES["wfdp_a"])
        assert entry.eps is None
        assert entry.curve is not None
        assert entry.curve.variant is RdpVariant.WFDP_A


class TestLedger:
    def test_rounds_strictly_increasing(self):
        ledger = wine_ledger(rounds=2)
        with pytest.raises(LedgerOrderError):
            ledger.append(account_round(0.25, WINE, ROUTES["closed_form:general"], round_index=1))

    def test_json_round_trip(self):
        import json

        ledger = RoundLedger(RDP_PARAMS, CompositionMode.RDP)
        ledger.append(account_round(0.0, RDP_PARAMS, ROUTES["wfdp_a"], round_index=0))
        ledger.append(account_round(0.5, RDP_PARAMS, ROUTES["theorem1_rdp"], round_index=1))
        doc = json.loads(ledger.to_json(total_eps=1.23))
        back = RoundLedger.from_dict(doc)
        assert len(back) == 2
        assert back.entries[0].curve.variant is RdpVariant.WFDP_A
        assert back.entries[1].curve.sum_lambda_min == 0.5
        a = compose(ledger)
        b = compose(back)
        assert a.total_eps == pytest.approx(b.total_eps, rel=1e-12)
