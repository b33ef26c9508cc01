"""Ground-truth oracles and adversarial constructions.

Everything the accountant claims is checked here against exact computations
on small instances: the span-membership necessary condition, the
distinguisher counterexample it rules out, the exact Gaussian-mechanism
delta(eps) oracle, and dominance harnesses that pit each bound against the
exact Renyi divergence / exact delta on randomized instances. The harnesses
never throw on a failed comparison; they report, so an unsound printed bound
variant shows up as data rather than a crash.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np
from scipy.special import log_ndtr, ndtr

from .accountant import (
    ClosedFormMode,
    PrivacyParams,
    RdpVariant,
    eps_dp_closed_form,
    rdp_bound,
)
from .errors import BadDimension, DimensionMismatch
from .spectra import (
    CovarianceModel,
    GradientMatrix,
    centered_draws,
    estimate_mean_cov,
    floor_eigenvalues,
    renyi_gaussian,
    span_contains,
    sum_covariances,
)

Array = np.ndarray

MARGIN_SLACK = 1e-9  # absolute numerical slack on dominance margins


class Verdict:
    SATISFIED = "SATISFIED"
    VIOLATED = "VIOLATED"


@dataclass(frozen=True)
class DominanceReport:
    """One exact-vs-bound comparison; passes when bound >= exact - slack."""

    descriptor: str
    exact: float
    bound: float

    @property
    def margin(self) -> float:
        return self.bound - self.exact

    @property
    def passed(self) -> bool:
        return self.margin >= -MARGIN_SLACK

    def to_dict(self) -> dict:
        return {
            "descriptor": self.descriptor,
            "exact": self.exact,
            "bound": self.bound,
            "margin": self.margin,
            "passed": self.passed,
        }


def check_necessary_condition(
    gradient_sets: Sequence[Union[GradientMatrix, Array]],
    replacement: Array,
    tol: float = 1e-8,
) -> str:
    """Span membership of a substituted gradient in the union of all gradients.

    SATISFIED is necessary for any finite-epsilon guarantee: if the
    replacement escapes the span, the aggregate lands in a previously
    zero-probability affine slice and the server can detect the substitution
    outright.
    """
    stacks = []
    for g in gradient_sets:
        cols = g.columns if isinstance(g, GradientMatrix) else np.asarray(g, dtype=float)
        if cols.ndim == 1:
            cols = cols[:, None]
        stacks.append(cols)
    if not stacks:
        raise DimensionMismatch("need at least one gradient set")
    union = np.hstack(stacks)
    if span_contains(union, np.asarray(replacement, dtype=float), tol):
        return Verdict.SATISFIED
    return Verdict.VIOLATED


@dataclass
class Counterexample:
    """The blocked-support worst case: helpers vanish on the last quarter.

    Users 0..n-2 have gradients supported on the leading 3/4 of coordinates,
    the distinguished last user does not, and its two candidate updates differ
    only inside that last quarter (by ``gap`` in L2). Without extra noise, the
    aggregate's last-quarter coordinates betray the candidate exactly.
    """

    helpers: list[GradientMatrix]
    candidate_a: Array
    candidate_b: Array
    replacement: Array
    quarter_start: int
    clip: float
    batch: int

    @property
    def dim(self) -> int:
        return self.candidate_a.shape[0]

    def all_gradients(self) -> list[GradientMatrix]:
        last = np.column_stack([self.candidate_a])
        return self.helpers + [GradientMatrix(last, self.clip)]


def build_counterexample(
    dim: int,
    n_users: int = 4,
    rng: Optional[np.random.Generator] = None,
    clip: float = 1.0,
    gap: float = 0.1,
    helper_count: int = 6,
) -> Counterexample:
    """Construct the instance on which span membership fails.

    ``dim`` must be divisible by 4. The distinguished user holds one gradient
    column with mass in the last quarter; the replacement candidate shifts it
    by ``gap`` inside the quarter, which no combination of the helpers'
    gradients can mimic.
    """
    if dim < 4 or dim % 4 != 0:
        raise BadDimension(f"dim must be a positive multiple of 4, got {dim}")
    if n_users < 2:
        raise BadDimension("need at least one helper plus the distinguished user")
    rng = np.random.default_rng(0) if rng is None else rng
    q_start = dim - dim // 4
    helpers = []
    for _ in range(n_users - 1):
        cols = rng.standard_normal((dim, helper_count))
        cols[q_start:, :] = 0.0
        norms = np.linalg.norm(cols, axis=0)
        cols = cols * (0.9 * clip / np.maximum(norms, 1e-12))
        helpers.append(GradientMatrix(cols, clip))
    base = rng.standard_normal(dim)
    base[q_start:] = np.abs(base[q_start:]) + 0.5  # keep clear quarter mass
    base = base * (0.8 * clip / np.linalg.norm(base))
    shift = np.zeros(dim)
    quarter = rng.standard_normal(dim // 4)
    shift[q_start:] = gap * quarter / np.linalg.norm(quarter)
    cand_b = base + shift
    if np.linalg.norm(cand_b) > clip:
        cand_b = cand_b * (clip / np.linalg.norm(cand_b))
        shift = cand_b - base
    return Counterexample(
        helpers=helpers,
        candidate_a=base,
        candidate_b=cand_b,
        replacement=cand_b,
        quarter_start=q_start,
        clip=clip,
        batch=1,
    )


def _floored_sum(
    gradient_sets: Sequence[GradientMatrix], batch: int, floor: float
) -> CovarianceModel:
    """Sum of the users' estimated models, each floored at ``floor`` when it is > 0."""
    models = []
    for g in gradient_sets:
        model = estimate_mean_cov(g, batch)
        if floor > 0:
            model, _ = floor_eigenvalues(model, floor)
        models.append(model)
    return sum_covariances(models)


def run_distinguisher(
    instance: Counterexample,
    trials: int,
    rng: np.random.Generator,
    floor: float = 0.0,
) -> float:
    """Empirical success rate of the last-quarter distinguisher.

    Helpers emit Gaussian updates from their (optionally floored) estimated
    models; the distinguished user sends one of the two candidates uniformly.
    The attack looks only at the aggregate's last-quarter coordinates and
    picks the nearer candidate. Returns the fraction of correct guesses.
    """
    q = instance.quarter_start
    agg_model = _floored_sum(instance.helpers, instance.batch, floor)
    mean_q = agg_model.mean[q:]
    secret = rng.integers(0, 2, size=trials)
    noise = centered_draws(agg_model, trials, rng, slice(q, None))
    cand = np.where(
        secret[:, None] == 0,
        instance.candidate_a[None, q:],
        instance.candidate_b[None, q:],
    )
    observed = noise + mean_q[None, :] + cand
    da = np.linalg.norm(observed - mean_q[None, :] - instance.candidate_a[None, q:], axis=1)
    db = np.linalg.norm(observed - mean_q[None, :] - instance.candidate_b[None, q:], axis=1)
    guess = (db < da).astype(int)
    return float(np.mean(guess == secret))


def dp_advantage_bound(eps: float, delta: float) -> float:
    """Largest distinguishing advantage an (eps, delta)-DP output allows:
    (e^eps - 1 + 2 delta) / (e^eps + 1)."""
    return (math.expm1(eps) + 2.0 * delta) / (math.exp(eps) + 1.0)


def counterexample_floored_lambda_min(instance: Counterexample, floor: float) -> float:
    """Exact smallest eigenvalue of the helpers' summed floored covariance."""
    return _floored_sum(instance.helpers, instance.batch, floor).lambda_min()


def analytic_gaussian_delta(sensitivity: float, noise_std: float, eps: float) -> float:
    """Exact delta(eps) of the Gaussian mechanism (hockey-stick divergence).

    delta = Phi(D/(2s) - eps s/D) - e^eps Phi(-D/(2s) - eps s/D) for
    sensitivity D > 0 and noise scale s; identically 0 at D = 0. Evaluated in
    log space so the e^eps * Phi(...) product stays accurate far in the tail.
    """
    if sensitivity < 0:
        raise ValueError(f"sensitivity must be >= 0, got {sensitivity}")
    if not noise_std > 0:
        raise ValueError(f"noise_std must be positive, got {noise_std}")
    if eps < 0:
        raise ValueError(f"eps must be >= 0, got {eps}")
    if sensitivity == 0.0:
        return 0.0
    a = sensitivity / (2.0 * noise_std)
    b = eps * noise_std / sensitivity
    first = ndtr(a - b)
    second = math.exp(eps + log_ndtr(-a - b))
    return max(float(first - second), 0.0)


def _random_clipped_columns(
    dim: int, count: int, clip: float, rng: np.random.Generator
) -> GradientMatrix:
    cols = rng.standard_normal((dim, count))
    norms = np.linalg.norm(cols, axis=0)
    scales = clip * (0.6 + 0.4 * rng.random(count)) / norms
    return GradientMatrix(cols * scales, clip)


def certify_closed_form(
    n_trials: int,
    rng: np.random.Generator,
    pair_samples: int = 10_000,
) -> list[DominanceReport]:
    """Exact delta never exceeds the configured delta at the claimed epsilon.

    Each trial builds an aggregate Gaussian from floored per-user models,
    takes the accountant's per-round epsilon, computes the worst whitened
    sensitivity over ``pair_samples`` random substitution pairs plus the
    analytically extremal pair (2C/B along the minimal eigenvector), and
    evaluates the exact Gaussian delta at that sensitivity.
    """
    reports = []
    for trial in range(n_trials):
        dim = int(rng.integers(2, 6))
        n_users = int(rng.integers(2, 7))
        count = int(rng.integers(max(dim, 4), 11))
        batch = int(rng.integers(1, 5))
        clip = float(0.5 + 1.5 * rng.random())
        delta = float(rng.choice([1e-3, 1e-4]))
        params = PrivacyParams(clip=clip, batch=batch, local_size=count,
                               ns_users=n_users, delta=delta)
        # the floor keeps every instance in the high-privacy branch, which is
        # where the closed form claims arbitrary delta; probe_low_region()
        # documents what happens to the other branch
        root = math.sqrt(2.0 * math.log(1.25 / delta))
        lambda_0 = 4.0 * clip * clip * root / (batch * batch)
        floor = lambda_0 / n_users * float(rng.choice([1.05, 2.0, 5.0, 20.0]))
        users = [_random_clipped_columns(dim, count, clip, rng) for _ in range(n_users)]
        aggregate = _floored_sum(users, batch, floor)
        # count >= dim, so every estimate and the sum are full-dimension and
        # the last stored eigenvector is the smallest eigenvalue's
        assert aggregate.n_components == dim
        lam_min = aggregate.lambda_min()
        bound = eps_dp_closed_form(lam_min, params, ClosedFormMode.GENERAL)

        chol = np.linalg.cholesky(aggregate.matrix())
        limit = 2.0 * clip / batch
        a = rng.standard_normal((dim, pair_samples))
        b = rng.standard_normal((dim, pair_samples))
        a *= clip * rng.random(pair_samples) / np.linalg.norm(a, axis=0)
        b *= clip * rng.random(pair_samples) / np.linalg.norm(b, axis=0)
        diffs = (a - b) / batch
        extremal = limit * aggregate.eigvecs[:, -1]
        diffs = np.column_stack([diffs, extremal])
        w = np.linalg.solve(chol, diffs)
        sensitivity = float(np.linalg.norm(w, axis=0).max())
        exact = analytic_gaussian_delta(sensitivity, 1.0, bound.eps)
        reports.append(
            DominanceReport(
                descriptor=(
                    f"closed_form trial={trial} d={dim} N={n_users} D={count} "
                    f"B={batch} C={clip:.3f} delta={delta:g} region={bound.region.value} "
                    f"lam={lam_min:.3e} eps={bound.eps:.4f}"
                ),
                exact=exact,
                bound=delta,
            )
        )
    return reports


def probe_low_region(delta: float = 1e-3) -> DominanceReport:
    """Exact delta of the low-privacy branch at its sensitivity extreme.

    The low-privacy formula pins eps = (worst whitened sensitivity)^2 / 2, at
    which point the exact Gaussian delta is 1/2 - e^eps * Phi(-sqrt(2 eps)),
    roughly 0.3 - independent of how small the configured delta is. The
    comparison is emitted as data: it fails dominance for any small delta,
    which is why the dominance suite restricts itself to the high-privacy
    branch.
    """
    params = PrivacyParams(clip=1.0, batch=1, delta=delta)
    # lam = 2 C^2 / B^2 puts the branch exactly at its unclamped boundary
    # (eps = 1 with the worst whitened sensitivity at sqrt(2 eps))
    lam = 2.0 * params.clip**2 / params.batch**2
    bound = eps_dp_closed_form(lam, params, ClosedFormMode.GENERAL)
    sensitivity = 2.0 * params.clip / (params.batch * math.sqrt(lam))
    exact = analytic_gaussian_delta(sensitivity, 1.0, bound.eps)
    return DominanceReport(
        descriptor=(
            f"low_region_probe lam={lam:.4f} eps={bound.eps:.4f} "
            f"printed_validity_bound={bound.delta_bound:.4f}"
        ),
        exact=exact,
        bound=delta,
    )


def _substitute_column(grads: GradientMatrix, new_col: Array) -> GradientMatrix:
    cols = grads.columns.copy()
    cols[:, 0] = new_col
    return GradientMatrix(cols, grads.clip_bound)


def _random_clipped(dim: int, clip: float, rng: np.random.Generator) -> Array:
    v = rng.standard_normal(dim)
    return v * (clip * (0.5 + 0.5 * rng.random()) / np.linalg.norm(v))


def certify_rdp(
    variant: RdpVariant,
    n_trials: int,
    rng: np.random.Generator,
    alphas: Sequence[float] = (1.5, 2.0, 4.0),
) -> list[DominanceReport]:
    """Exact Renyi divergence never exceeds the variant's bound (where finite).

    Instances satisfy the variant's assumptions: every user's gradients are
    clipped, the bound's context (per-user minimal eigenvalues, or the floor)
    is computed exactly, and the substituted dataset differs in one gradient.
    Out-of-validity orders return an infinite bound and are skipped. The
    per-variant pass rates of this harness adjudicate the two printed forms of
    the floored-mechanism bound.
    """
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
        replacement = _random_clipped(dim, clip, rng)
        substituted = [_substitute_column(users[0], replacement)] + users[1:]

        if variant is RdpVariant.THEOREM1_RDP:
            floor = 0.0
            per_user_unit = [estimate_mean_cov(g, 1) for g in users]  # 1/D scale
            context = float(sum(m.lambda_min() for m in per_user_unit))
            params = PrivacyParams(clip=clip, batch=batch, local_size=count,
                                   ns_users=n_users, delta=1e-5)
            if context <= 0:
                continue
        elif variant in (RdpVariant.WFDP_A, RdpVariant.WFDP_B):
            alpha_max = max(alphas)
            base = 2.0 * alpha_max * clip * clip / (n_users * count)
            floor = base * float(rng.choice([1.5, 3.0, 10.0]))
            context = None
            params = PrivacyParams(clip=clip, batch=batch, local_size=count,
                                   ns_users=n_users, delta=1e-5, floor=floor)
        else:
            raise ValueError(f"certify_rdp does not adjudicate {variant}")

        p = _floored_sum(users, batch, floor)
        q = _floored_sum(substituted, batch, floor)
        for alpha in alphas:
            bound = rdp_bound(alpha, params, variant, sum_lambda_min=context)
            if not math.isfinite(bound):
                continue
            exact = renyi_gaussian(alpha, p, q)
            reports.append(
                DominanceReport(
                    descriptor=(
                        f"{variant.value} trial={trial} alpha={alpha:g} d={dim} "
                        f"N={n_users} D={count} B={batch} C={clip:.3f}"
                        + (f" sigma2={floor:.3e}" if floor else "")
                    ),
                    exact=exact,
                    bound=float(bound),
                )
            )
    return reports


def summarize_reports(reports: Sequence[DominanceReport]) -> dict:
    """Aggregate pass/fail statistics of a dominance suite."""
    total = len(reports)
    failures = [r for r in reports if not r.passed]
    worst = min((r.margin for r in reports), default=math.inf)
    return {
        "total": total,
        "failures": len(failures),
        "pass_rate": 1.0 if total == 0 else (total - len(failures)) / total,
        "worst_margin": worst,
        "sound": not failures,
    }
