"""Ground-truth oracles and adversarial constructions.

Everything the accountant claims is checked here against exact computations
on small instances: the span-membership necessary condition, the
distinguisher counterexample it rules out, and dominance harnesses that pit
each bound against the exact Renyi divergence, or against the exact
Gaussian-mechanism delta(eps) (``accountant.analytic_gaussian_delta``), on
randomized instances. The harnesses never throw on a failed comparison; they
report, so an unsound printed bound variant shows up as data rather than a
crash.

The closed-form harness evaluates one substitution pair per instance, the
extremal one: a difference of 2C/B along the aggregate's minimal
eigenvector. Its whitened sensitivity 2C/(B sqrt(lambda_min)) is the supremum
over all pairs of clipped gradients, so random pairs could only come out
lower. Both harnesses draw their instances a run of trials at a time, making
only the generator calls per trial. Per dimension and gradient count, one
stack scales the users' raw directions to their drawn norms, one
``GradientMatrix`` checks every user's gradients against that user's own
trial clip, and ``spectra.estimate_mean_cov`` and ``spectra.floor_eigenvalues``
estimate and floor the users' models from it. The aggregates' covariances are
summed as stacks per dimension, with the same bits as summing each instance
through ``sum_covariances``; the closed-form suite eigendecomposes its totals
for their minimal eigenvectors, and the RDP suite reads only their spectra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from .accountant import (
    ClosedFormMode,
    PrivacyParams,
    RdpVariant,
    analytic_gaussian_delta,
    eps_dp_closed_form,
    rdp_bound,
)
from .errors import BadDimension, DimensionMismatch
from .spectra import (
    CovarianceModel,
    GradientMatrix,
    eig_decompose,
    estimate_mean_cov,
    floor_eigenvalues,
    span_contains,
    sum_covariances,
    _psd_eigh,
    _renyi_divergence,
)

Array = np.ndarray

MARGIN_SLACK = 1e-9  # absolute numerical slack on dominance margins
# trials a dominance suite draws and then evaluates as one stack. A stack makes
# one estimate_mean_cov call per dimension and gradient count: the default
# verify run at seed 7 makes 244 of them at 250 trials per stack, against 609
# at 100, which cost about 0.1 s more CPU. A stack's instances are held at
# once; at 250 the whole process peaks about 0.4 MB above its peak at 100.
_TRIALS_PER_STACK = 250


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
    sets = [g.columns if isinstance(g, GradientMatrix) else np.asarray(g, dtype=float) for g in gradient_sets]
    if not sets:
        raise DimensionMismatch("need at least one gradient set")
    union = np.hstack([cols[:, None] if cols.ndim == 1 else cols for cols in sets])
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
    return Counterexample(helpers=helpers, candidate_a=base, candidate_b=cand_b, replacement=cand_b,
                          quarter_start=q_start, clip=clip, batch=1)


def _floored_models(
    gradient_sets: Sequence[GradientMatrix], batch: int, floor: float
) -> list[CovarianceModel]:
    """The users' estimated models, each floored at ``floor`` when it is > 0."""
    models = []
    for g in gradient_sets:
        model = estimate_mean_cov(g, batch)
        if floor > 0:
            model, _ = floor_eigenvalues(model, floor)
        models.append(model)
    return models


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
    The helpers' sum is drawn from as one model: the eigendecomposition of
    their summed covariance, about their summed mean.
    """
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


def dp_advantage_bound(eps: float, delta: float) -> float:
    """Largest distinguishing advantage an (eps, delta)-DP output allows:
    (e^eps - 1 + 2 delta) / (e^eps + 1)."""
    return (math.expm1(eps) + 2.0 * delta) / (math.exp(eps) + 1.0)


def counterexample_floored_lambda_min(instance: Counterexample, floor: float) -> float:
    """Exact smallest eigenvalue of the helpers' summed floored covariance."""
    return float(sum_covariances(_floored_models(instance.helpers, instance.batch, floor))[-1])


class _Draw(NamedTuple):  # users' gradients as drawn, one user per row
    directions: Array  # (k, dim, count) standard normals
    radii: Optional[Array]  # (k, count) uniforms r: column j gets norm C (low + spread r_j); None: ready
    first: Optional[Array] = None  # certify_rdp's substitute: the gradient that replaces row 0's column 0


def _draw(rng: np.random.Generator, n_users: int, dim: int, count: int) -> _Draw:
    """Each user's ``rng.standard_normal((dim, count))`` and then ``rng.random(count)``, into one block."""
    draw = _Draw(np.empty((n_users, dim, count)), np.empty((n_users, count)))
    for directions, radii in zip(draw.directions, draw.radii):
        rng.standard_normal(out=directions)
        rng.random(out=radii)
    return draw


def _choice(rng: np.random.Generator, options: Sequence[float]) -> float:
    """``rng.choice(options)``: the same draw from the stream, without building an array."""
    return options[int(rng.integers(0, len(options)))]


def _scaled(draws: Sequence[_Draw], clip: Array, band: tuple[float, float]) -> Array:
    """The draws' rows' gradients, bit for bit ``directions * (C * (low + spread * r) / np.linalg.norm(
    directions, axis=0))`` per row (that norm is sqrt(add.reduce(x * x))), ``first`` over column 0."""
    low, spread = band
    cols = np.concatenate([d.directions for d in draws])
    norms = np.sqrt(np.add.reduce(cols * cols, axis=-2))
    cols *= (clip[:, None] * (low + spread * np.concatenate([d.radii for d in draws])) / norms)[:, None, :]
    rows = np.cumsum([0] + [len(d.directions) for d in draws])  # each draw's row 0
    swapped = [j for j, d in enumerate(draws) if d.first is not None]
    if swapped:
        cols[rows[swapped], :, 0] = np.stack([draws[j].first for j in swapped])
    return cols


def _estimates(group: Sequence[_Trial], sets_of, band: Optional[tuple] = None) -> CovarianceModel:
    """Every trial's gradient sets, ``sets_of(trial)``, estimated and floored as one model stack.

    A set is a (dim, count) array g of gradients or, given ``band`` = (low,
    spread), a ``_Draw`` of one g per row, ``_scaled`` at that band. Member i,
    the i-th g in set order, is ``floor_eigenvalues(estimate_mean_cov(
    GradientMatrix(g, C), B), floor)[0]`` at its own trial's C, B and floor (a
    zero floor leaves the clamped estimate as it is). The sets are scaled,
    checked and estimated one stack per gradient count, and floored in one
    call. All have one dim and more than dim/2 gradients: full-dimension models.
    """
    sets = [(g if band else _Draw(g[None], None), t.params) for t in group for g in sets_of(t)]
    sizes = [len(d.directions) for d, _ in sets]
    counts = np.array([d.directions.shape[-1] for d, _ in sets])
    clip, batch, floor = (np.repeat([getattr(p, name) for _, p in sets], sizes)
                          for name in ("clip", "batch", "floor"))
    n, dim = len(clip), sets[0][0].directions.shape[-2]
    means, vals, vecs = np.empty((n, dim)), np.empty((n, dim)), np.empty((n, dim, dim))
    for count in sorted(set(counts.tolist())):
        draws = [sets[i][0] for i in np.flatnonzero(counts == count)]
        idx = np.flatnonzero(np.repeat(counts, sizes) == count)
        cols = _scaled(draws, clip[idx], band) if band else np.concatenate([d.directions for d in draws])
        model = estimate_mean_cov(GradientMatrix(cols, clip[idx]), batch[idx])
        means[idx], vals[idx], vecs[idx] = model.mean, model.eigvals, model.eigvecs
    return floor_eigenvalues(CovarianceModel(means, vecs, vals), floor)[0]


def _slot_sums(models: CovarianceModel, slots: Array) -> tuple[Array, Array]:
    """Summed means (n, dim) and covariances (n, dim, dim) of the stacked models ``slots[t]`` names.

    ``slots`` is (n, max users) of indices into ``models``, -1 after a row's
    last user. Users are added slot by slot onto zeros, the order
    ``sum_covariances`` adds them in, so total t is the matrix whose spectrum
    it returns, bit for bit.
    """
    mats = models.matrix()
    mean = np.zeros((slots.shape[0], models.dim))
    total = np.zeros((slots.shape[0],) + mats.shape[1:])
    for k in range(slots.shape[1]):
        rows = np.flatnonzero(slots[:, k] >= 0)
        mean[rows] += models.mean[slots[rows, k]]
        total[rows] += mats[slots[rows, k]]
    return mean, total


def _by_dim(dims: Sequence[int]) -> list[Array]:
    """Trial indices of each dimension that occurs, in trial order."""
    return [np.flatnonzero(np.array(dims) == d) for d in sorted(set(dims))]


def _slot_table(sizes: Array, stored: Array) -> Array:
    """(n, max size) indices of each trial's users among stacked models, -1 after its last.

    Trial t stores ``stored[t]`` models back to back, its ``sizes[t]`` users first.
    """
    first = np.cumsum(stored) - stored
    col = np.arange(int(sizes.max()) if sizes.size else 0)
    return np.where(col < sizes[:, None], first[:, None] + col, -1)


def _in_stacks(n_trials: int, evaluate) -> list[DominanceReport]:
    """``evaluate(count, first)`` over consecutive runs of at most _TRIALS_PER_STACK trials.

    Each run draws its instances before it evaluates them, so no more than
    one run's instances are held at a time.
    """
    reports = []
    for first in range(0, n_trials, _TRIALS_PER_STACK):
        reports += evaluate(min(_TRIALS_PER_STACK, n_trials - first), first)
    return reports


@dataclass
class _Trial:
    params: PrivacyParams  # its floor is the one every user's model is floored at
    users: Union[list[Array], _Draw]  # (dim, count) gradients, or a suite's draw; _estimates checks them
    substituted: Optional[_Draw] = None  # certify_rdp: user 0's row, its first gradient replaced


def _stacked_bounds(params: Sequence[PrivacyParams], variant: RdpVariant, alphas, context) -> Array:
    """Row t is ``rdp_bound(alphas, params[t], variant, context[t])``, bit for bit, from one array-path
    call over the params' fields as (n, 1) columns; a THEOREM1_RDP context <= 0 gives +inf."""
    names = ("clip", "batch", "local_size", "ns_users", "floor")
    table = np.array([[getattr(p, name) for name in names] for p in params], dtype=float)
    columns = SimpleNamespace(**{name: table[:, k, None] for k, name in enumerate(names)})
    return rdp_bound(alphas, columns, variant, None if context is None else context[:, None])


def certify_closed_form(n_trials: int, rng: np.random.Generator) -> list[DominanceReport]:
    """Exact delta never exceeds the configured delta at the claimed epsilon.

    Each trial builds an aggregate Gaussian from floored per-user models,
    takes the accountant's per-round epsilon, and evaluates the exact Gaussian
    delta at the worst whitened sensitivity: that of the extremal substitution
    pair, a difference of 2C/B along the minimal eigenvector. No other pair
    comes closer to the bound: a substitution moves the mean by x = (a - b)/B
    with ||x|| <= 2C/B, and with Sigma = L L^T,
    ||L^-1 x|| <= ||x|| / sqrt(lambda_min) <= 2C / (B sqrt(lambda_min)),
    with equality at x = (2C/B) v_min. So that one pair is the supremum.

    Instances are drawn in trial order, up to _TRIALS_PER_STACK at a time,
    and per trial only the draws run; the rest is stacked. Users are scaled,
    estimated and floored by stacked ``estimate_mean_cov`` and
    ``floor_eigenvalues`` calls; the sums, their eigendecompositions and the
    whitening solves run as stacked calls per dimension. The sums are the
    matrices ``sum_covariances`` would add instance by instance. Only the
    epsilon and the exact delta are computed per trial.
    """
    return _in_stacks(n_trials, lambda count, first: _closed_form_stack(count, first, rng))


def _closed_form_stack(n_trials: int, first: int, rng: np.random.Generator) -> list[DominanceReport]:
    trials, dims = [], []
    for _ in range(n_trials):
        dim = int(rng.integers(2, 6))
        n_users = int(rng.integers(2, 7))
        count = int(rng.integers(max(dim, 4), 11))
        batch = int(rng.integers(1, 5))
        clip = float(0.5 + 1.5 * rng.random())
        delta = _choice(rng, (1e-3, 1e-4))
        # the floor keeps every instance in the high-privacy branch, which is
        # where the closed form claims arbitrary delta; probe_low_region()
        # documents what happens to the other branch
        root = math.sqrt(2.0 * math.log(1.25 / delta))
        lambda_0 = 4.0 * clip * clip * root / (batch * batch)
        floor = lambda_0 / n_users * _choice(rng, (1.05, 2.0, 5.0, 20.0))
        params = PrivacyParams(clip=clip, batch=batch, local_size=count,
                               ns_users=n_users, delta=delta, floor=floor)
        trials.append(_Trial(params, _draw(rng, n_users, dim, count)))
        dims.append(dim)

    lam_min = np.empty(n_trials)
    sensitivity = np.empty(n_trials)
    for idx in _by_dim(dims):
        group = [trials[i] for i in idx]
        sizes = np.array([t.params.ns_users for t in group])
        models = _estimates(group, lambda t: [t.users], (0.6, 0.4))
        _, totals = _slot_sums(models, _slot_table(sizes, sizes))
        # eigh's first eigenpair is the smallest eigenvalue's; its vector is the extremal direction
        vals, vecs = _psd_eigh(totals)
        lam_min[idx] = vals[:, 0]
        chol = np.linalg.cholesky(totals)
        limit = np.array([2.0 * t.params.clip / t.params.batch for t in group])
        extremal = limit[:, None] * vecs[:, :, 0]
        w = np.linalg.solve(chol, extremal[:, :, None])
        sensitivity[idx] = np.linalg.norm(w, axis=-2)[:, 0]

    reports = []
    for trial, t in enumerate(trials):
        p = t.params
        lam = float(lam_min[trial])
        bound = eps_dp_closed_form(lam, p, ClosedFormMode.GENERAL)
        reports.append(DominanceReport(
            f"closed_form trial={first + trial} d={dims[trial]} N={p.ns_users} "
            f"D={p.local_size} B={p.batch} C={p.clip:.3f} delta={p.delta:g} "
            f"region={bound.region.value} lam={lam:.3e} eps={bound.eps:.4f}",
            exact=analytic_gaussian_delta(float(sensitivity[trial]), 1.0, bound.eps),
            bound=p.delta,
        ))
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
    return DominanceReport(
        f"low_region_probe lam={lam:.4f} eps={bound.eps:.4f} printed_validity_bound={bound.delta_bound:.4f}",
        exact=analytic_gaussian_delta(sensitivity, 1.0, bound.eps),
        bound=delta,
    )


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

    As in ``certify_closed_form``, instances are drawn a run at a time, only
    the draws per trial, and the rest runs stacked, the bounds included. A
    trial's N users and its substituted first user are estimated once each;
    both aggregates sum from them.
    """
    if variant not in (RdpVariant.THEOREM1_RDP, RdpVariant.WFDP_A, RdpVariant.WFDP_B):
        raise ValueError(f"certify_rdp does not adjudicate {variant}")
    return _in_stacks(n_trials, lambda count, first: _rdp_stack(variant, count, first, rng, alphas))


def _rdp_stack(
    variant: RdpVariant,
    n_trials: int,
    first: int,
    rng: np.random.Generator,
    alphas: Sequence[float],
) -> list[DominanceReport]:
    theorem1 = variant is RdpVariant.THEOREM1_RDP
    trials, dims = [], []
    for _ in range(n_trials):
        dim = int(rng.integers(2, 5))
        count = int(rng.integers(max(dim + 2, 5), 11))
        n_users = int(rng.integers(2, 6))
        batch = int(rng.integers(1, 5))
        clip = float(0.5 + 1.0 * rng.random())

        users = _draw(rng, n_users, dim, count)
        substituted = _Draw(users.directions[:1], users.radii[:1], _random_clipped(dim, clip, rng))

        floor = 0.0
        if not theorem1:
            floor = 2.0 * max(alphas) * clip * clip / (n_users * count) * _choice(rng, (1.5, 3.0, 10.0))
        params = PrivacyParams(clip=clip, batch=batch, local_size=count,
                               ns_users=n_users, delta=1e-5, floor=floor)
        trials.append(_Trial(params, users, substituted))
        dims.append(dim)

    # THEOREM1_RDP's context: the users' summed unit-batch (1/D-scaled) lambda_min,
    # read as B times each batch-B estimate's, as run_round reads it
    context = np.zeros(n_trials)
    aggregates = []  # per dim: trial indices, then means, covariances and spectra of p and q
    for idx in _by_dim(dims):
        group = [trials[i] for i in idx]
        sizes = np.array([t.params.ns_users for t in group])
        # a zero floor (THEOREM1_RDP) leaves the clamped spectra as they are
        models = _estimates(group, lambda t: [t.users, t.substituted], (0.7, 0.3))
        # slot k of p is user k; q swaps user 0 for its substitute, stored after user N-1
        slots_p = _slot_table(sizes, sizes + 1)
        slots_q = slots_p.copy()
        slots_q[:, 0] += sizes
        (mean_p, total_p), (mean_q, total_q) = _slot_sums(models, slots_p), _slot_sums(models, slots_q)
        # non-increasing, as sum_covariances returns them
        spec_p, spec_q = (_psd_eigh(total, vectors=False)[0][..., ::-1] for total in (total_p, total_q))
        aggregates.append((idx, mean_p, mean_q, total_p, total_q, spec_p, spec_q))
        if theorem1:
            batch = np.array([t.params.batch for t in group])[:, None]
            unit_min = np.where(slots_p >= 0, batch * models.eigvals[slots_p, -1], 0.0)
            for k in range(slots_p.shape[1]):  # slot by slot, the order run_round adds them in
                context[idx] += unit_min[:, k]

    bounds = _stacked_bounds([t.params for t in trials], variant, alphas, context if theorem1 else None)
    finite = np.isfinite(bounds)
    # S_a is indefinite at orders with an infinite bound, so only finite ones are factored
    exact = np.full(bounds.shape, math.nan)
    for idx, *pair in aggregates:
        for j, alpha in enumerate(alphas):
            rows = np.flatnonzero(finite[idx, j])
            if rows.size:
                exact[idx[rows], j] = _renyi_divergence(alpha, *(a[rows] for a in pair))

    reports = []
    for trial, t in enumerate(trials):
        p = t.params
        for j, alpha in enumerate(alphas):
            if not finite[trial, j]:
                continue
            reports.append(DominanceReport(
                f"{variant.value} trial={first + trial} alpha={alpha:g} d={dims[trial]} "
                f"N={p.ns_users} D={p.local_size} B={p.batch} C={p.clip:.3f}"
                + (f" sigma2={p.floor:.3e}" if p.floor else ""),
                exact=float(exact[trial, j]),
                bound=float(bounds[trial, j]),
            ))
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
