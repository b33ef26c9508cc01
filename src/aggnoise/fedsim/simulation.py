"""Round-by-round federated simulation with secure aggregation and accounting.

Each round every user derives its own RNG stream from the master seed and its
(round, user) position, computes an update under its scheme, applies the
configured mechanism, and submits through the secure-aggregation channel. The
accountant never sees samples: it receives the analytic covariance of the
non-sensitive users' submitted updates, which is what the per-round guarantees
are stated in terms of. ``user_update`` is the one definition of a user's
update and unfloored covariance model (``aggnoise spectrum --config`` shows the
same round-0 models); a flooring mechanism returns the floored model it sampled
from, and that is the one summed, so each model is floored once. Learning-rate
scaling happens here, after mechanisms ran on the clipped-gradient scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from ..accountant import (
    WARN_APPROX_GAUSSIAN,
    ClosedFormMode,
    CompositionMode,
    LedgerEntry,
    PrivacyParams,
    RdpVariant,
    RoundLedger,
    Route,
    account_round,
    compose,
    curve_eps,
)
from ..errors import AggNoiseError, ConfigError, NoDpGuarantee, SingularCovariance
from ..mechanisms import (
    SchemeKind,
    UpdateScheme,
    compute_update,
    ddp_noise,
    estimate_fedavg_distribution,
    wfdp_update,
    wfna_noise,
)
from ..spectra import (
    BlockSpec,
    CovarianceModel,
    estimate_mean_cov,
    sum_covariances,
)
from .models import GlobalModel, ModelOps, evaluate_model
from .secagg import SAChannel

Array = np.ndarray


class Role(Enum):
    SENSITIVE = "sensitive"
    NON_SENSITIVE = "non_sensitive"


@dataclass
class UserState:
    """One participant: fixed role, local data and update scheme."""

    user_id: int
    role: Role
    features: Array
    labels: Array
    scheme: UpdateScheme


class MechanismKind(Enum):
    WFDP = "wfdp"
    WFNA = "wfna"
    DDP = "ddp"
    NONE = "none"


@dataclass(frozen=True)
class MechanismConfig:
    kind: MechanismKind
    sigma2: float = 0.0
    block_count: int = 1

    def __post_init__(self):
        if self.kind in (MechanismKind.WFDP, MechanismKind.WFNA, MechanismKind.DDP):
            if not self.sigma2 > 0:
                raise ConfigError(f"mechanism.sigma2 must be > 0 for {self.kind.value}")
        if self.block_count < 1:
            raise ConfigError("mechanism.block_count must be >= 1")


@dataclass
class RoundOutcome:
    entry: LedgerEntry
    model: GlobalModel
    train_loss: float
    eval_metrics: dict
    lambda_min: Optional[float]


def _user_rng(master_seed: int, round_index: int, slot: int) -> np.random.Generator:
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=(round_index, slot))
    return np.random.Generator(np.random.PCG64(seq))


def _blocks_for(dim: int, mech: MechanismConfig) -> Optional[BlockSpec]:
    if mech.block_count <= 1:
        return None
    return BlockSpec.equal_parts(dim, mech.block_count)


def _isotropic_extra(mech: MechanismConfig, n_ns: int, n_total: int) -> float:
    """Per-coordinate variance the non-sensitive users' DDP shares add to their sum."""
    return mech.sigma2 * n_ns / n_total if mech.kind is MechanismKind.DDP else 0.0


def _guarantee_refusal(mech: MechanismConfig, users: Sequence[UserState]) -> Optional[str]:
    """Scheme/mechanism combinations that carry no DP guarantee at all."""
    if mech.kind is MechanismKind.WFNA:
        bad = sorted(
            {u.scheme.kind.value for u in users if u.scheme.kind is not SchemeKind.GAUSSIAN_SAMPLED}
        )
        if bad:
            return (
                "no DP guarantee: additive eigenvalue-lift noise requires "
                f"Gaussian-sampled updates, got scheme(s) {bad}"
            )
    return None


def user_update(
    user: UserState,
    ops: ModelOps,
    theta: Array,
    clip: float,
    blocks: Optional[BlockSpec],
    rng: np.random.Generator,
) -> tuple[Array, Optional[CovarianceModel]]:
    """One user's raw update and, for a non-sensitive user, its covariance model.

    The model is the unfloored distribution of the update on the
    clipped-gradient scale, the one the accountant sums: the FEDAVG replays'
    estimate, a zero spectrum for deterministic FULL_GD, the estimate a
    Gaussian-sampled update was drawn from, or else the (blockwise when
    ``blocks`` is set) estimate from the clipped gradients. Sensitive users get
    None. Draws from ``rng`` in that order: scheme draw, then FEDAVG replays.
    """
    scheme = user.scheme
    x, grads, sampled_from = compute_update(
        scheme, user.features, user.labels, ops, theta, clip, rng
    )
    if user.role is not Role.NON_SENSITIVE:
        return x, None
    if scheme.kind is SchemeKind.FEDAVG:
        model = estimate_fedavg_distribution(
            scheme, user.features, user.labels, ops, theta, clip, rng
        )
    elif scheme.kind is SchemeKind.FULL_GD:
        # full-batch updates are deterministic: no sampling randomness
        dim = theta.shape[0]
        model = CovarianceModel(
            mean=grads.columns.mean(axis=1), eigvecs=np.eye(dim), eigvals=np.zeros(dim)
        )
    elif sampled_from is not None and blocks is None:
        # the Gaussian-sampled scheme already estimated this model
        model = sampled_from
    else:
        model = estimate_mean_cov(grads, scheme.batch, blocks)
    return x, model


def run_round(
    model: GlobalModel,
    users: Sequence[UserState],
    mech: MechanismConfig,
    params: PrivacyParams,
    route: Route,
    master_seed: int,
    round_index: int,
    eval_data: Optional[tuple[Array, Array]] = None,
) -> RoundOutcome:
    """Execute one FL round and account it.

    Non-sensitive users supply the inherent noise (their spectra are floored
    when the mechanism floors); sensitive users always clip, and under the
    distributed-isotropic mechanism every participant adds its noise share.
    The per-round guarantee is driven by the smallest eigenvalue of the summed
    non-sensitive covariance, which by eigenvalue super-additivity is at least
    the sum of the per-user floors.
    """
    if not users:
        raise ConfigError("need at least one user")
    n_total = len(users)
    ops = ModelOps(model.family)
    theta = model.theta
    dim = model.dim
    blocks = _blocks_for(dim, mech)
    refusal = _guarantee_refusal(mech, users)

    submissions: list[Array] = []
    ns_models: list[CovarianceModel] = []
    theorem1_context = 0.0
    noise_trace = 0.0
    approx_gaussian = False

    for slot, user in enumerate(users):
        rng = _user_rng(master_seed, round_index, slot)
        scheme = user.scheme
        x, dist_model = user_update(user, ops, theta, params.clip, blocks, rng)
        # FedAvg deltas are already on the update scale; gradient schemes get
        # -eta applied by the scheme update itself.
        update_scale = 1.0 if scheme.kind is SchemeKind.FEDAVG else scheme.learning_rate
        if dist_model is not None:
            if route is RdpVariant.THEOREM1_RDP:
                # that bound's context is the per-user spectrum before the 1/B
                # update scaling, i.e. B times the unfloored model's lambda_min
                theorem1_context += params.batch * dist_model.lambda_min()
            noised = None
            if mech.kind is MechanismKind.WFDP:
                noised = wfdp_update(dist_model, mech.sigma2, rng)
                sign = 1.0 if scheme.kind is SchemeKind.FEDAVG else -1.0
                x = sign * update_scale * noised.vector
            elif mech.kind is MechanismKind.WFNA:
                noised = wfna_noise(dist_model, mech.sigma2, rng)
                x = x + update_scale * noised.vector
            else:
                approx_gaussian |= scheme.kind is not SchemeKind.GAUSSIAN_SAMPLED
            if noised is not None:
                # the accountant sums the model the mechanism already floored
                dist_model = noised.floored
                noise_trace += noised.noise_trace
            ns_models.append(dist_model)
        if mech.kind is MechanismKind.DDP:
            share = ddp_noise(mech.sigma2, n_total, dim, rng)
            x = x + update_scale * share.vector
            noise_trace += share.noise_trace
        submissions.append(x)

    channel = SAChannel(n_total, dim, _channel_seed(master_seed, round_index))
    for slot, x in enumerate(submissions):
        channel.submit(slot, x)
    aggregate = channel.aggregate()
    new_model = GlobalModel(
        theta=theta + aggregate / n_total,
        family=model.family,
        round_index=round_index + 1,
    )

    if not ns_models:
        raise ConfigError("need at least one non-sensitive user for inherent-noise accounting")
    summed = sum_covariances(
        ns_models, isotropic_extra=_isotropic_extra(mech, len(ns_models), n_total)
    )
    lambda_min = summed.lambda_min()

    entry = _account(
        summed,
        lambda_min,
        theorem1_context,
        params,
        route,
        round_index,
        noise_trace,
        refusal,
        approx_gaussian,
    )

    all_features = np.vstack([u.features for u in users])
    all_labels = np.concatenate([u.labels for u in users])
    train_loss = ops.loss(new_model.theta, all_features, all_labels)
    eval_metrics = (
        evaluate_model(new_model, eval_data[0], eval_data[1]) if eval_data is not None else {}
    )
    return RoundOutcome(
        entry=entry,
        model=new_model,
        train_loss=train_loss,
        eval_metrics=eval_metrics,
        lambda_min=lambda_min,
    )


def _channel_seed(master_seed: int, round_index: int) -> int:
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=(round_index,))
    return int(seq.generate_state(1, dtype=np.uint64)[0])


def _account(
    summed: CovarianceModel,
    lambda_min: float,
    theorem1_context: float,
    params: PrivacyParams,
    route: Route,
    round_index: int,
    noise_trace: float,
    refusal: Optional[str],
    approx_gaussian: bool,
) -> LedgerEntry:
    if refusal is not None:
        return LedgerEntry(
            round_index=round_index,
            route="refused",
            lambda_min=lambda_min,
            eps=None,
            noise_trace=noise_trace,
            cause=refusal,
        )
    warnings = (WARN_APPROX_GAUSSIAN,) if approx_gaussian else ()
    lam, cause = lambda_min, None
    if route is ClosedFormMode.SINGULAR:
        try:
            lam = summed.lambda_min_nonzero()
        except SingularCovariance:
            lam = 0.0
            cause = "necessary condition violated: aggregate non-sensitive covariance is zero"
    elif isinstance(route, ClosedFormMode) and summed.rank() < summed.dim:
        cause = (
            "necessary condition violated: aggregate non-sensitive covariance "
            f"is singular (rank {summed.rank()} < {summed.dim}); a worst-case "
            "substituted gradient escapes its span"
        )
    elif route is RdpVariant.THEOREM1_RDP:
        lam = theorem1_context
    # floored-mechanism RDP variants read (N, sigma^2) from params
    return account_round(
        lam, params, route, round_index=round_index, noise_trace=noise_trace,
        extra_warnings=() if cause is not None else warnings, cause=cause,
    )


@dataclass
class SimulationResult:
    ledger: RoundLedger
    rows: list[dict]
    model: GlobalModel
    total_eps: Optional[float]
    total_cause: Optional[str] = None
    alpha_star: Optional[float] = None


def _round_eps(entry: LedgerEntry, delta: float) -> Optional[float]:
    if entry.eps is not None:
        return entry.eps
    if entry.curve is not None:
        try:
            return curve_eps(entry.curve, delta)
        except AggNoiseError:
            # e.g. an empty order interval: the round has no finite guarantee
            return math.inf
    return None


def run_simulation(
    users: Sequence[UserState],
    model: GlobalModel,
    mech: MechanismConfig,
    params: PrivacyParams,
    route: Route,
    rounds: int,
    master_seed: int,
    eval_data: Optional[tuple[Array, Array]] = None,
    composition: CompositionMode = CompositionMode.SIMPLE,
) -> SimulationResult:
    """Run ``rounds`` federated rounds and account every one of them.

    The per-round metrics rows are CSV-ready; the cumulative epsilon column
    composes the ledger prefix after every round so the trace is monotone by
    construction. Composition collapses repeated RDP curves and per-round
    scalars are memoized per curve, so a run whose rounds share one curve
    (the floored-mechanism routes) makes O(T) RDP-curve evaluations, not O(T^2).
    """
    ledger = RoundLedger(params, composition)
    rows: list[dict] = []
    current = model
    total: Optional[float] = None
    cause: Optional[str] = None
    alpha_star: Optional[float] = None
    for t in range(rounds):
        outcome = run_round(
            current, users, mech, params, route, master_seed, t, eval_data
        )
        current = outcome.model
        ledger.append(outcome.entry)
        try:
            result = compose(ledger, composition)
            total, cause, alpha_star = result.total_eps, None, result.alpha_star
        except NoDpGuarantee as exc:
            total, cause = None, str(exc)
        eval_metric = ""
        if outcome.eval_metrics:
            key = "mse" if "mse" in outcome.eval_metrics else "accuracy"
            eval_metric = outcome.eval_metrics[key]
        rows.append(
            {
                "round": t,
                "train_loss": outcome.train_loss,
                "eval_metric": eval_metric,
                "lambda_min": outcome.lambda_min,
                "eps_round": _round_eps(outcome.entry, params.delta),
                "eps_cumulative": total,
                "noise_trace": outcome.entry.noise_trace,
            }
        )
    return SimulationResult(
        ledger=ledger,
        rows=rows,
        model=current,
        total_eps=total,
        total_cause=cause,
        alpha_star=alpha_star,
    )
