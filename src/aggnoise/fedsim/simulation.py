"""Round-by-round federated simulation with secure aggregation and accounting.

Each round every user derives its own RNG stream from the master seed and its
(round, user) position, computes an update under its scheme, applies the
configured mechanism, and submits through the secure-aggregation channel. The
accountant never sees samples: it receives the analytic covariance of the
non-sensitive users' submitted updates, which is what the per-round guarantees
are stated in terms of.

A ``Cohort`` takes the users' data as laid out once per run, a
``Partition``: one read-only design block of every user's rows in slot
order, which the users' arrays view and the training loss reads. Its stacks
slice it, each a run of consecutive slots whose users share role, scheme and
local size D, at most ``_STACK_BYTES`` of gradients each. The cohort also
owns the round workspace, two buffers sized for its largest stack, in which
every stack of every round forms its clipped per-example gradients and its
WFDP second moments; nothing that outlives the stack views them. A round
runs each stack's users together: ``user_update`` is the one definition of a
stack's updates and unfloored covariance models, one model stack per user
stack, and the mechanisms floor and draw for the whole stack, every member
from its own stream. A single user is a stack of one. Under WFDP every
non-sensitive stack goes through ``floored_update`` instead: WFDP replaces
its updates, so coverage is decided first, by a certificate that reads no
eigenvalue or else by the eigenvalues, and a member the floor covers
becomes sigma^2 I with no eigenvectors at all.
``noise_round`` is the one place a round's mechanism is applied: it returns
the noised submissions, the unfloored per-user spectra when asked for (the
``theorem1_rdp`` context and ``aggnoise spectrum --config``, which prints
round 0 of it, read them) and the spectrum of the summed covariance, which is
all the other routes read. A flooring mechanism returns the floored
models it sampled from, and those are summed, slot by slot, so each model is
floored once. Learning-rate scaling happens here, once per update, after
mechanisms ran on the clipped-gradient scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence, Union

import numpy as np

from ..accountant import (
    WARN_APPROX_GAUSSIAN,
    CompositionMode,
    LedgerEntry,
    PrivacyParams,
    Reads,
    RoundLedger,
    Route,
    account_round,
    compose,
    round_eps,
)
from ..errors import ConfigError
from ..mechanisms import (
    NoisedUpdate,
    SchemeKind,
    UpdateScheme,
    clipped_gradients,
    compute_update,
    ddp_noise,
    fedavg_replays,
    wfdp_from_spectra,
    wfna_noise,
)
from ..spectra import (
    CovarianceModel,
    _member_normals,
    estimate_mean_cov,
    estimate_width,
    rank,
    sum_covariances,
)
from .datasets import Partition
from .models import GlobalModel, ModelOps, evaluate_model
from .secagg import SAChannel

Array = np.ndarray

# Bytes of one stack's (k, D, d) gradients or (k, d, d) second moments. It
# caps k, and with it the stacked temporaries, at wide dimensions; at small
# ones a whole cohort is one stack per role.
_STACK_BYTES = 1 << 20


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

    def __post_init__(self):
        if self.kind is MechanismKind.NONE and self.sigma2 != 0:
            raise ConfigError(f"mechanism.sigma2: none adds no noise (got {self.sigma2:g})")
        if self.kind is not MechanismKind.NONE and not self.sigma2 > 0:
            raise ConfigError(f"mechanism.sigma2 must be > 0 for {self.kind.value}")

    @property
    def floor(self) -> float:
        """The per-user eigenvalue floor: sigma^2 for the flooring mechanisms, else 0."""
        return self.sigma2 if self.kind in (MechanismKind.WFDP, MechanismKind.WFNA) else 0.0


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


@dataclass(frozen=True)
class UserStack:
    """Users in consecutive ``slots`` who share a role, a scheme and a local size D.

    ``phi`` (k, D, p) holds their design rows and ``labels`` (k, D) their
    labels, both views of the cohort's arrays. ``gradients`` (k, D, p) and
    ``moments`` (k, w, w) are views of the cohort's round workspace, which
    every stack reuses: the round writes the clipped per-example gradients
    and the WFDP second moments there, and nothing kept past the stack may
    view them.
    """

    slots: range
    role: Role
    scheme: UpdateScheme
    phi: Array
    labels: Array
    gradients: Array
    moments: Array


class Cohort:
    """A run's users with their data laid out once, the stacks a round runs, and their workspace.

    ``data`` is the users' ``Partition``, whose items the users' features and
    labels view, taken as it is; without it the users' arrays are copied
    into one. The workspace is two buffers allocated here, sized for the
    largest stack, which every stack and round reuses.
    """

    def __init__(self, users: Sequence[UserState], data: Optional[Partition] = None):
        if not users:
            raise ConfigError("need at least one user")
        self.users = list(users)
        if data is None:
            data = Partition.concatenate([(u.features, u.labels) for u in self.users])
        if data.sizes != [u.features.shape[0] for u in self.users]:
            raise ValueError("the partition's users are not the cohort's")
        self.phi, self.labels = data.phi, data.labels
        width = self.phi.shape[1]
        runs = []  # (slots, first row, D, moment side) of each stack
        start = row = 0
        for stop in range(1, len(self.users) + 1):
            first = self.users[start]
            size = first.features.shape[0]
            cap = max(1, _STACK_BYTES // (8 * width * max(size, width)))
            if stop < len(self.users) and stop - start < cap:
                user = self.users[stop]
                if (user.role, user.scheme, user.features.shape[0]) == (first.role, first.scheme, size):
                    continue
            # the second moments' side: D (FEDAVG's replays M) when thin, else p
            count = first.scheme.fedavg_samples if first.scheme.kind is SchemeKind.FEDAVG else size
            side = estimate_width(width, count)
            runs.append((range(start, stop), row, size, side))
            start, row = stop, row + (stop - start) * size
        gradients = np.empty(max(len(slots) * size * width for slots, _, size, _ in runs))
        moments = np.empty(max(len(slots) * side * side for slots, _, _, side in runs))
        self.stacks: list[UserStack] = []
        for slots, row, size, side in runs:
            k, first = len(slots), self.users[slots[0]]
            self.stacks.append(UserStack(
                slots=slots,
                role=first.role,
                scheme=first.scheme,
                phi=self.phi[row : row + k * size].reshape(k, size, width),
                labels=self.labels[row : row + k * size].reshape(k, size),
                gradients=gradients[: k * size * width].reshape(k, size, width),
                moments=moments[: k * side * side].reshape(k, side, side),
            ))


def user_update(
    stack: UserStack,
    ops: ModelOps,
    theta: Array,
    clip: float,
    rngs: Sequence[np.random.Generator],
) -> tuple[Array, Optional[CovarianceModel]]:
    """A stack's raw updates (k, dim) and, for non-sensitive users, their covariance models.

    The updates are ``compute_update``'s, raw: unscaled by the learning rate.
    The models are the unfloored distributions of the updates on the
    clipped-gradient scale, the ones the accountant sums: the FEDAVG replays'
    estimates, a zero spectrum for deterministic FULL_GD, the estimates dense
    Gaussian-sampled updates were drawn from, or else the estimates from the
    clipped gradients, as one model stack in slot order, at most one estimate
    per user; sensitive users get None, so one with thin gradients is never
    estimated. Member i draws from ``rngs[i]`` in this order: scheme draw,
    then FEDAVG replays. Non-sensitive stacks under WFDP go through
    ``floored_update`` instead.
    """
    scheme = stack.scheme
    raw, grads, sampled_from = compute_update(
        scheme, stack.phi, stack.labels, ops, theta, clip, rngs, out=stack.gradients
    )
    if stack.role is not Role.NON_SENSITIVE:
        return raw, None
    if scheme.kind is SchemeKind.FEDAVG:
        replays = fedavg_replays(scheme, stack.phi, stack.labels, ops, theta, clip, rngs)
        models = estimate_mean_cov(replays, scheme.batch)
    elif scheme.kind is SchemeKind.FULL_GD:
        # full-batch updates are deterministic, their gradients' mean: no sampling randomness
        models = CovarianceModel.isotropic(raw)
    elif sampled_from is not None:
        # a dense Gaussian-sampled stack already estimated these models
        models = sampled_from
    else:
        models = estimate_mean_cov(grads, scheme.batch)
    return raw, models


def floored_update(
    stack: UserStack,
    ops: ModelOps,
    theta: Array,
    clip: float,
    floor: float,
    rngs: Sequence[np.random.Generator],
    spectra: bool,
) -> tuple[Optional[Array], list[NoisedUpdate]]:
    """A non-sensitive stack under WFDP, which replaces its updates, so none is made.

    The updates' distribution comes as gradients: the FEDAVG replays, or else
    the clipped gradients, FULL_GD's as an infinite batch. IID_SGD still draws
    its minibatch, and a GAUSSIAN_SAMPLED stream skips the draw WFDP replaces,
    one normal per component of the estimate, estimated or not
    (``estimate_width``), which keeps each stream where ``user_update`` leaves
    it. The gradients then go through ``wfdp_from_spectra`` from the same
    streams: a member the floor covers is floored to sigma^2 I, and only a
    member above the floor is estimated. Returns the members' unfloored
    spectra (k, dim), or None unless ``spectra`` asks for them, and the noised
    updates of consecutive runs of members, on the clipped-gradient scale.
    """
    scheme = stack.scheme
    batch = np.inf if scheme.kind is SchemeKind.FULL_GD else scheme.batch
    if scheme.kind is SchemeKind.FEDAVG:
        grads = fedavg_replays(scheme, stack.phi, stack.labels, ops, theta, clip, rngs)
    elif scheme.kind is SchemeKind.IID_SGD:
        _, grads, _ = compute_update(scheme, stack.phi, stack.labels, ops, theta, clip, rngs,
                                     out=stack.gradients)
    else:
        grads = clipped_gradients(stack.phi, stack.labels, ops, theta, clip, out=stack.gradients)
    if scheme.kind is SchemeKind.GAUSSIAN_SAMPLED:
        _member_normals(rngs, np.full(len(rngs), estimate_width(grads.dim, grads.count)))
    return wfdp_from_spectra(grads, batch, floor, rngs, spectra, out=stack.moments)


def noise_round(
    model: GlobalModel,
    cohort: Cohort,
    mech: MechanismConfig,
    clip: float,
    master_seed: int,
    round_index: int,
    spectra: bool = False,
) -> tuple[list[Array], Optional[Array], Array, float, bool]:
    """One round's mechanism pass over every stack, before secure aggregation.

    Each raw update or WFDP draw is scaled here once, by -eta (by 1 under
    FEDAVG, whose local steps carry eta), and WFNA's lift or a DDP share by
    eta (or 1) is added to it.

    Returns the noised submissions in slot order; the non-sensitive users'
    unfloored spectra (n_ns, dim), non-increasing, in slot order, or None
    unless ``spectra`` asks for them (only the ``theorem1_rdp`` context and
    ``spectrum --config`` read them, and the other results are the same bytes
    either way); the non-increasing (dim,) spectrum of the summed covariance
    the accountant reads: the floored models' when the mechanism floors (WFDP
    replaces the update, WFNA adds the lift), plus the variance of the DDP
    shares; the injected noise trace; and whether any update is only
    approximately Gaussian.
    """
    n_total = len(cohort.users)
    ops = ModelOps(model.family)
    submissions: list[Array] = []
    user_spectra: list[Array] = []
    summands: list[CovarianceModel] = []
    noise_trace = 0.0
    approx_gaussian = False

    for stack in cohort.stacks:
        rngs = [_user_rng(master_seed, round_index, slot) for slot in stack.slots]
        scheme = stack.scheme
        # FedAvg deltas already carry the learning rate; a gradient scheme steps by -eta
        update_scale = 1.0 if scheme.kind is SchemeKind.FEDAVG else scheme.learning_rate
        sign = 1.0 if scheme.kind is SchemeKind.FEDAVG else -1.0
        # each member injects at most one noise: a lift or a DDP share (WFNA adds its lift)
        traces, additive = np.zeros(len(stack.slots)), None
        if stack.role is Role.NON_SENSITIVE and mech.kind is MechanismKind.WFDP:
            unfloored, noised_runs = floored_update(
                stack, ops, model.theta, clip, mech.sigma2, rngs, spectra
            )
            summands.extend(noised.floored for noised in noised_runs)
            raw = np.concatenate([noised.vector for noised in noised_runs])
            traces = np.concatenate([noised.noise_trace for noised in noised_runs])
            if spectra:
                user_spectra.append(unfloored)
        else:
            raw, dist_model = user_update(stack, ops, model.theta, clip, rngs)
            if dist_model is not None:
                if spectra:
                    user_spectra.append(dist_model.spectrum())
                if mech.kind is MechanismKind.WFNA:
                    noised = wfna_noise(dist_model, mech.sigma2, rngs)
                    additive = noised.vector
                    dist_model = noised.floored
                    traces = noised.noise_trace
                else:
                    approx_gaussian |= scheme.kind is not SchemeKind.GAUSSIAN_SAMPLED
                summands.append(dist_model)
        if mech.kind is MechanismKind.DDP:
            share = ddp_noise(mech.sigma2, n_total, model.dim, rngs)
            additive = share.vector
            traces = share.noise_trace
        xs = sign * update_scale * raw
        if additive is not None:
            xs = xs + update_scale * additive
        for trace in traces.tolist():  # slot by slot; adding 0.0 changes no bits
            noise_trace += trace
        submissions.extend(xs)

    if not summands:
        raise ConfigError("need at least one non-sensitive user for inherent-noise accounting")
    n_ns = sum(m.mean.shape[0] for m in summands)
    extra = _isotropic_extra(mech, n_ns, n_total)
    summed = sum_covariances(summands, isotropic_extra=extra)
    per_user = np.concatenate(user_spectra) if spectra else None
    return submissions, per_user, summed, noise_trace, approx_gaussian


def run_round(
    model: GlobalModel,
    users: Union[Sequence[UserState], Cohort],
    mech: MechanismConfig,
    params: PrivacyParams,
    route: Route,
    master_seed: int,
    round_index: int,
    eval_data: Optional[tuple[Array, Array]] = None,
) -> RoundOutcome:
    """Execute one FL round and account it.

    The round is ``noise_round``'s pass, secure aggregation of its
    submissions, and the accountant's entry for the input ``route`` reads,
    taken from the round (``_read``). The closed forms read the summed
    spectrum, whose smallest eigenvalue by eigenvalue super-additivity is at
    least the sum of the per-user floors. ``users`` may come laid out as a
    ``Cohort``, which a run builds once; a plain sequence is laid out here.
    The floored-mechanism routes read the floor from ``params``, so it must
    be the one ``mech`` applies.
    """
    if route.reads is Reads.FLOOR and params.floor != mech.floor:
        raise ConfigError(
            f"route {route.name} reads floor {params.floor:g} from the privacy parameters, "
            f"but mechanism {mech.kind.value} floors at {mech.floor:g}"
        )
    cohort = users if isinstance(users, Cohort) else Cohort(users)
    n_total = len(cohort.users)
    reads_context = route.reads is Reads.CONTEXT
    submissions, spectra, summed, noise_trace, approx_gaussian = noise_round(
        model, cohort, mech, params.clip, master_seed, round_index, spectra=reads_context
    )

    channel = SAChannel(n_total, model.dim, _channel_seed(master_seed, round_index))
    for slot, x in enumerate(submissions):
        channel.submit(slot, x)
    new_model = GlobalModel(
        theta=model.theta + channel.aggregate() / n_total,
        family=model.family,
        round_index=round_index + 1,
    )

    context = 0.0
    if reads_context and (rank(spectra) == model.dim).any():
        # theorem 1's context is the per-user spectrum before the 1/B update
        # scaling, i.e. B times each unfloored lambda_min, slot by slot; it is
        # zero when every user's covariance is singular, and _account refuses it
        for lam in spectra[:, -1].tolist():
            context += params.batch * lam
    entry = _account(
        summed, context, params, route, round_index, noise_trace,
        _guarantee_refusal(mech, cohort.users), approx_gaussian,
    )

    train_loss = ModelOps(model.family).loss(new_model.theta, cohort.phi, cohort.labels)
    eval_metrics = (
        evaluate_model(new_model, eval_data[0], eval_data[1]) if eval_data is not None else {}
    )
    return RoundOutcome(
        entry=entry,
        model=new_model,
        train_loss=train_loss,
        eval_metrics=eval_metrics,
        lambda_min=float(summed[-1]),
    )


def _channel_seed(master_seed: int, round_index: int) -> int:
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=(round_index,))
    return int(seq.generate_state(1, dtype=np.uint64)[0])


def _read(route: Route, summed: Array, context: float) -> tuple[float, Optional[str]]:
    """The input ``route`` reads from a round's summed spectrum and theorem 1's context.

    Returns it and the cause that refuses the round, or None. A FLOOR route
    reads the floor from the privacy parameters; its entry, like a refused
    one, records the aggregate's lambda_min.
    """
    lam = float(summed[-1])
    if route.reads is Reads.FLOOR:
        return lam, None
    if route.reads is Reads.CONTEXT:
        if context > 0:
            return context, None
        return lam, ("necessary condition violated: every non-sensitive user's covariance "
                     "is singular, so theorem 1's context sum_u B lambda_min(Sigma_u) is zero")
    summed_rank = int(rank(summed))
    if route.reads is Reads.NONZERO_LAMBDA_MIN:
        if not summed_rank:
            return 0.0, "necessary condition violated: aggregate non-sensitive covariance is zero"
        return float(summed[summed_rank - 1]), None  # the smallest eigenvalue above the threshold
    if summed_rank < summed.size:
        return lam, (
            "necessary condition violated: aggregate non-sensitive covariance "
            f"is singular (rank {summed_rank} < {summed.size}); a worst-case "
            "substituted gradient escapes its span"
        )
    return lam, None


def _account(
    summed: Array,
    context: float,
    params: PrivacyParams,
    route: Route,
    round_index: int,
    noise_trace: float,
    refusal: Optional[str],
    approx_gaussian: bool,
) -> LedgerEntry:
    if refusal is None:
        value, cause = _read(route, summed, context)
    else:
        value, cause = float(summed[-1]), refusal
    warnings = (WARN_APPROX_GAUSSIAN,) if approx_gaussian and cause is None else ()
    return account_round(
        value, params, route, round_index=round_index, noise_trace=noise_trace,
        extra_warnings=warnings, cause=cause,
    )


@dataclass
class SimulationResult:
    ledger: RoundLedger
    rows: list[dict]
    model: GlobalModel
    total_eps: Optional[float]
    alpha_star: Optional[float] = None


def run_simulation(
    users: Union[Sequence[UserState], Cohort],
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
    construction. Composition reads the ledger's running state, which
    ``append`` updates, in both modes: SIMPLE adds each round's scalar once,
    and RDP costs one order-grid evaluation and one golden-section refine per
    ``compose``, each summing over the *distinct* curves. A run whose rounds
    share one curve (the floored-mechanism routes) costs O(1) per round and
    O(T) in total; per-round scalars are memoized per curve. Rounds with
    distinct curves (``theorem1_rdp``, closed forms in RDP mode) still cost
    O(t) at round t.
    """
    ledger = RoundLedger(params, composition)
    cohort = users if isinstance(users, Cohort) else Cohort(users)
    rows: list[dict] = []
    current = model
    total: Optional[float] = None
    alpha_star: Optional[float] = None
    for t in range(rounds):
        outcome = run_round(
            current, cohort, mech, params, route, master_seed, t, eval_data
        )
        current = outcome.model
        ledger.append(outcome.entry)
        # refused rounds carry eps = inf, so no round makes this raise NoDpGuarantee
        result = compose(ledger)
        total, alpha_star = result.total_eps, result.alpha_star
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
                "eps_round": round_eps(outcome.entry, params.delta),
                "eps_cumulative": total,
                "noise_trace": outcome.entry.noise_trace,
            }
        )
    return SimulationResult(
        ledger=ledger,
        rows=rows,
        model=current,
        total_eps=total,
        alpha_star=alpha_star,
    )
