"""Per-user update generation and noising mechanisms.

Builds raw model updates under several sampling schemes and applies the
privacy mechanisms on the clipped-gradient scale: the eigenvalue-flooring
mechanism that replaces the update with a Gaussian draw from the floored
model (the DP-bearing default), its additive variant that only samples the
lift, and the isotropic distributed baseline. Learning-rate scaling is the
caller's job so that clip/batch/dataset-size constants stay on the scale the
accountant formulas expect.

Every function here runs on a stack of users: design rows (k, D, p), a model
stack (see ``CovarianceModel``) and one generator per member; the mechanisms
also take a single model. The gradients, estimates and floors run as stacked
numpy calls; each member's draws still come from its own generator, in the
order a call on that member alone makes them, so each member's result is
that call's, bit for bit. Members that share one generator draw one after
the other.

``wfdp_from_spectra`` is WFDP, which replaces a stack's updates: it decides
first which members the floor covers, by a certificate that reads no
eigenvalue or else by their eigenvalues, and estimates eigenvectors only
for a member with an eigenvalue above the floor; a member the floor covers
is floored to sigma^2 I directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Optional, Sequence, Union

import numpy as np

from .errors import DimensionMismatch, EmptyDataset, NonFinite
from .spectra import (
    CovarianceModel,
    GradientMatrix,
    estimate_mean_cov,
    estimate_width,
    floor_coverage,
    _member_normals,
    floor_eigenvalues,
    sample_gaussian,
)

Array = np.ndarray
if TYPE_CHECKING:
    # only annotations name it: evaluating np.random here would import it with the package
    Generators = Union[np.random.Generator, Sequence[np.random.Generator]]


class SchemeKind(Enum):
    IID_SGD = "iid_sgd"
    FULL_GD = "full_gd"
    GAUSSIAN_SAMPLED = "gaussian_sampled"
    FEDAVG = "fedavg"


@dataclass(frozen=True)
class UpdateScheme:
    """How a user turns its local dataset into one round's update.

    batch is the mini-batch size B (and the covariance scaling factor for the
    Gaussian-sampled scheme); fedavg_samples is the number M >= 2 of local
    training replays used to estimate the update distribution under FEDAVG;
    local_steps counts local epochs for FEDAVG.
    """

    kind: SchemeKind
    batch: int = 1
    learning_rate: float = 1.0
    fedavg_samples: int = 0
    local_steps: int = 1

    def __post_init__(self):
        if self.batch < 1:
            raise ValueError(f"batch must be >= 1, got {self.batch}")
        if self.kind is SchemeKind.FEDAVG and self.fedavg_samples < 2:
            raise ValueError("FEDAVG needs fedavg_samples >= 2 to estimate a covariance")
        if self.local_steps < 1:
            raise ValueError(f"local_steps must be >= 1, got {self.local_steps}")


@dataclass(frozen=True)
class NoisedUpdate:
    """An update (or additive noise) vector plus the variance it injected.

    ``floored`` is the model a flooring mechanism's noised update follows:
    (mean, covariance floored at the mechanism's floor). It is None for noise
    that floors nothing. For a stack of users, ``vector`` is (k, dim),
    ``noise_trace`` (k,) and ``floored`` a model stack.
    """

    vector: Array
    noise_trace: Union[float, Array]
    floored: Optional[CovarianceModel] = None

    def __post_init__(self):
        if (np.asarray(self.noise_trace) < 0).any():
            raise ValueError(f"noise_trace must be >= 0, got {self.noise_trace}")


def clip_gradient(g, clip: float) -> Array:
    """Scale g onto the L2 ball of radius clip: clip * g / max(||g||, clip)."""
    if not clip > 0:
        raise ValueError(f"clip must be positive, got {clip}")
    arr = np.asarray(g, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise NonFinite("gradient contains NaN or Inf")
    norm = float(np.linalg.norm(arr))
    return arr * (clip / max(norm, clip))


def _clipped_per_example(model, theta: Array, phi: Array, labels: Array, clip: float) -> Array:
    grads = model.per_example_gradients(theta, phi, labels)
    norms = np.linalg.norm(grads, axis=-1)
    scale = clip / np.maximum(norms, clip)
    return grads * scale[..., None]


def _local_epochs(
    scheme: UpdateScheme, model, theta: Array, phi: Array, labels: Array, clip: float,
    rng: np.random.Generator,
) -> Array:
    """FedAvg-style local training: local_steps epochs of clipped minibatch SGD."""
    n = phi.shape[0]
    current = theta.copy()
    for _ in range(scheme.local_steps):
        order = rng.permutation(n)
        for start in range(0, n, scheme.batch):
            idx = order[start : start + scheme.batch]
            grads = _clipped_per_example(model, current, phi[idx], labels[idx], clip)
            current = current - scheme.learning_rate * grads.mean(axis=0)
    return current - theta


def _local_deltas(scheme: UpdateScheme, model, theta: Array, phi: Array, labels: Array, clip: float,
                  streams: Sequence[Sequence[np.random.Generator]]) -> Array:
    """(k, dim, M) local-training deltas: member i trains once per stream in ``streams[i]``.

    Each delta is clipped whole by ``clip_gradient``, whose vector norm a
    stacked norm reduction would not match bit for bit.
    """
    deltas = np.empty((phi.shape[0], theta.shape[0], len(streams[0])))
    for member, (rows, ys, member_streams) in enumerate(zip(phi, labels, streams)):
        for j, stream in enumerate(member_streams):
            delta = _local_epochs(scheme, model, theta, rows, ys, clip, stream)
            deltas[member, :, j] = clip_gradient(delta, clip)
    return deltas


def clipped_gradients(phi: Array, labels: Array, model, theta: Array, clip: float) -> GradientMatrix:
    """A stack's clipped per-example gradients as checked (k, dim, D) columns; making them draws nothing.

    They are what IID_SGD, FULL_GD and GAUSSIAN_SAMPLED updates are made from
    (see ``compute_update``).
    """
    if phi.shape[-2] == 0:
        raise EmptyDataset("user dataset is empty")
    return GradientMatrix(_clipped_per_example(model, theta, phi, labels, clip).swapaxes(-1, -2), clip)


def _check_stack(phi: Array, labels: Array, rngs: Sequence[np.random.Generator]) -> None:
    """Refuse anything but a stack: (k, D, p) design rows, (k, D) labels and k generators."""
    rows, ys = np.shape(phi), np.shape(labels)
    count = None if isinstance(rngs, np.random.Generator) else len(rngs)
    if len(rows) != 3 or ys != rows[:2] or count != rows[0]:
        given = "one bare generator" if count is None else f"{count} generators"
        raise DimensionMismatch(
            "expected a stack of (k, D, p) design rows, (k, D) labels and k generators, "
            f"got rows {rows}, labels {ys} and {given}"
        )


def compute_update(
    scheme: UpdateScheme,
    phi: Array,
    labels: Array,
    model,
    theta: Array,
    clip: float,
    rngs: Sequence[np.random.Generator],
) -> tuple[Array, Optional[GradientMatrix], Optional[CovarianceModel]]:
    """A stack's updates (k, dim), the clipped gradients behind them, and their estimates.

    ``phi`` holds the users' design rows (k, D, p) (see ``models.design``),
    ``labels`` (k, D), and ``rngs`` one generator per member; anything else
    raises DimensionMismatch. IID_SGD averages B with-replacement samples of
    the clipped per-example gradients; FULL_GD averages all of them;
    GAUSSIAN_SAMPLED draws from (mean, second moment / (B*D)): thin gradients
    X (at most dim/2 of them) give the paper's X w, w ~ N(1/D, I/(B*D)), as
    mean + X z / sqrt(B*D) from the D normals z a draw from their estimate
    takes, and dense ones are drawn from their estimate; FEDAVG runs local
    training and clips the whole resulting delta to ``clip``. The updates stay
    on the clipped-gradient scale, with no learning rate (FEDAVG's steps carry
    it). The gradients are None for FEDAVG, and the estimates are the model
    stack ``estimate_mean_cov(grads, scheme.batch)`` a dense GAUSSIAN_SAMPLED
    stack drew from, None when nothing was estimated.
    """
    _check_stack(phi, labels, rngs)
    if phi.shape[-2] == 0:
        raise EmptyDataset("user dataset is empty")
    if scheme.kind is SchemeKind.FEDAVG:
        deltas = _local_deltas(scheme, model, theta, phi, labels, clip, [[rng] for rng in rngs])
        return deltas[..., 0], None, None
    grads = clipped_gradients(phi, labels, model, theta, clip)
    cols = grads.columns  # (k, d, D)
    dist = None
    if scheme.kind is SchemeKind.FULL_GD:
        updates = cols.mean(axis=-1)
    elif scheme.kind is SchemeKind.IID_SGD:
        picks = [rng.integers(0, cols.shape[-1], size=scheme.batch) for rng in rngs]
        updates = np.stack([member[:, idx].mean(axis=1) for member, idx in zip(cols, picks)])
    elif scheme.kind is SchemeKind.GAUSSIAN_SAMPLED:
        if estimate_width(grads.dim, grads.count) < grads.dim:  # thin: drawn from the gradients
            z = _member_normals(rngs, np.full(len(rngs), grads.count))
            spread = (cols @ z[..., None])[..., 0] / np.sqrt(scheme.batch * grads.count)
            updates = cols.mean(axis=-1) + spread
        else:
            dist = estimate_mean_cov(grads, scheme.batch)
            updates = sample_gaussian(dist, rngs)
    else:
        raise ValueError(f"unknown scheme {scheme.kind}")
    return updates, grads, dist


def fedavg_replays(
    scheme: UpdateScheme,
    phi: Array,
    labels: Array,
    model,
    theta: Array,
    clip: float,
    rngs: Sequence[np.random.Generator],
) -> GradientMatrix:
    """FEDAVG's update distribution as M independent local-training replays.

    Each replay restarts from ``theta`` with a freshly shuffled minibatch
    order, from its own stream spawned from its member's generator; the M
    resulting (whole-update-clipped) deltas are the columns of a (k, dim, M)
    gradient stack, so ``estimate_mean_cov(replays, scheme.batch)`` gives them
    the same 1/(B*M) second-moment scaling the other schemes use. The inputs
    are a stack, as ``compute_update``'s.
    """
    m = scheme.fedavg_samples
    if m < 2:
        raise ValueError(f"need at least 2 replays, got {m}")
    _check_stack(phi, labels, rngs)
    if phi.shape[-2] == 0:
        raise EmptyDataset("user dataset is empty")
    streams = [rng.spawn(m) for rng in rngs]
    return GradientMatrix(_local_deltas(scheme, model, theta, phi, labels, clip, streams), clip)


def wfdp_update(model: CovarianceModel, floor: float, rng: Generators) -> NoisedUpdate:
    """Floor the update spectrum at ``floor`` and emit a Gaussian replacement.

    The raw update is replaced by a draw from (mean, floored covariance) of
    ``model``; the injected variance is the trace of the lift,
    sum_j max(0, floor - lam_j) over the model's full spectrum. A model stack
    takes one generator per member.
    """
    floored, lift_trace = floor_eigenvalues(model, floor)
    vector = sample_gaussian(floored, rng)
    return NoisedUpdate(vector=vector, noise_trace=lift_trace, floored=floored)


def wfdp_from_spectra(
    grads: GradientMatrix, batch: float, floor: float, rngs: Sequence[np.random.Generator],
    spectra: bool = True,
) -> tuple[Optional[Array], list[NoisedUpdate]]:
    """WFDP for a stack of users' clipped gradients, decomposing only what the floor leaves.

    Coverage is decided first, by ``floor_coverage``: a stack its certificate
    (row sums and the product's shape, or Cholesky factorizations where those
    fall short) clears reads no eigenvalue. The certificate runs only when
    ``spectra`` is false, as the spectra it skips are not returned; it passes
    only members the spectrum path covers, so the noised updates do not
    depend on ``spectra``. An infinite ``batch``
    (FULL_GD's deterministic mean) has the zero spectrum, read without either.

    A covered member floors to floor * I: its model stores no eigenpairs and
    has tail ``floor``, its lift trace is dim * floor - sum ||x||^2/(B*D),
    reduced from the columns, and its draw is its mean plus sqrt(floor) times
    dim normals. A member with an eigenvalue above the floor gets
    ``estimate_mean_cov`` and ``wfdp_update``, as on its own. Each member
    draws from ``rngs[i]`` where the caller left it.

    Returns the (k, dim) non-increasing unfloored spectra in slot order (an
    estimated member's row is its estimate's spectrum), or None when
    ``spectra`` is false, and the noised updates of consecutive runs of
    covered or estimated members, in slot order.
    """
    cols = grads.columns
    if not np.isfinite(batch):  # a deterministic update: the zero spectrum
        covered = np.full(cols.shape[0], True)
        unfloored = np.zeros(cols.shape[:-1]) if spectra else None
    else:
        covered, unfloored = floor_coverage(grads, batch, floor, spectra)
    cuts = np.flatnonzero(covered[1:] != covered[:-1]) + 1
    edges = [0, *cuts.tolist(), cols.shape[0]]
    noised = []
    for start, stop in zip(edges, edges[1:]):  # runs of consecutive covered or estimated members
        members = slice(start, stop)
        if covered[start]:
            model = CovarianceModel.isotropic(cols[members].mean(axis=-1), floor)
            # every eigenvalue is lifted: d sigma^2 minus the second moment's trace
            moment_trace = grads.squared_norms[members].sum(axis=-1) / (batch * grads.count)
            lift_trace = grads.dim * floor - moment_trace
            noised.append(NoisedUpdate(sample_gaussian(model, rngs[members]), lift_trace, model))
            continue
        model = estimate_mean_cov(GradientMatrix(cols[members], grads.clip_bound), batch)
        if spectra:
            unfloored[members] = model.spectrum()
        noised.append(wfdp_update(model, floor, rngs[members]))
    return unfloored, noised


def wfna_noise(model: CovarianceModel, floor: float, rng: Generators) -> NoisedUpdate:
    """Additive variant: sample zero-mean noise with the lift covariance only.

    The lift has the model's eigenvectors, eigenvalues max(floor - lam, 0)
    and tail max(floor - tail, 0). The caller adds this to the raw
    (non-replaced) update; the sum then has the same floored covariance the
    replacement variant samples from. A model stack takes one generator per
    member.
    """
    floored, lift_trace = floor_eigenvalues(model, floor)
    lift = CovarianceModel(
        mean=np.zeros(model.mean.shape),
        eigvecs=model.eigvecs,
        eigvals=np.maximum(floor - model.eigvals, 0.0),
        tail=np.maximum(floor - model.tail, 0.0),
    )
    noise = sample_gaussian(lift, rng)
    return NoisedUpdate(vector=noise, noise_trace=lift_trace, floored=floored)


def ddp_noise(floor: float, n_users: int, dim: int, rng: Generators) -> NoisedUpdate:
    """One user's share of distributed isotropic noise.

    Zero-mean Gaussian with per-coordinate variance floor / n_users, so the
    shares of n_users participants sum to per-coordinate variance ``floor``.
    A sequence of generators gives one share per generator, stacked.
    """
    if floor < 0:
        raise ValueError(f"floor must be >= 0, got {floor}")
    if n_users < 1:
        raise ValueError(f"n_users must be >= 1, got {n_users}")
    std = np.sqrt(floor / n_users)
    trace = dim * floor / n_users
    if isinstance(rng, np.random.Generator):
        return NoisedUpdate(vector=std * rng.standard_normal(dim), noise_trace=trace)
    vector = std * _member_normals(rng, np.full(len(rng), dim))
    return NoisedUpdate(vector=vector, noise_trace=np.full(len(rng), trace))
