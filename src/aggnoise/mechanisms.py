"""Per-user update generation and noising mechanisms.

Builds raw model updates under several sampling schemes and applies the
privacy mechanisms on the clipped-gradient scale: the eigenvalue-flooring
mechanism that replaces the update with a Gaussian draw from the floored
model (the DP-bearing default), its additive variant that only samples the
lift, and the isotropic distributed baseline. Learning-rate scaling is the
caller's job so that clip/batch/dataset-size constants stay on the scale the
accountant formulas expect.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .errors import EmptyDataset, NonFinite
from .spectra import (
    CovarianceModel,
    GradientMatrix,
    estimate_mean_cov,
    floor_eigenvalues,
    sample_gaussian,
)

Array = np.ndarray


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
    that floors nothing.
    """

    vector: Array
    noise_trace: float
    floored: Optional[CovarianceModel] = None

    def __post_init__(self):
        if self.noise_trace < 0:
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


def _clipped_per_example(model, theta: Array, features: Array, labels: Array, clip: float) -> Array:
    grads = model.per_example_gradients(theta, features, labels)
    norms = np.linalg.norm(grads, axis=1)
    scale = clip / np.maximum(norms, clip)
    return grads * scale[:, None]


def _local_epochs(
    scheme: UpdateScheme, model, theta: Array, features: Array, labels: Array, clip: float,
    rng: np.random.Generator,
) -> Array:
    """FedAvg-style local training: local_steps epochs of clipped minibatch SGD."""
    n = features.shape[0]
    current = theta.copy()
    for _ in range(scheme.local_steps):
        order = rng.permutation(n)
        for start in range(0, n, scheme.batch):
            idx = order[start : start + scheme.batch]
            grads = _clipped_per_example(model, current, features[idx], labels[idx], clip)
            current = current - scheme.learning_rate * grads.mean(axis=0)
    return current - theta


def compute_update(
    scheme: UpdateScheme,
    features: Array,
    labels: Array,
    model,
    theta: Array,
    clip: float,
    rng: np.random.Generator,
) -> tuple[Array, GradientMatrix, Optional[CovarianceModel]]:
    """One round's update for a user, the clipped gradients behind it, and its estimate.

    IID_SGD averages B with-replacement samples of the clipped per-example
    gradients; FULL_GD averages all of them; GAUSSIAN_SAMPLED draws from the
    estimated update distribution (mean, second moment / (B*D)); FEDAVG runs
    local training and clips the whole resulting delta to ``clip``. All but
    FEDAVG are negated and scaled by the learning rate (FEDAVG's steps already
    carry it). The estimate is the full-dimension
    ``estimate_mean_cov(grads, scheme.batch)`` GAUSSIAN_SAMPLED drew from; it
    is None for the schemes that do not estimate.
    """
    if features.shape[0] == 0:
        raise EmptyDataset("user dataset is empty")
    eta = scheme.learning_rate
    if scheme.kind is SchemeKind.FEDAVG:
        delta = _local_epochs(scheme, model, theta, features, labels, clip, rng)
        clipped = clip_gradient(delta, clip)
        return clipped, GradientMatrix(clipped[:, None], clip), None
    grads = _clipped_per_example(model, theta, features, labels, clip).T  # (d, D)
    gmat = GradientMatrix(grads, clip)
    if scheme.kind is SchemeKind.FULL_GD:
        return -eta * grads.mean(axis=1), gmat, None
    if scheme.kind is SchemeKind.IID_SGD:
        idx = rng.integers(0, grads.shape[1], size=scheme.batch)
        return -eta * grads[:, idx].mean(axis=1), gmat, None
    if scheme.kind is SchemeKind.GAUSSIAN_SAMPLED:
        dist = estimate_mean_cov(gmat, scheme.batch)
        return -eta * sample_gaussian(dist, rng), gmat, dist
    raise ValueError(f"unknown scheme {scheme.kind}")


def estimate_fedavg_distribution(
    scheme: UpdateScheme,
    features: Array,
    labels: Array,
    model,
    theta: Array,
    clip: float,
    rng: np.random.Generator,
    samples: Optional[int] = None,
) -> CovarianceModel:
    """Update distribution under FEDAVG from M independent local-training replays.

    Each replay restarts from ``theta`` with a freshly shuffled minibatch
    order; the M resulting (whole-update-clipped) deltas are treated like a
    gradient collection, so the returned model carries the same 1/(B*M)
    second-moment scaling the other schemes use.
    """
    m = scheme.fedavg_samples if samples is None else samples
    if m < 2:
        raise ValueError(f"need at least 2 replays, got {m}")
    if features.shape[0] == 0:
        raise EmptyDataset("user dataset is empty")
    streams = rng.spawn(m)
    deltas = np.empty((theta.shape[0], m))
    for j, stream in enumerate(streams):
        delta = _local_epochs(scheme, model, theta, features, labels, clip, stream)
        deltas[:, j] = clip_gradient(delta, clip)
    return estimate_mean_cov(GradientMatrix(deltas, clip), scheme.batch)


def wfdp_update(model: CovarianceModel, floor: float, rng: np.random.Generator) -> NoisedUpdate:
    """Floor the update spectrum at ``floor`` and emit a Gaussian replacement.

    The raw update is replaced by a draw from (mean, floored covariance) of
    the full-dimension ``model``; the injected variance is the trace of the
    lift, sum_j max(0, floor - lam_j).
    """
    floored, delta = floor_eigenvalues(model, floor)
    vector = sample_gaussian(floored, rng)
    return NoisedUpdate(vector=vector, noise_trace=float(delta.eigvals.sum()), floored=floored)


def wfna_noise(
    model: CovarianceModel, floor: float, rng: np.random.Generator
) -> NoisedUpdate:
    """Additive variant: sample zero-mean noise with the lift covariance only.

    The caller adds this to the raw (non-replaced) update; the sum then has
    the same floored covariance the replacement variant samples from.
    """
    floored, delta = floor_eigenvalues(model, floor)
    noise = sample_gaussian(delta, rng)
    return NoisedUpdate(vector=noise, noise_trace=float(delta.eigvals.sum()), floored=floored)


def ddp_noise(
    floor: float, n_users: int, dim: int, rng: np.random.Generator
) -> NoisedUpdate:
    """One user's share of distributed isotropic noise.

    Zero-mean Gaussian with per-coordinate variance floor / n_users, so the
    shares of n_users participants sum to per-coordinate variance ``floor``.
    """
    if floor < 0:
        raise ValueError(f"floor must be >= 0, got {floor}")
    if n_users < 1:
        raise ValueError(f"n_users must be >= 1, got {n_users}")
    std = np.sqrt(floor / n_users)
    vector = std * rng.standard_normal(dim)
    return NoisedUpdate(vector=vector, noise_trace=dim * floor / n_users)
