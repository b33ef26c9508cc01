"""Differentiable model families for the federated simulation.

Both families operate on a design matrix with an appended bias column, so a
global parameter vector has length n_features + 1. ``ModelOps`` takes design
rows (``design(features)``), made once by the caller, for one user or for a
stack of users with the same number of examples.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from ..errors import EmptyDataset

Array = np.ndarray


class ModelFamily(Enum):
    LINEAR_REGRESSION = "linear_regression"
    LOGISTIC_REGRESSION = "logistic_regression"


@dataclass
class GlobalModel:
    """Server-side parameter vector plus the round counter."""

    theta: Array
    family: ModelFamily
    round_index: int = 0

    @property
    def dim(self) -> int:
        return self.theta.shape[0]


def init_model(family: ModelFamily, n_features: int) -> GlobalModel:
    return GlobalModel(theta=np.zeros(n_features + 1), family=family)


def design(features: Array) -> Array:
    """Append the bias column (to every member, for a stack of feature matrices)."""
    return np.concatenate([features, np.ones(features.shape[:-1] + (1,))], axis=-1)


def _sigmoid(z: Array) -> Array:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class ModelOps:
    """Per-example gradients, loss and metrics for one model family.

    Losses are per-example averages whose gradients are residual * phi:
    squared error / 2 for regression, log-loss for classification. Every
    method reads design rows ``phi`` (see ``design``); gradients also take a
    stack (k, D, p) of k users' rows with labels (k, D).
    """

    def __init__(self, family: ModelFamily):
        self.family = family

    def per_example_gradients(self, theta: Array, phi: Array, labels: Array) -> Array:
        if self.family is ModelFamily.LINEAR_REGRESSION:
            residual = phi @ theta - labels
        else:
            residual = _sigmoid(phi @ theta) - labels
        return residual[..., None] * phi

    def loss(self, theta: Array, phi: Array, labels: Array) -> float:
        if phi.shape[0] == 0:
            raise EmptyDataset("cannot evaluate on an empty dataset")
        z = phi @ theta
        if self.family is ModelFamily.LINEAR_REGRESSION:
            return float(0.5 * np.mean((z - labels) ** 2))
        # numerically stable mean log-loss: log(1 + e^z) - y z
        return float(np.mean(np.logaddexp(0.0, z) - labels * z))

    def metrics(self, theta: Array, phi: Array, labels: Array) -> dict:
        """MSE for regression; accuracy and log-loss for classification."""
        if phi.shape[0] == 0:
            raise EmptyDataset("cannot evaluate on an empty dataset")
        z = phi @ theta
        if self.family is ModelFamily.LINEAR_REGRESSION:
            return {"mse": float(np.mean((z - labels) ** 2))}
        predictions = (z > 0).astype(float)
        accuracy = float(np.mean(predictions == labels))
        log_loss = float(np.mean(np.logaddexp(0.0, z) - labels * z))
        return {"accuracy": accuracy, "log_loss": log_loss}


def evaluate_model(model: GlobalModel, features: Array, labels: Array) -> dict:
    """Standard deterministic metrics of a global model on a dataset."""
    return ModelOps(model.family).metrics(model.theta, design(features), labels)
