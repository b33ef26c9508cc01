"""Dataset ingestion: CSV files and synthetic task generators.

CSV format: comma-separated decimal floats, optional header row (flag), last
column is the label. Partitioning is an equal random split across users with
the remainder dropped (and logged).
"""

from __future__ import annotations

import csv
import io
import logging
import math
from dataclasses import dataclass

import numpy as np

from ..errors import MalformedCsv, TooFewExamples
from .models import ModelFamily, design

Array = np.ndarray

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SyntheticSpec:
    """Synthetic task description.

    task: "regression" (linear ground truth + Gaussian label noise) or
    "classification" (Bernoulli labels from a logistic ground truth).
    ``iid=False`` shifts each user's feature mean by ``shift`` along a random
    direction, breaking the identical-distribution assumption on purpose.
    """

    task: str
    features: int
    per_user: int
    noise: float = 0.1
    iid: bool = True
    shift: float = 1.0
    eval_size: int = 500

    def __post_init__(self):
        if self.task not in ("regression", "classification"):
            raise ValueError(f"unknown task {self.task!r}")
        if self.features < 1 or self.per_user < 1:
            raise ValueError("features and per_user must be positive")

    @property
    def family(self) -> ModelFamily:
        if self.task == "regression":
            return ModelFamily.LINEAR_REGRESSION
        return ModelFamily.LOGISTIC_REGRESSION


def _draw(spec: SyntheticSpec, n: int, mean_shift: Array, theta_star: Array,
          rng: np.random.Generator) -> tuple[Array, Array]:
    features = rng.standard_normal((n, spec.features)) + mean_shift
    z = design(features) @ theta_star
    if spec.task == "regression":
        labels = z + spec.noise * rng.standard_normal(n)
    else:
        labels = (rng.random(n) < 1.0 / (1.0 + np.exp(-z))).astype(float)
    return features, labels


def make_synthetic(
    spec: SyntheticSpec, n_users: int, rng: np.random.Generator
) -> tuple[list[tuple[Array, Array]], tuple[Array, Array], Array]:
    """Per-user datasets, a shared eval set, and the ground-truth parameters."""
    p = spec.features + 1
    theta_star = rng.standard_normal(p) / np.sqrt(p)
    users = []
    for _ in range(n_users):
        shift = np.zeros(spec.features)
        if not spec.iid:
            direction = rng.standard_normal(spec.features)
            shift = spec.shift * direction / np.linalg.norm(direction)
        users.append(_draw(spec, spec.per_user, shift, theta_star, rng))
    eval_set = _draw(spec, spec.eval_size, np.zeros(spec.features), theta_star, rng)
    return users, eval_set, theta_star


def load_csv(path: str, has_header: bool = False) -> tuple[Array, Array]:
    """Read a numeric UTF-8 CSV with the label in the last column; every cell must be finite."""
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = blob.count(b"\n", 0, exc.start) + 1
        raise MalformedCsv(f"undecodable byte on line {line_no}: {exc.reason}") from None
    rows: list[list[float]] = []
    reader = csv.reader(io.StringIO(text, newline=""))
    for line_no, raw in enumerate(reader, start=1):
        if not raw or (len(raw) == 1 and raw[0].strip() == ""):
            continue
        if has_header and line_no == 1:
            continue
        try:
            row = [float(cell) for cell in raw]
        except ValueError as exc:
            raise MalformedCsv(f"non-numeric cell on line {line_no}: {exc}") from None
        bad = [cell for cell, value in zip(raw, row) if not math.isfinite(value)]
        if bad:
            raise MalformedCsv(f"non-finite cell on line {line_no}: {bad[0]!r}")
        if rows and len(row) != len(rows[0]):
            raise MalformedCsv(
                f"ragged row on line {line_no}: {len(row)} cells, expected {len(rows[0])}"
            )
        rows.append(row)
    if not rows:
        raise MalformedCsv(f"no data rows in {path}")
    if len(rows[0]) < 2:
        raise MalformedCsv("need at least one feature column plus the label column")
    data = np.asarray(rows, dtype=float)
    return data[:, :-1], data[:, -1]


def partition_equal(
    features: Array, labels: Array, n_users: int, rng: np.random.Generator
) -> list[tuple[Array, Array]]:
    """Random equal-size split across users; remainder rows are dropped."""
    n = features.shape[0]
    if n < n_users:
        raise TooFewExamples(f"{n} examples cannot cover {n_users} users")
    per_user = n // n_users
    dropped = n - per_user * n_users
    if dropped:
        log.warning("dropping %d remainder example(s) for an equal %d-way split", dropped, n_users)
    order = rng.permutation(n)
    out = []
    for u in range(n_users):
        idx = order[u * per_user : (u + 1) * per_user]
        out.append((features[idx], labels[idx]))
    return out
