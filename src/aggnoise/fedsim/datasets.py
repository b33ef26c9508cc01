"""Dataset ingestion: CSV files and synthetic task generators.

CSV format: comma-separated decimal floats, optional header row (flag), last
column is the label. Partitioning is an equal random split across users with
the remainder dropped (and logged).

The users' data is written once, into a ``Partition``: one read-only block of
every user's design rows (bias column last) and one label vector, in user
order. A user's (features, labels) are views of it.
"""

from __future__ import annotations

import csv
import io
import itertools
import logging
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..errors import MalformedCsv, TooFewExamples
from .models import ModelFamily

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


def _block(rows: int, features: int) -> tuple[Array, Array]:
    """An empty (rows, features + 1) design block with its bias column set, and a label vector."""
    phi = np.empty((rows, features + 1))
    phi[:, -1] = 1.0
    return phi, np.empty(rows)


class Partition(Sequence):
    """The users' datasets laid out once: ``phi`` (rows, p) and ``labels`` (rows,).

    ``phi`` holds every user's design rows, bias column last, the users one
    after the other, ``sizes[u]`` rows each. Both arrays are made read-only
    here, so a stray in-place write raises instead of changing later rounds.
    Item u is user u's (features, labels): views of the block, the features
    without the bias column.
    """

    def __init__(self, phi: Array, labels: Array, sizes: Sequence[int]):
        if phi.shape[0] != labels.shape[0] or sum(sizes) != phi.shape[0]:
            raise ValueError(f"{sum(sizes)} users' rows for a block of {phi.shape[0]} rows "
                             f"and {labels.shape[0]} labels")
        phi.flags.writeable = False
        labels.flags.writeable = False
        self.phi, self.labels, self.sizes = phi, labels, list(sizes)
        self._starts = [0, *itertools.accumulate(self.sizes)]

    @classmethod
    def concatenate(cls, parts: Sequence[tuple[Array, Array]]) -> "Partition":
        """A partition holding copies of (features, labels) pairs, in order."""
        phi, labels = _block(sum(f.shape[0] for f, _ in parts), parts[0][0].shape[1])
        np.concatenate([f for f, _ in parts], out=phi[:, :-1])
        np.concatenate([y for _, y in parts], out=labels)
        return cls(phi, labels, [f.shape[0] for f, _ in parts])

    def __len__(self) -> int:
        return len(self.sizes)

    def __getitem__(self, user):
        if isinstance(user, slice):
            return [self[u] for u in range(len(self))[user]]
        user = range(len(self))[user]  # a list's negative indices and IndexError
        rows = slice(self._starts[user], self._starts[user + 1])
        return self.phi[rows, :-1], self.labels[rows]


def _draw(spec: SyntheticSpec, mean_shift: Array, theta_star: Array, rng: np.random.Generator,
          rows: Array, labels: Array) -> None:
    """Draw ``labels.shape[0]`` examples into design rows ``rows``, bias column set, and ``labels``."""
    n = labels.shape[0]
    np.add(rng.standard_normal((n, spec.features)), mean_shift, out=rows[:, :-1])
    z = rows @ theta_star
    if spec.task == "regression":
        labels[:] = z + spec.noise * rng.standard_normal(n)
    else:
        labels[:] = rng.random(n) < 1.0 / (1.0 + np.exp(-z))


def make_synthetic(
    spec: SyntheticSpec, n_users: int, rng: np.random.Generator
) -> tuple[Partition, tuple[Array, Array], Array]:
    """Per-user datasets, a shared eval set, and the ground-truth parameters.

    Each user's rows are drawn straight into the partition's block, user by
    user, then the eval set's into a block of its own.
    """
    p = spec.features + 1
    theta_star = rng.standard_normal(p) / np.sqrt(p)
    n = spec.per_user
    phi, labels = _block(n_users * n, spec.features)
    for u in range(n_users):
        shift = np.zeros(spec.features)
        if not spec.iid:
            direction = rng.standard_normal(spec.features)
            shift = spec.shift * direction / np.linalg.norm(direction)
        rows = slice(u * n, (u + 1) * n)
        _draw(spec, shift, theta_star, rng, phi[rows], labels[rows])
    eval_phi, eval_labels = _block(spec.eval_size, spec.features)
    _draw(spec, np.zeros(spec.features), theta_star, rng, eval_phi, eval_labels)
    return Partition(phi, labels, [n] * n_users), (eval_phi[:, :-1], eval_labels), theta_star


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
) -> Partition:
    """Random equal-size split across users; remainder rows are dropped.

    User u gets the rows ``order[u * per_user : (u + 1) * per_user]`` of one
    permutation ``order``, copied into the partition's block.
    """
    n = features.shape[0]
    if n < n_users:
        raise TooFewExamples(f"{n} examples cannot cover {n_users} users")
    per_user = n // n_users
    dropped = n - per_user * n_users
    if dropped:
        log.warning("dropping %d remainder example(s) for an equal %d-way split", dropped, n_users)
    kept = rng.permutation(n)[: per_user * n_users]
    phi, ys = _block(kept.shape[0], features.shape[1])
    phi[:, :-1] = features[kept]
    ys[:] = labels[kept]
    return Partition(phi, ys, [per_user] * n_users)
