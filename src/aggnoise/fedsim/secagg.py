"""Toy secure-aggregation channel: pairwise additive masks over a 2^64 ring.

Real deployments wrap this in key agreement and dropout recovery; here the
point is the trust boundary and exact decoding. Updates are fixed-point
encoded at scale 2^16, each unordered user pair (i, j), i < j,
shares a mask which enters user i's ciphertext with + and user j's with -, so
the masks of a full participant set sum to zero in the ring and the server
can decode only the aggregate. Plaintexts are not retained after submission.

Masks come from one PRG stream per user: row i's stream holds the masks of
the pairs (i, i+1), (i, i+2), ... back to back, ``dim`` raw 64-bit words
each. The channel derives every user's signed net mask in one pass over the
rows, so each pair mask is drawn once and a round makes N-1 PRG setups.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import DimensionMismatch, MissingParticipant, NonFinite, Overflow

Array = np.ndarray

SCALE_BITS = 16
# |x| < 2^47 / scale keeps sums of up to 2^15 encodings inside +/- 2^62.
_MAGNITUDE_BITS = 47
_MAX_PARTICIPANTS = 1 << (62 - _MAGNITUDE_BITS)


class FixedPointCodec:
    """Round-to-nearest fixed-point encoding into the 2^64 ring, at scale 2^SCALE_BITS."""

    scale = float(1 << SCALE_BITS)
    magnitude_limit = float(1 << (_MAGNITUDE_BITS - SCALE_BITS))

    def encode(self, x) -> Array:
        arr = np.asarray(x, dtype=float)
        if not np.all(np.isfinite(arr)):
            raise NonFinite("cannot encode NaN or Inf")
        if np.any(np.abs(arr) >= self.magnitude_limit):
            raise Overflow(
                f"|value| must be < {self.magnitude_limit:g} at scale 2^{SCALE_BITS}"
            )
        return np.rint(arr * self.scale).astype(np.int64).view(np.uint64)

    def decode(self, v: Array) -> Array:
        # centered lift: ring values >= 2^63 represent negatives
        return np.asarray(v, dtype=np.uint64).view(np.int64).astype(float) / self.scale


def _row_stream(seed: int, i: int) -> np.random.PCG64:
    """User i's mask stream; it holds the masks of the pairs (i, j), j > i, in order."""
    return np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))


def _pair_mask(seed: int, i: int, j: int, dim: int) -> Array:
    """Deterministic ring mask shared by the unordered pair (i, j), i < j."""
    stream = _row_stream(seed, i)
    stream.advance((j - i - 1) * dim)
    return stream.random_raw(dim)


def _net_masks(seed: int, n: int, dim: int) -> Array:
    """Every user's signed sum of pair masks, shape (n, dim), in the ring.

    Row i's block holds the masks of the pairs (i, i+1), ..., (i, n-1): user i
    adds all of them, each user j > i subtracts its own. Working memory is
    O(n * dim).
    """
    net = np.zeros((n, dim), dtype=np.uint64)
    for i in range(n - 1):
        block = _row_stream(seed, i).random_raw((n - i - 1) * dim).reshape(n - i - 1, dim)
        net[i] += block.sum(axis=0, dtype=np.uint64)
        net[i + 1:] -= block
    return net


class SAChannel:
    """One round's aggregation channel for a fixed participant set.

    Server-side code sees only ``aggregate()`` (and the opaque ciphertexts);
    there is no API returning an individual plaintext after submission. The
    channel stands in for every user's mask derivation, which it does once,
    on the first submission.
    """

    def __init__(self, n_participants: int, dim: int, seed: int):
        if n_participants < 1:
            raise ValueError("need at least one participant")
        if n_participants > _MAX_PARTICIPANTS:
            raise Overflow(
                f"{n_participants} participants: ring sums are exact for at most "
                f"{_MAX_PARTICIPANTS}"
            )
        self.n_participants = n_participants
        self.dim = dim
        self.seed = int(seed)
        self.codec = FixedPointCodec()
        self._ciphertexts: dict[int, Array] = {}
        self._masks: Optional[Array] = None

    def submit(self, user_index: int, update) -> None:
        """Encode, mask and store one user's update; the plaintext is dropped."""
        if not 0 <= user_index < self.n_participants:
            raise ValueError(f"user_index {user_index} out of range")
        if user_index in self._ciphertexts:
            raise ValueError(f"user {user_index} already submitted")
        arr = np.asarray(update, dtype=float)
        if arr.shape != (self.dim,):
            raise DimensionMismatch(f"update shape {arr.shape}, expected ({self.dim},)")
        cipher = self.codec.encode(arr)
        if self._masks is None:
            self._masks = _net_masks(self.seed, self.n_participants, self.dim)
        self._ciphertexts[user_index] = cipher + self._masks[user_index]

    def ciphertexts(self) -> dict[int, Array]:
        """What the server observes per user (masked ring values)."""
        return {k: v.copy() for k, v in self._ciphertexts.items()}

    def aggregate(self) -> Array:
        """Sum all ciphertexts in the ring and decode; masks cancel exactly."""
        missing = [i for i in range(self.n_participants) if i not in self._ciphertexts]
        if missing:
            raise MissingParticipant(f"waiting on participant(s) {missing}")
        total = np.zeros(self.dim, dtype=np.uint64)
        for cipher in self._ciphertexts.values():
            total = total + cipher
        return self.codec.decode(total)


def secure_aggregate(updates, seed: int) -> Array:
    """Convenience one-shot aggregation of a list of equal-length updates."""
    updates = [np.asarray(u, dtype=float) for u in updates]
    if not updates:
        raise ValueError("need at least one update")
    dim = updates[0].shape[0]
    channel = SAChannel(len(updates), dim, seed)
    for i, u in enumerate(updates):
        channel.submit(i, u)
    return channel.aggregate()
