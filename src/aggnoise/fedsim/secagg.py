"""Toy secure-aggregation channel: pairwise additive masks over a 2^64 ring.

Real deployments wrap this in key agreement and dropout recovery; here the
point is the trust boundary and exact decoding. Updates are fixed-point
encoded at scale 2^16, each unordered user pair (i, j), i < j,
shares a mask which enters user i's ciphertext with + and user j's with -, so
the masks of a full participant set sum to zero in the ring and the server
can decode only the aggregate. Plaintexts are not retained after submission.

All masks come from one PRG stream per channel seed. The stream lays the
pair masks out by the larger index, (0, 1), (0, 2), (1, 2), (0, 3), ...,
``dim`` raw 64-bit words each, so the mask of (i, j) starts at word
(j(j-1)/2 + i) * dim whatever the number of users. A round makes one PRG
setup and draws each pair mask once.
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
        if not (np.abs(arr) < self.magnitude_limit).all():
            if not np.isfinite(arr).all():
                raise NonFinite("cannot encode NaN or Inf")
            raise Overflow(
                f"|value| must be < {self.magnitude_limit:g} at scale 2^{SCALE_BITS}"
            )
        return np.rint(arr * self.scale).astype(np.int64).view(np.uint64)

    def decode(self, v: Array) -> Array:
        # centered lift: ring values >= 2^63 represent negatives
        return np.asarray(v, dtype=np.uint64).view(np.int64).astype(float) / self.scale


def _mask_stream(seed: int) -> np.random.PCG64:
    """The channel's one mask stream; it holds every pair's mask, ordered by the larger index."""
    return np.random.PCG64(np.random.SeedSequence(entropy=seed))


def _pair_mask(seed: int, i: int, j: int, dim: int) -> Array:
    """Deterministic ring mask shared by the unordered pair (i, j), i < j."""
    stream = _mask_stream(seed)
    stream.advance((j * (j - 1) // 2 + i) * dim)
    return stream.random_raw(dim)


def _net_masks(seed: int, n: int, dim: int) -> Array:
    """Every user's signed sum of pair masks, shape (n, dim), in the ring.

    Block j of the stream holds the masks of the pairs (0, j), ..., (j-1, j):
    users 0, ..., j-1 each add their own, user j subtracts all of them. One
    pass over the stream reads every block once; working memory is
    O(n * dim).
    """
    stream = _mask_stream(seed)
    net = np.zeros((n, dim), dtype=np.uint64)
    for j in range(1, n):
        block = stream.random_raw(j * dim).reshape(j, dim)
        net[:j] += block
        net[j] -= block.sum(axis=0, dtype=np.uint64)
    return net


class SAChannel:
    """One round's aggregation channel for a fixed participant set.

    Server-side code sees only ``aggregate()`` (and the opaque ciphertexts);
    there is no API returning an individual plaintext after submission. The
    channel stands in for every user's mask derivation, which it does once,
    on the first submission: row i of its ring buffer starts as user i's net
    mask, and user i's submission adds its encoding into that row.
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
        self._rows: Optional[Array] = None
        self._submitted = np.zeros(n_participants, dtype=bool)

    def submit(self, user_index: int, update) -> None:
        """Encode, mask and store one user's update; the plaintext is dropped."""
        if not 0 <= user_index < self.n_participants:
            raise ValueError(f"user_index {user_index} out of range")
        if self._submitted[user_index]:
            raise ValueError(f"user {user_index} already submitted")
        arr = np.asarray(update, dtype=float)
        if arr.shape != (self.dim,):
            raise DimensionMismatch(f"update shape {arr.shape}, expected ({self.dim},)")
        cipher = self.codec.encode(arr)
        if self._rows is None:
            self._rows = _net_masks(self.seed, self.n_participants, self.dim)
        self._rows[user_index] += cipher
        self._submitted[user_index] = True

    def ciphertexts(self) -> dict[int, Array]:
        """What the server observes per user (masked ring values)."""
        return {i: self._rows[i].copy() for i in np.flatnonzero(self._submitted).tolist()}

    def aggregate(self) -> Array:
        """Sum all ciphertexts in the ring and decode; masks cancel exactly."""
        missing = np.flatnonzero(~self._submitted).tolist()
        if missing:
            raise MissingParticipant(f"waiting on participant(s) {missing}")
        return self.codec.decode(self._rows.sum(axis=0, dtype=np.uint64))


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
