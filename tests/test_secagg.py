"""Fixed-point codec and pairwise-masking channel guarantees."""

import numpy as np
import pytest
from scipy.stats import chisquare

from aggnoise.errors import DimensionMismatch, MissingParticipant, Overflow
from aggnoise.fedsim.secagg import FixedPointCodec, SAChannel, _pair_mask, secure_aggregate

QUANTUM = 2.0**-16
HALF_QUANTUM = 2.0**-17


class TestFixedPointCodec:
    def test_dyadic_round_trip_exact(self):
        codec = FixedPointCodec()
        x = np.array([3.75, -2.5, 0.0, 1.0 + QUANTUM])
        assert np.array_equal(codec.decode(codec.encode(x)), x)

    def test_rounding_bound(self):
        codec = FixedPointCodec()
        x = np.array([1.0 / 3.0])
        err = abs(codec.decode(codec.encode(x))[0] - x[0])
        assert err <= HALF_QUANTUM

    def test_sum_of_fifty_encodings(self):
        codec = FixedPointCodec()
        rng = np.random.default_rng(0)
        vectors = rng.uniform(-1, 1, size=(50, 8))
        total = np.zeros(8, dtype=np.uint64)
        for v in vectors:
            total = total + codec.encode(v)
        err = np.abs(codec.decode(total) - vectors.sum(axis=0))
        assert np.all(err <= 50 * HALF_QUANTUM)

    def test_overflow_detection(self):
        codec = FixedPointCodec()
        with pytest.raises(Overflow):
            codec.encode(np.array([2.0**31]))
        codec.encode(np.array([2.0**31 - 1]))  # just inside

    def test_negative_values_wrap_correctly(self):
        codec = FixedPointCodec()
        x = np.array([-123.456])
        out = codec.decode(codec.encode(x))
        assert abs(out[0] - x[0]) <= HALF_QUANTUM


class TestMaskCancellation:
    def test_masks_sum_to_zero_exactly(self):
        n, dim, seed = 7, 13, 99
        total = np.zeros(dim, dtype=np.uint64)
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                lo, hi = min(i, j), max(i, j)
                mask = _pair_mask(seed, lo, hi, dim)
                total = total + mask if i == lo else total - mask
        assert np.all(total == 0)

    def test_pair_mask_deterministic(self):
        a = _pair_mask(5, 0, 1, 4)
        b = _pair_mask(5, 0, 1, 4)
        assert np.array_equal(a, b)
        c = _pair_mask(6, 0, 1, 4)
        assert not np.array_equal(a, c)


class TestSAChannel:
    def test_two_user_dyadic_exact(self):
        agg = secure_aggregate([np.array([1.5]), np.array([2.25])], seed=7)
        assert agg[0] == 3.75

    def test_single_user_no_masks(self):
        agg = secure_aggregate([np.array([0.5, -1.25])], seed=3)
        assert np.array_equal(agg, [0.5, -1.25])

    def test_ten_users_matches_plain_sum(self):
        rng = np.random.default_rng(1)
        updates = [rng.uniform(-5, 5, size=6) for _ in range(10)]
        agg = secure_aggregate(updates, seed=11)
        err = np.abs(agg - np.sum(updates, axis=0))
        assert np.all(err <= 10 * HALF_QUANTUM)

    def test_missing_participant(self):
        channel = SAChannel(3, 2, seed=0)
        channel.submit(0, np.zeros(2))
        with pytest.raises(MissingParticipant):
            channel.aggregate()

    def test_double_submission_rejected(self):
        channel = SAChannel(2, 2, seed=0)
        channel.submit(0, np.zeros(2))
        with pytest.raises(ValueError):
            channel.submit(0, np.zeros(2))

    def test_dimension_mismatch(self):
        channel = SAChannel(2, 3, seed=0)
        with pytest.raises(DimensionMismatch):
            channel.submit(0, np.zeros(2))

    def test_linearity(self):
        rng = np.random.default_rng(2)
        xs = [rng.uniform(-1, 1, size=4) for _ in range(5)]
        cs = [rng.uniform(-1, 1, size=4) for _ in range(5)]
        a = secure_aggregate(xs, seed=21)
        b = secure_aggregate([x + c for x, c in zip(xs, cs)], seed=22)
        expected = a + np.sum(cs, axis=0)
        assert np.all(np.abs(b - expected) <= 2 * 5 * HALF_QUANTUM)

    def test_aggregate_deterministic_per_seed(self):
        updates = [np.array([0.1, 0.2]), np.array([-0.3, 0.4])]
        a = secure_aggregate(updates, seed=5)
        b = secure_aggregate(updates, seed=5)
        assert np.array_equal(a, b)


class TestRowStreamMasks:
    def test_ciphertexts_match_pair_mask_reference(self):
        n, dim, seed = 7, 5, 31
        rng = np.random.default_rng(4)
        updates = [rng.uniform(-3, 3, size=dim) for _ in range(n)]
        channel = SAChannel(n, dim, seed)
        for i, u in enumerate(updates):
            channel.submit(i, u)
        stored = channel.ciphertexts()
        for i, u in enumerate(updates):
            expected = channel.codec.encode(u)
            for j in range(n):
                if j > i:
                    expected = expected + _pair_mask(seed, i, j, dim)
                elif j < i:
                    expected = expected - _pair_mask(seed, j, i, dim)
            assert np.array_equal(stored[i], expected)

    def test_prg_streams_linear_in_users(self, monkeypatch):
        built = []

        class CountingSeedSequence(np.random.SeedSequence):
            def __init__(self, *args, **kwargs):
                built.append(kwargs.get("spawn_key"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(np.random, "SeedSequence", CountingSeedSequence)
        n = 50
        channel = SAChannel(n, 3, seed=8)
        for i in range(n):
            channel.submit(i, np.full(3, 0.5))
        channel.aggregate()
        assert 0 < len(built) <= n

    def test_fifty_users_aggregate_bit_exact(self):
        n, dim = 50, 9
        rng = np.random.default_rng(5)
        updates = rng.uniform(-10, 10, size=(n, dim))
        codec = FixedPointCodec()
        plain = np.zeros(dim, dtype=np.uint64)
        for u in updates:
            plain = plain + codec.encode(u)
        agg = secure_aggregate(list(updates), seed=17)
        assert np.array_equal(agg, codec.decode(plain))

    def test_participant_limit(self):
        SAChannel(2**15, 4, seed=0)  # masks are built on first submit, not here
        with pytest.raises(Overflow):
            SAChannel(2**15 + 1, 4, seed=0)

    def test_empty_update_list_rejected(self):
        with pytest.raises(ValueError):
            secure_aggregate([], seed=0)


class TestOpacity:
    def test_no_plaintext_retained_after_submission(self):
        channel = SAChannel(3, 4, seed=13)
        secret = np.array([0.25, -1.5, 3.0, 0.125])
        channel.submit(0, secret)
        # the channel's public surface exposes only submit/aggregate/ciphertexts
        public = {name for name in dir(channel) if not name.startswith("_")}
        assert public == {
            "aggregate", "ciphertexts", "codec", "dim", "n_participants", "seed", "submit",
        }
        # nothing the channel stores equals (or decodes to) the plaintext
        stored = channel.ciphertexts()[0]
        assert not np.array_equal(stored, channel.codec.encode(secret))
        assert not np.allclose(channel.codec.decode(stored), secret)

    def test_ciphertexts_look_uniform(self):
        # fixed update, fresh pair seeds per trial: top-6-bit buckets of the
        # ciphertext ring values should be indistinguishable from uniform
        update = np.array([0.7, -0.2, 1.5, 0.0, 3.25, -2.125, 0.004, 9.5])
        samples = []
        for seed in range(800):
            channel = SAChannel(3, update.shape[0], seed=seed)
            channel.submit(0, update)
            samples.append(channel.ciphertexts()[0])
        values = np.concatenate(samples)
        buckets = (values >> np.uint64(58)).astype(int)  # 64 buckets
        counts = np.bincount(buckets, minlength=64)
        _, p_value = chisquare(counts)
        assert p_value > 0.01
