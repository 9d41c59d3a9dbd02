import math

import numpy as np
import pytest

from rmrll.channels import (
    BEC,
    BSC,
    ERASED,
    binary_entropy,
    estimate_bit_error,
    estimate_block_error,
    trial_stream,
)
from rmrll.coset import build_plan, decode, encode
from rmrll.gf2 import BitWord
from rmrll.rll import RllSpec


class TestEntropy:
    def test_known_values(self):
        assert binary_entropy(0.5) == 1.0
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.11) == pytest.approx(0.4999, abs=1e-3)

    def test_symmetry(self):
        for p in (0.1, 0.25, 0.4):
            assert binary_entropy(p) == pytest.approx(binary_entropy(1 - p))

    def test_validation(self):
        with pytest.raises(ValueError):
            binary_entropy(-0.1)
        with pytest.raises(ValueError):
            binary_entropy(1.1)


class TestChannels:
    def test_capacities(self):
        assert BEC(0.3).capacity == pytest.approx(0.7)
        assert BSC(0.0).capacity == 1.0
        assert BSC(0.5).capacity == 0.0
        assert BSC(0.1).capacity == pytest.approx(1 - binary_entropy(0.1))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            BEC(-0.01)
        with pytest.raises(ValueError):
            BEC(1.01)
        with pytest.raises(ValueError):
            BSC(2.0)

    def test_bec_extremes(self):
        w = BitWord.from_string("10110")
        rng = np.random.default_rng(1)
        clean = BEC(0.0).transmit(w, rng)
        assert clean.tolist() == [1, 0, 1, 1, 0]
        assert clean.dtype == np.int8
        gone = BEC(1.0).transmit(w, np.random.default_rng(1))
        assert (gone == ERASED).all()

    def test_bsc_extremes(self):
        w = BitWord.from_string("10110")
        assert BSC(0.0).transmit(w, np.random.default_rng(1)).tolist() == [1, 0, 1, 1, 0]
        assert BSC(1.0).transmit(w, np.random.default_rng(1)).tolist() == [0, 1, 0, 0, 1]

    def test_alphabets(self):
        w = BitWord((1 << 2000) - 1, 2000)
        rng = np.random.default_rng(2)
        bec_out = BEC(0.4).transmit(w, rng)
        assert set(np.unique(bec_out)) <= {ERASED, 0, 1}
        bsc_out = BSC(0.4).transmit(w, rng)
        assert set(np.unique(bsc_out)) <= {0, 1}

    def test_empirical_rates(self):
        n = 20000
        w = BitWord(0, n)
        erased = (BEC(0.05).transmit(w, np.random.default_rng(3)) == ERASED).mean()
        assert abs(erased - 0.05) < 0.01
        flipped = (BSC(0.1).transmit(w, np.random.default_rng(4)) == 1).mean()
        assert abs(flipped - 0.1) < 0.01

    def test_transmit_deterministic_for_fixed_stream(self):
        w = BitWord.from_string("1011001")
        a = BEC(0.5).transmit(w, trial_stream(9, 4))
        b = BEC(0.5).transmit(w, trial_stream(9, 4))
        assert np.array_equal(a, b)


class TestTrialStream:
    def test_reproducible_and_distinct(self):
        a = trial_stream(5, 0).random(4)
        b = trial_stream(5, 0).random(4)
        c = trial_stream(5, 1).random(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


def repetition_encode(i):
    return BitWord(0, 3) if i == 0 else BitWord(0b111, 3)


class TestBlockError:
    def test_repetition_code_on_bsc(self):
        # majority decoding fails with prob 3 p^2 (1-p) + p^3 = 0.028 at p = 0.1
        def decode(obs):
            return 1 if int((obs == 1).sum()) >= 2 else 0

        est = estimate_block_error(repetition_encode, decode, 2, BSC(0.1), 20000, 7)
        assert est.trials == 20000
        assert abs(est.p_hat - 0.028) < 0.006
        assert est.wrong_messages == est.errors  # this decoder never abstains
        assert est.halfwidth == pytest.approx(
            1.96 * math.sqrt(est.p_hat * (1 - est.p_hat) / est.trials)
        )

    def test_abstaining_decoder_counts_no_wrong_messages(self):
        def decode(obs):
            if (obs == ERASED).any():
                return None
            return int(obs[0])

        def encode(i):
            return BitWord(i, 1)

        est = estimate_block_error(encode, decode, 2, BEC(0.25), 8000, 11)
        assert est.wrong_messages == 0
        assert abs(est.p_hat - 0.25) < 0.02

    def test_message_space_beyond_int64(self):
        count = 3 << 70
        drawn = []

        def record(i):
            drawn.append(i)
            return BitWord(0, 1)

        estimate_block_error(record, lambda obs: None, count, BEC(0.0), 200, 5)
        assert all(0 <= i < count for i in drawn)
        assert max(drawn) > count // 2

    def test_wide_coset_plan_has_no_wrong_messages(self):
        plan = build_plan(8, 4, RllSpec(1), 3)
        assert plan.payload_bits > 64

        def dec(obs):
            result = decode(obs[: plan.k], obs[plan.k :], plan, BEC(0.05))
            return result.message if result.is_message else None

        est = estimate_block_error(
            lambda i: encode(i, plan).transmitted,
            dec,
            1 << plan.payload_bits,
            BEC(0.05),
            4,
            7,
        )
        assert est.wrong_messages == 0

    def test_deterministic_in_seed(self):
        def decode(obs):
            return 1 if int((obs == 1).sum()) >= 2 else 0

        a = estimate_block_error(repetition_encode, decode, 2, BSC(0.2), 500, 3)
        b = estimate_block_error(repetition_encode, decode, 2, BSC(0.2), 500, 3)
        c = estimate_block_error(repetition_encode, decode, 2, BSC(0.2), 500, 4)
        assert a == b
        assert a != c

    def test_validation(self):
        with pytest.raises(ValueError):
            estimate_block_error(repetition_encode, lambda o: 0, 2, BSC(0.1), 0, 1)
        with pytest.raises(ValueError):
            estimate_block_error(repetition_encode, lambda o: 0, 0, BSC(0.1), 5, 1)


class TestBitError:
    def test_uncoded_bit_on_bsc_equals_flip_probability(self):
        def encode(i):
            return BitWord(i, 1)

        # the posterior confidence is 1-p whatever is received, so the
        # estimate is exactly p for every trial count
        assert estimate_bit_error(encode, 2, BSC(0.2), 50, 13) == pytest.approx(0.2)

    def test_uncoded_bit_on_bec_is_half_erasure_rate(self):
        def encode(i):
            return BitWord(i, 1)

        # erased -> posterior 1/2 (error 1/2), else exact: mean ~ eps/2
        got = estimate_bit_error(encode, 2, BEC(0.3), 4000, 17)
        assert abs(got - 0.15) < 0.02

    def test_repetition_code_lowers_bit_error(self):
        coded = estimate_bit_error(repetition_encode, 2, BSC(0.1), 2000, 19)
        assert coded < 0.05

    def test_zero_noise_is_error_free(self):
        def encode(i):
            return BitWord(i, 2)

        assert estimate_bit_error(encode, 4, BSC(0.0), 50, 23) == 0.0
        assert estimate_bit_error(encode, 4, BEC(0.0), 50, 23) == 0.0

    def test_codebook_size_guard(self):
        def encode(i):
            return BitWord(i, 17)

        with pytest.raises(ValueError):
            estimate_bit_error(encode, (1 << 16) + 1, BSC(0.1), 5, 1)
