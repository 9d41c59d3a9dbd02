import itertools
import math
import sys

import numpy as np
import pytest

from rmrll import rll
from rmrll.gf2 import BitWord
from rmrll.rll import (
    RllSpec,
    count_constrained,
    enumerative_decode,
    enumerative_encode,
    is_constrained,
    noiseless_capacity,
    payload_bits,
)

from oracles import brute_constrained_words, gap_ok, transfer_matrix_capacity


class TestSpec:
    def test_anchor_count(self):
        assert [RllSpec(d).anchor_count for d in range(9)] == [0, 1, 2, 2, 3, 3, 3, 3, 4]
        # defining property: smallest e with 2**e >= d + 1
        for d in range(40):
            e = RllSpec(d).anchor_count
            assert (1 << e) >= d + 1
            assert e == 0 or (1 << (e - 1)) < d + 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            RllSpec(-1)

    def test_gap_read_as_an_integer(self):
        # a numpy int becomes an int (numpy ints have no bit_length); a
        # float or a string is rejected at construction
        spec = RllSpec(np.int64(1))
        assert type(spec.d) is int and spec == RllSpec(1) and spec.anchor_count == 1
        for d in (1.5, 1.0, "1", None):
            with pytest.raises(ValueError, match="d must be an integer"):
                RllSpec(d)


class TestIsConstrained:
    def test_matches_direct_definition(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            n = int(rng.integers(0, 16))
            d = int(rng.integers(0, 5))
            bits = [int(b) for b in rng.integers(0, 2, size=n)]
            word = BitWord.from_string("".join(map(str, bits)))
            assert is_constrained(word, RllSpec(d)) == gap_ok(bits, d)

    def test_examples(self):
        s = RllSpec(1)
        assert is_constrained(BitWord.from_string("10101"), s)
        assert not is_constrained(BitWord.from_string("1101"), s)
        assert is_constrained(BitWord.from_string("1001"), RllSpec(2))
        assert not is_constrained(BitWord.from_string("1001"), RllSpec(3))
        assert is_constrained(BitWord.from_string("1111"), RllSpec(0))
        assert is_constrained(BitWord(0, 7), RllSpec(4))


class TestCounts:
    def test_matches_brute_force(self):
        for d in range(4):
            spec = RllSpec(d)
            for n in range(17):
                assert count_constrained(n, spec) == len(brute_constrained_words(n, d))

    def test_frozen_values(self):
        assert count_constrained(4, RllSpec(1)) == 8
        assert count_constrained(6, RllSpec(2)) == 13
        assert count_constrained(22, RllSpec(1)) == 46368
        assert count_constrained(0, RllSpec(3)) == 1
        assert count_constrained(64, RllSpec(0)) == 1 << 64

    def test_table_growth_is_consistent(self):
        spec = RllSpec(2)
        assert count_constrained(30, spec) == (
            count_constrained(29, spec) + count_constrained(27, spec)
        )
        with pytest.raises(ValueError):
            count_constrained(-1, spec)

    def test_payload_bits(self):
        assert payload_bits(22, RllSpec(1)) == 15
        assert payload_bits(4, RllSpec(1)) == 3
        assert payload_bits(1, RllSpec(5)) == 1
        for n in range(1, 20):
            p = payload_bits(n, RllSpec(2))
            a = count_constrained(n, RllSpec(2))
            assert (1 << p) <= a < (1 << (p + 1))
        with pytest.raises(ValueError):
            payload_bits(-1, RllSpec(1))

    def test_count_length_read_as_an_integer(self):
        assert count_constrained(np.int64(5), RllSpec(1)) == count_constrained(5, RllSpec(1)) == 13
        for n in (5.0, "5", None):
            with pytest.raises(ValueError, match="length must be an integer"):
                count_constrained(n, RllSpec(1))

    def test_payload_bits_length_read_as_an_integer(self):
        assert payload_bits(np.int64(5), RllSpec(9)) == payload_bits(5, RllSpec(9)) == 2
        for n in (5.0, "5", None):
            with pytest.raises(ValueError, match="length must be an integer"):
                payload_bits(n, RllSpec(9))

    def test_payload_bits_matches_count_table(self):
        lengths = sorted(set(range(101)) | set(range(101, 3001, 37)) | {3000})
        for d in range(6):
            table = rll._count_list(3000, d)
            for n in lengths:
                assert payload_bits(n, RllSpec(d)) == table[n].bit_length() - 1

    def test_count_matches_enumerative_table(self, monkeypatch):
        # whichever path count_constrained picks agrees with the enumerative
        # coders' table, and so does doubling on its own in the gaps it serves
        doubled = []
        honest = rll._count_by_doubling

        def spy(n, d):
            doubled.append((n, d))
            return honest(n, d)

        monkeypatch.setattr(rll, "_count_by_doubling", spy)
        lengths = sorted({*range(301), *range(301, 3001, 53), 3000})
        for d in (*range(23), *range(24, 41)):  # 23 is left to test_count_leaves_count_table
            table = rll._count_list(3000, d)
            for n in lengths:
                assert count_constrained(n, RllSpec(d)) == table[n]
                if d <= 16:
                    assert honest(n, d) == table[n]
        at_1 = [n for n, d in doubled if d == 1]
        assert 0 < len(at_1) < len(lengths)  # both paths ran at d = 1
        for d in (1, 3):
            assert count_constrained(16384, RllSpec(d)) == rll._count_list(16384, d)[16384]
        assert doubled[-2:] == [(16384, 1), (16384, 3)]

    def test_doubling_only_where_it_pays(self, monkeypatch):
        # the benchmark plans' payloads at d = 1 double; short counts and
        # wide gaps stay on the recurrence, which is faster there
        doubled = []
        monkeypatch.setattr(rll, "_count_by_doubling", lambda n, d: doubled.append(n) or 0)
        for n, d in ((22, 1), (2510, 16), (9908, 1000), (50000, 24)):
            assert count_constrained(n, RllSpec(d)) > 0
        assert doubled == []
        for n in (638, 2510):
            count_constrained(n, RllSpec(1))
        assert doubled == [638, 2510]

    def test_count_leaves_count_table(self):
        d = 23  # a gap no other test counts at
        before = list(rll._COUNTS.get(d, ()))
        count_constrained(3000, RllSpec(d))
        assert list(rll._COUNTS.get(d, ())) == before

    def test_payload_bits_for_a_gap_beyond_the_length(self):
        # for d >= n the count is n + 1, found without a window of d + 1 values
        for n in (0, 1, 10, 1000):
            assert payload_bits(n, RllSpec(2**70)) == (n + 1).bit_length() - 1
        for n in range(13):
            for d in range(15):
                spec = RllSpec(d)
                assert payload_bits(n, spec) == count_constrained(n, spec).bit_length() - 1

    def test_payload_bits_leaves_count_table(self):
        before = {d: len(a) for d, a in rll._COUNTS.items()}
        for d in (*range(6), 9):
            payload_bits(4000, RllSpec(d))
        assert {d: len(a) for d, a in rll._COUNTS.items()} == before


class TestCapacity:
    def test_frozen_values(self):
        assert noiseless_capacity(RllSpec(0)) == 1.0
        assert abs(noiseless_capacity(RllSpec(1)) - 0.6942) < 1e-3
        assert abs(noiseless_capacity(RllSpec(2)) - 0.5515) < 1e-3

    def test_matches_spectral_radius(self):
        for d in range(6):
            assert abs(noiseless_capacity(RllSpec(d)) - transfer_matrix_capacity(d)) < 1e-9

    def test_matches_count_growth(self):
        for d in (1, 2):
            spec = RllSpec(d)
            growth = math.log2(count_constrained(64, spec)) / 64
            assert abs(growth - noiseless_capacity(spec)) < 0.02

    def test_decreasing_in_d(self):
        gaps = (*range(6), 10, 10**6, 10**10, 10**17, 10**18, 10**300, 2**1023)
        caps = [noiseless_capacity(RllSpec(d)) for d in gaps]
        assert all(a > b > 0.0 for a, b in zip(caps, caps[1:]))
        # beyond the cap the value at 2**1023 bounds the capacity from above
        assert noiseless_capacity(RllSpec(10**400)) == caps[-1]

    def test_zero_tolerance_terminates(self):
        # the capacity's own bisection, run at tol 0, stops at adjacent
        # floats and agrees with the value at the fixed 1e-12
        for d in (1, 2, 5000):
            log_delta = rll._bisect(
                lambda u, d=d: d * math.log1p(math.exp(u)) + u < 0,
                math.log(sys.float_info.min),
                0.0,
                0.0,
            )
            exact = math.log1p(math.exp(log_delta)) / math.log(2)
            assert abs(exact - noiseless_capacity(RllSpec(d))) < 1e-11

    def test_large_gap_is_finite(self):
        # x**(d+1) overflows a float at these gaps; the log-form test does not
        for d in (5000, 10**6):
            cap = noiseless_capacity(RllSpec(d))
            assert 0.0 < cap < 1.0
            x = 2.0**cap
            assert abs(d * math.log(x) + math.log(x - 1)) < 1e-4

    def test_root_to_relative_accuracy_for_large_gaps(self):
        # delta = 2**cap - 1 is the root of d*log1p(delta) + log(delta) = 0,
        # about ln(d)/d, to a relative error near the tolerance
        for d in (1, 2, 10**6, 10**10, 10**17, 10**300):
            delta = math.expm1(noiseless_capacity(RllSpec(d)) * math.log(2))
            residual = d * math.log1p(delta) + math.log(delta)
            assert abs(residual) <= 1e-10 * abs(math.log(delta)), d


class TestBisect:
    def test_zero_tolerance_stops_at_adjacent_floats(self):
        # no bracket is 0 wide; bisection stops once its ends are
        # adjacent floats, and returns one of them
        cases = (
            (0.76, 0.0, 1.0),
            (-1e-300, -1.0, 1.0),
            (1e300, 0.0, 1e308),
            (math.log(1e-300), math.log(sys.float_info.min), 0.0),
        )
        for root, lo, hi in cases:
            steps = itertools.count()

            def below(x):
                assert next(steps) < 2200, "bisection did not stop"
                return x < root

            assert rll._bisect(below, lo, hi, 0.0) in (math.nextafter(root, -math.inf), root)


class TestEnumerative:
    def test_bijection_matches_lexicographic_order(self):
        for d in range(4):
            spec = RllSpec(d)
            for n in range(11):
                words = brute_constrained_words(n, d)
                assert count_constrained(n, spec) == len(words)
                for idx, bits in enumerate(words):
                    w = enumerative_encode(idx, n, spec)
                    assert tuple(w) == bits
                    assert enumerative_decode(w, spec) == idx

    def test_frozen_examples(self):
        s = RllSpec(1)
        assert enumerative_encode(7, 4, s).to01() == "1010"
        assert enumerative_encode(0, 4, s).to01() == "0000"
        assert enumerative_encode(3, 3, s).to01() == "100"
        assert enumerative_decode(BitWord.from_string("1010"), s) == 7

    def test_rejects_out_of_range_index(self):
        with pytest.raises(ValueError):
            enumerative_encode(8, 4, RllSpec(1))
        with pytest.raises(ValueError):
            enumerative_encode(-1, 4, RllSpec(1))

    def test_rejects_negative_length(self):
        # the coders' table would read a(-1) as its last entry
        with pytest.raises(ValueError, match="length must be nonnegative"):
            enumerative_encode(0, -1, RllSpec(1))

    def test_rejects_non_integer_index(self):
        # a float is not truncated to the index below it; numpy ints pass
        for index in (3.5, 3.0, np.float64(3.0), "3", None):
            with pytest.raises(ValueError, match="index must be an integer"):
                enumerative_encode(index, 4, RllSpec(1))
        for index in (np.int64(7), np.uint8(7)):
            assert enumerative_encode(index, 4, RllSpec(1)).to01() == "1010"

    def test_length_read_as_an_integer(self):
        # a numpy length past 64 bits does not overflow the counts; a float is rejected
        word = enumerative_encode(3, np.int64(70), RllSpec(1))
        assert word == enumerative_encode(3, 70, RllSpec(1)) and type(len(word)) is int
        for n in (4.0, "4", None):
            with pytest.raises(ValueError, match="length must be an integer"):
                enumerative_encode(3, n, RllSpec(1))

    def test_rejects_unconstrained_word(self):
        with pytest.raises(ValueError):
            enumerative_decode(BitWord.from_string("110"), RllSpec(1))

    def test_round_trip_larger_lengths(self):
        spec = RllSpec(3)
        n = 25
        total = count_constrained(n, spec)
        for idx in range(0, total, 37):
            w = enumerative_encode(idx, n, spec)
            assert is_constrained(w, spec)
            assert enumerative_decode(w, spec) == idx
