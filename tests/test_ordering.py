from math import comb

import numpy as np
import pytest

from rmrll.ordering import (
    Ordering,
    asymptotic_linear_bound,
    bounded_run_counts,
    gray_ordering,
    lex_run_count,
    lexicographic_ordering,
    permutation_bound_experiment,
    run_profile,
    sample_permutation,
    subcode_dimension_bound,
)
from rmrll.rll import RllSpec
from rmrll.rm import RmCode, information_points

from oracles import run_scan


class TestOrderings:
    def test_lexicographic_is_identity(self):
        assert lexicographic_ordering(3).perm == tuple(range(8))

    def test_gray_frozen_m3(self):
        assert gray_ordering(3).perm == (0, 1, 3, 2, 6, 7, 5, 4)

    def test_gray_steps_one_bit(self):
        for m in range(1, 8):
            perm = gray_ordering(m).perm
            assert sorted(perm) == list(range(1 << m))
            assert all((a ^ b).bit_count() == 1 for a, b in zip(perm, perm[1:]))

    def test_sampled_is_deterministic(self):
        a = sample_permutation(5, 123)
        b = sample_permutation(5, 123)
        c = sample_permutation(5, 124)
        assert a.perm == b.perm
        assert a.perm != c.perm
        assert a.kind == "sampled" and a.seed == 123

    def test_validation(self):
        for perm in (
            (0, 1, 2),  # wrong length
            (0, 1, 2, 3, 0),
            (0, 1, 2, 2),  # duplicate
            (0, 1, 2, -1),  # numpy would read -1 as the last coordinate
            (0, 1, 2, 1 << 70),  # beyond int64
            (0, 1, 2, 4),
        ):
            for given in (perm, list(perm)):
                with pytest.raises(ValueError, match="permutation"):
                    Ordering(2, given, "explicit")
        with pytest.raises(ValueError, match="permutation"):
            Ordering(2, np.array([0, 1, 1, 3]), "explicit")
        with pytest.raises(ValueError, match="one bit"):
            Ordering(2, (0, 3, 1, 2), "gray")  # 0 -> 3 flips two bits
        with pytest.raises(ValueError, match="one bit"):
            Ordering(3, (0, 1, 3, 2, 6, 4, 7, 5), "gray")  # 4 -> 7 flips two bits

    def test_m_read_as_a_nonnegative_integer(self):
        # 2.0 once raised TypeError from 1 << m, and -1 "negative shift count"
        for m in (2.0, "2", None):
            with pytest.raises(ValueError, match="m must be an integer"):
                Ordering(m, range(4), "explicit")
        with pytest.raises(ValueError, match="m must be nonnegative"):
            Ordering(-1, range(4), "explicit")
        ordering = Ordering(np.int64(2), range(4), "explicit")
        assert type(ordering.m) is int and ordering == Ordering(2, range(4), "explicit")

    def test_non_integer_entries_rejected(self):
        # once truncated (0.5 -> 0, 1.5 -> 1) or parsed ("0" -> 0)
        for perm in ([0.5, 1.5], ["0", "1"], (0, 1.0), np.array([0.0, 1.0])):
            with pytest.raises(ValueError, match="must be integers"):
                Ordering(1, perm, "explicit")

    def test_array_perm_is_stored_as_a_tuple(self):
        given = np.array([0, 2, 3, 1])
        o = Ordering(2, given, "explicit")
        assert o.perm == (0, 2, 3, 1) and type(o.perm) is tuple
        assert all(type(c) is int for c in o.perm)
        assert o == Ordering(2, (0, 2, 3, 1), "explicit")
        given[0] = 1  # the ordering keeps its own copy
        assert o.positions.tolist() == [0, 2, 3, 1]
        # tuples too are stored as Python ints, whatever their entry types
        for given, want in (
            ((True, False), (1, 0)),
            (tuple(np.array([0, 2, 3, 1])), (0, 2, 3, 1)),
            ((np.uint8(3), 2, np.int32(1), 0), (3, 2, 1, 0)),
        ):
            o = Ordering(len(want).bit_length() - 1, given, "explicit")
            assert o.perm == want and all(type(c) is int for c in o.perm)
        for m in range(1, 9):
            j = range(1 << m)
            assert lexicographic_ordering(m).perm == tuple(j)
            assert gray_ordering(m).perm == tuple(i ^ (i >> 1) for i in j)


class TestRunProfile:
    def test_frozen_lex_rm31(self):
        prof = run_profile(RmCode(3, 1).information_set(), lexicographic_ordering(3), RllSpec(1))
        assert prof.runs == ((0, 3), (4, 1))
        assert prof.bounded_runs == 2
        assert prof.tuple_count == 1
        assert prof.size == 4

    def test_frozen_gray_rm31(self):
        prof = run_profile(RmCode(3, 1).information_set(), gray_ordering(3), RllSpec(1))
        assert prof.runs == ((0, 2), (3, 1), (7, 1))
        assert prof.bounded_runs == 2  # the run touching the end is not counted
        assert prof.tuple_count == 1

    def test_matches_brute_scan(self):
        # random sets, and unions of position blocks for long runs
        rng = np.random.default_rng(41)
        for trial in range(150):
            m = int(rng.integers(1, 8))
            n = 1 << m
            ordering = (
                lexicographic_ordering(m),
                gray_ordering(m),
                sample_permutation(m, int(rng.integers(1 << 30))),
            )[trial % 3]
            if trial % 2:
                members = frozenset(
                    int(i) for i in rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False)
                )
            else:
                members = set()
                for _ in range(int(rng.integers(0, 4))):
                    a = int(rng.integers(0, n))
                    members.update(ordering.perm[a : a + int(rng.integers(1, n + 1))])
            d = trial % 4
            prof = run_profile(members, ordering, RllSpec(d))
            runs, bounded, tuples, size = run_scan(members, ordering.perm, d)
            assert prof.runs == runs
            assert prof.bounded_runs == bounded
            assert prof.tuple_count == tuples
            assert prof.size == size == len(members)

    def test_full_and_empty_sets(self):
        o = lexicographic_ordering(3)
        full = run_profile(range(8), o, RllSpec(1))
        assert full.runs == ((0, 8),) and full.bounded_runs == 0 and full.tuple_count == 4
        empty = run_profile((), o, RllSpec(1))
        assert empty.runs == () and empty.bounded_runs == 0 and empty.size == 0

    def test_out_of_range_rejected(self):
        # numpy would read member -1 as the last coordinate
        for bad in (-1, 8, 9, 1 << 70):
            with pytest.raises(ValueError, match="outside"):
                run_profile({0, bad}, lexicographic_ordering(3), RllSpec(1))
        for arr in (np.array([0, -1]), np.array([0, 8]), np.array([8], np.uint64)):
            with pytest.raises(ValueError, match="outside"):
                run_profile(arr, lexicographic_ordering(3), RllSpec(1))

    def test_non_integer_members_rejected(self):
        # [0.5, 3.9] once counted the set {0, 3}
        o = lexicographic_ordering(2)
        for bad in ([0.5, 3.9], ["0", "3"], {0, 2.0}):
            with pytest.raises(ValueError, match="must be integers"):
                run_profile(bad, o, RllSpec(1))

    def test_array_slice_matches_tuple_and_scan(self):
        # verify-lemmas passes slices of one weight-order array
        for m in range(1, 9):
            order = information_points(m, m)
            positions = np.array(order)
            for ordering in (lexicographic_ordering(m), gray_ordering(m), sample_permutation(m, m)):
                for k in (0, 1, m + 1, (1 << m) - 1, 1 << m):
                    d = k % 3
                    prof = run_profile(positions[:k], ordering, RllSpec(d))
                    assert prof == run_profile(order[:k], ordering, RllSpec(d))
                    want = run_scan(order[:k], ordering.perm, d)
                    assert (prof.runs, prof.bounded_runs, prof.tuple_count, prof.size) == want

    def test_positions_match_perm(self):
        ordering = sample_permutation(4, 5)
        assert ordering.positions.tolist() == list(ordering.perm)
        assert not ordering.positions.flags.writeable


class TestCountsAndBounds:
    def test_lex_run_count_closed_form(self):
        assert lex_run_count(3, 1) == 2
        for m in range(1, 10):
            lex = lexicographic_ordering(m)
            for r in range(m):
                info = frozenset(i for i in range(1 << m) if i.bit_count() <= r)
                prof = run_profile(info, lex, RllSpec(1))
                assert prof.bounded_runs == lex_run_count(m, r) == comb(m - 1, r)

    def test_gray_run_bound(self):
        for m in range(1, 10):
            gray = gray_ordering(m)
            for r in range(m):
                info = frozenset(i for i in range(1 << m) if i.bit_count() <= r)
                prof = run_profile(info, gray, RllSpec(1))
                assert prof.bounded_runs <= comb(m, r + 1)

    def test_bounded_run_counts_match_run_profile(self):
        # one weight scan per ordering equals a run_profile per r
        for m in range(1, 13):
            for ordering in (lexicographic_ordering(m), gray_ordering(m)):
                want = [
                    run_profile(information_points(m, r), ordering, RllSpec(1)).bounded_runs
                    for r in range(m)
                ]
                assert bounded_run_counts(ordering) == tuple(want)
        assert bounded_run_counts(lexicographic_ordering(4)) == (1, 3, 3, 1)

    def test_lex_run_count_validation(self):
        with pytest.raises(ValueError):
            lex_run_count(3, 3)

    def test_dimension_bound(self):
        assert subcode_dimension_bound(22, 11, RllSpec(1)) == 11
        assert subcode_dimension_bound(4, 3, RllSpec(2)) == 0
        assert subcode_dimension_bound(7, 100, RllSpec(0)) == 7
        with pytest.raises(ValueError):
            subcode_dimension_bound(-1, 0, RllSpec(1))

    def test_dimension_bound_reads_integers(self):
        bound = subcode_dimension_bound(np.int64(22), np.uint8(11), RllSpec(1))
        assert bound == 11 and type(bound) is int
        for k, t in ((5.5, 1), (5, 1.0), ("5", 1)):
            with pytest.raises(ValueError, match="must be an integer"):
                subcode_dimension_bound(k, t, RllSpec(1))

    def test_asymptotic_bound(self):
        assert asymptotic_linear_bound(0.5, RllSpec(1)) == 0.25
        assert asymptotic_linear_bound(0.9, RllSpec(2)) == pytest.approx(0.3)
        with pytest.raises(ValueError):
            asymptotic_linear_bound(0.0, RllSpec(1))


class TestPermutationExperiment:
    def test_deterministic_and_order_independent(self):
        code = RmCode(5, 2)
        spec = RllSpec(1)
        a = permutation_bound_experiment(code, spec, 6, 99)
        b = permutation_bound_experiment(code, spec, 6, 99)
        assert a == b
        # sample i depends only on (seed, i), not on the sample count
        c = permutation_bound_experiment(code, spec, 3, 99)
        assert a.samples[:3] == c.samples

    def test_statistics_consistent(self):
        exp = permutation_bound_experiment(RmCode(4, 1), RllSpec(2), 10, 7)
        bounds = [s.rate_bound for s in exp.samples]
        assert exp.max_bound == max(bounds)
        assert exp.mean_bound == pytest.approx(sum(bounds) / len(bounds))
        for s in exp.samples:
            assert s.rate_bound == s.dimension_bound / 16
            assert s.dimension_bound == max(exp.k - 2 * s.tuple_count, 0)
            assert 0 <= s.bounded_runs <= s.run_count

    def test_sample_count_validation(self):
        with pytest.raises(ValueError):
            permutation_bound_experiment(RmCode(3, 1), RllSpec(1), 0, 1)

    def test_mean_bound_window_rm84(self):
        # the mean sampled bound lands between K/(2 * 2^m) and K/2^m
        exp = permutation_bound_experiment(RmCode(8, 4), RllSpec(1), 50, 2024)
        k, n = exp.k, 1 << 8
        assert k / (2 * n) <= exp.mean_bound <= k / n
