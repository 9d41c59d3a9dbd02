import hashlib
from math import comb
from statistics import NormalDist

import numpy as np
import pytest

from rmrll.gf2 import BinaryMatrix, BitWord
from rmrll.rll import RllSpec
from rmrll.rm import (
    RmCode,
    _and_products,
    _dimension,
    _down_set_heights,
    _point_weights,
    _variable_patterns,
    complement_basis,
    eval_monomial,
    information_points,
    point_of_index,
    select_order,
    systematic_generator,
)
from rmrll.subcodes import build_subcode

from oracles import (
    bisection_select_order,
    eval_monomial_pointwise,
    min_nonzero_weight,
    numpy_rank,
    variable_patterns_by_blocks,
    weight_order,
)


GENERATORS_SHA256 = "5aca5bd7375288eeaf18ef783b819a8744f1569de36420e8deaae7e5eaaec470"


class TestPoints:
    def test_first_variable_is_most_significant(self):
        assert point_of_index(6, 3) == (1, 1, 0)
        assert point_of_index(1, 3) == (0, 0, 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            point_of_index(8, 3)

    def test_read_as_integers(self):
        # a numpy m is not shifted in int64, where 1 << 70 wraps
        assert point_of_index(3, np.int64(70)) == point_of_index(3, 70) == (0,) * 68 + (1, 1)
        assert point_of_index(np.int64(6), 3) == (1, 1, 0)
        for i, m in ((6.0, 3), (6, 3.0), ("6", 3)):
            with pytest.raises(ValueError, match="must be an integer"):
                point_of_index(i, m)


class TestEvalMonomial:
    def test_matches_pointwise_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(80):
            m = int(rng.integers(1, 7))
            deg = int(rng.integers(0, m + 1))
            variables = tuple(
                int(v) + 1 for v in rng.choice(m, size=deg, replace=False)
            )
            word = eval_monomial(m, variables)
            for i in range(1 << m):
                assert word[i] == eval_monomial_pointwise(m, variables, i)

    def test_variable_patterns_closed_form(self):
        # pointwise for small m, and the block loop it replaced up to m = 12
        for m in range(1, 13):
            patterns = _variable_patterns(m)
            assert patterns == variable_patterns_by_blocks(m)
            if m <= 8:
                for j, pattern in enumerate(patterns, 1):
                    want = [eval_monomial_pointwise(m, [j], i) for i in range(1 << m)]
                    assert [pattern >> i & 1 for i in range(1 << m)] == want

    def test_empty_product_is_all_ones(self):
        assert eval_monomial(3, ()) == BitWord(0xFF, 8)

    def test_variable_range_checked(self):
        with pytest.raises(ValueError):
            eval_monomial(3, (4,))
        with pytest.raises(ValueError):
            eval_monomial(3, (0,))


class TestRmCode:
    def test_frozen_generator_rm31(self):
        code = RmCode(3, 1)
        rows = [BitWord(v, code.n).to01() for v in code.gen.row_values]
        assert rows == ["11111111", "00001111", "00110011", "01010101"]

    def test_monomial_order_degree_then_lex(self):
        # row x_a's point a is its lowest set bit: 1, x1, x2, x3, x1x2,
        # x1x3, x2x3, with x1 the most significant bit of a
        rows = RmCode(3, 2).gen.row_values
        assert tuple((row & -row).bit_length() - 1 for row in rows) == (0, 4, 2, 1, 6, 5, 3)

    def test_generators_pinned_bit_for_bit(self):
        # one SHA-256 over the rows, in order, of RM(m, r), its complement
        # basis and its anchored subcodes for d <= 3, for every m <= 10
        # and r, each matrix led by its row count
        h = hashlib.sha256()
        for m in range(1, 11):
            width = ((1 << m) + 7) // 8
            for r in range(m + 1):
                code = RmCode(m, r)
                mats = [code.gen, complement_basis(m, r)]
                mats += [
                    build_subcode(code, RllSpec(d)).gen for d in range(4) if m >= d.bit_length()
                ]
                for mat in mats:
                    h.update(len(mat.row_values).to_bytes(4, "little"))
                    for row in mat.row_values:
                        h.update(row.to_bytes(width, "little"))
        assert h.hexdigest() == GENERATORS_SHA256

    def test_dimension_formula(self):
        for m in range(1, 9):
            for r in range(m + 1):
                assert RmCode(m, r).k == sum(comb(m, i) for i in range(r + 1))

    def test_encode_is_row_combination(self):
        code = RmCode(2, 1)
        u = BitWord.from_string("101")
        want = code.gen.row_values[0] ^ code.gen.row_values[2]
        assert code.gen.vecmat(u).value == want

    def test_minimum_distance_small_codes(self):
        for m in range(1, 5):
            for r in range(m + 1):
                code = RmCode(m, r)
                if code.k > 12:
                    continue
                assert min_nonzero_weight(code.gen.to_array()) == 1 << (m - r)

    def test_generator_full_rank(self):
        for m in range(1, 7):
            for r in range(m + 1):
                code = RmCode(m, r)
                assert code.gen.rank() == code.k

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            RmCode(0, 0)
        with pytest.raises(ValueError):
            RmCode(3, 4)
        with pytest.raises(ValueError):
            RmCode(3, -1)

    def test_numpy_integers_give_the_int_code(self):
        # in numpy's 64-bit arithmetic 1 << 2**m overflows from m = 6 on
        for m in range(1, 9):
            for r in range(m + 1):
                m64, r64 = np.int64(m), np.int64(r)
                code = RmCode(m64, r64)
                assert code.gen == RmCode(m, r).gen
                assert (type(code.m), type(code.r), type(code.n)) == (int, int, int)
                assert complement_basis(m64, r64) == complement_basis(m, r)
                assert information_points(m64, r64) == information_points(m, r)
        gen, _ = systematic_generator(np.int64(6), np.int64(2))
        assert gen == systematic_generator(6, 2)[0]

    def test_non_integer_parameters_rejected(self):
        for entry in (RmCode, complement_basis, information_points, systematic_generator):
            for m, r in ((6.0, 2), (6, 2.0), ("6", 2)):
                with pytest.raises(ValueError, match="must be an integer"):
                    entry(m, r)


class TestPointWeights:
    def test_weights_are_bit_counts(self):
        for m in range(13):
            weights = _point_weights(m)
            assert weights.tolist() == [i.bit_count() for i in range(1 << m)]


class TestRowPoints:
    def test_point_is_the_rows_lowest_set_bit(self):
        # x_T is 0 below T and 1 at T, so its lowest set bit is T
        for m in range(1, 11):
            for r in range(m + 1):
                code = RmCode(m, r)
                assert code.points == tuple(
                    (row & -row).bit_length() - 1 for row in code.gen.row_values
                )

    def test_information_set_is_the_points(self):
        for m in range(1, 11):
            for r in range(m + 1):
                assert RmCode(m, r).information_set() == frozenset(information_points(m, r))


class TestInformationSet:
    def test_frozen_sets(self):
        assert sorted(RmCode(3, 1).information_set()) == [0, 1, 2, 4]
        assert sorted(RmCode(4, 2).information_set()) == [
            0, 1, 2, 3, 4, 5, 6, 8, 9, 10, 12,
        ]

    def test_points_are_a_prefix_of_the_weight_order(self):
        for m in range(1, 11):
            order = weight_order(m)
            for r in range(m + 1):
                points = information_points(m, r)
                assert points == tuple(order[: _dimension(m, r)])
                assert all(type(a) is int for a in points)

    def test_columns_have_full_rank(self):
        for m in range(1, 9):
            for r in range(m + 1):
                code = RmCode(m, r)
                info = sorted(code.information_set())
                assert len(info) == code.k
                assert code.gen.rank_of_columns(info) == code.k


    def test_weight_order_monomials_match_pointwise_oracle(self):
        # x_a for each point a of weight <= depth, column c holding the
        # point order[c] (c itself with no order), and 0 for the heavier
        # points
        for m in range(1, 7):
            n = 1 << m
            for order in (information_points(m, m), None):
                points = range(n) if order is None else order
                for depth in range(m + 1):
                    rows = _and_products(m, order, depth)
                    assert len(rows) == n
                    for a, row in enumerate(rows):
                        variables = [m - b for b in range(m) if a >> b & 1]
                        want = [eval_monomial_pointwise(m, variables, p) for p in points]
                        if len(variables) > depth:
                            want = [0] * n
                        assert [row >> c & 1 for c in range(n)] == want

    def test_monomials_on_a_column_subset_match_eval_monomial(self):
        # fewer columns than points: each row is as wide as the order and
        # holds x_a at the points order[c]
        rng = np.random.default_rng(25)
        for m in range(1, 7):
            n = 1 << m
            for size in (0, 1, n // 2, n - 1):
                order = rng.permutation(n)[:size]
                for depth in range(m + 1):
                    rows = _and_products(m, order, depth)
                    for a, row in enumerate(rows):
                        if a.bit_count() > depth:
                            assert row == 0
                            continue
                        full = eval_monomial(m, [m - b for b in range(m) if a >> b & 1]).value
                        assert row == sum((full >> p & 1) << c for c, p in enumerate(order.tolist()))

    def test_down_set_heights_match_pointwise_oracle(self):
        # height of column b: 1 + the last p with x_a(b) = 1 for a = order[p],
        # in the weight order and in a shuffled one
        rng = np.random.default_rng(20)
        for m in range(1, 8):
            n = 1 << m
            for order in (information_points(m, m), tuple(rng.permutation(n).tolist())):
                heights = _down_set_heights(m, order)
                assert heights.shape == (n,)
                for b in range(n):
                    ones = [
                        p
                        for p, a in enumerate(order)
                        if eval_monomial_pointwise(m, [m - v for v in range(m) if a >> v & 1], b)
                    ]
                    assert heights[b] == 1 + ones[-1]

    def test_parameter_validation(self):
        # the messages of RmCode's own checks
        cases = ((3, -1, "r must"), (3, 5, "r must"), (-1, 0, "m must"), (0, 0, "m must"))
        for m, r, message in cases:
            with pytest.raises(ValueError, match=message):
                information_points(m, r)
            with pytest.raises(ValueError, match=message):
                complement_basis(m, r)


class TestDegreePrefix:
    def test_generator_and_complement_split_the_full_generator(self):
        # rows by ascending degree: RM(m, r) is a prefix of RM(m, m)
        for m in range(1, 9):
            full = RmCode(m, m).gen.row_values
            for r in range(m + 1):
                k = RmCode(m, r).k
                assert RmCode(m, r).gen.row_values == full[:k]
                assert complement_basis(m, r).row_values == full[k:]


class TestComplementBasis:
    def test_frozen_rows_rm31(self):
        basis = complement_basis(3, 1)
        rows = [BitWord(v, basis.ncols).to01() for v in basis.row_values]
        assert rows == ["00000011", "00000101", "00010001", "00000001"]

    def test_spans_high_weight_units(self):
        for m in range(1, 7):
            n = 1 << m
            for r in range(m + 1):
                basis = complement_basis(m, r)
                expected = sum(comb(m, i) for i in range(r + 1, m + 1))
                units = [1 << i for i in range(n) if i.bit_count() >= r + 1]
                assert basis.nrows == expected
                assert basis.rank() == expected
                if units:
                    both = BinaryMatrix(basis.row_values + tuple(units), n)
                    assert both.rank() == expected
                    assert numpy_rank(both.to_array()) == expected

    def test_full_order_gives_empty_basis(self):
        basis = complement_basis(4, 4)
        assert basis.nrows == 0 and basis.rank() == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            complement_basis(3, 4)


class TestSelectOrder:
    def test_frozen_values(self):
        assert select_order(16, 0.5) == 8
        assert select_order(16, 0.8) == 9
        assert select_order(9, 0.1) == 2

    def test_monotone_in_rate(self):
        for m in (4, 9, 16):
            orders = [select_order(m, rate / 20) for rate in range(1, 20)]
            assert orders == sorted(orders)

    def test_matches_bisection_oracle(self):
        # every m <= 39 at the rate k / 2**M of every RM(M, r) with r < M,
        # M <= 24, and a seeded random grid
        rates = [_dimension(M, r) / (1 << M) for M in range(1, 25) for r in range(M)]
        cases = [(m, rate) for m in range(1, 40) for rate in rates]
        rng = np.random.default_rng(24)
        cases += zip(rng.integers(1, 40, 20_000).tolist(), rng.random(20_000).tolist())
        assert [c for c in cases if select_order(*c) != bisection_select_order(*c)] == []

    def test_tiny_rate_on_an_integer_boundary(self):
        # m/2 + sqrt(m)/2 * Qinv(1 - rate) is exactly 1 here; the quantile
        # at the rate keeps the digits that 1 - rate would lose
        assert select_order(36, NormalDist().cdf(-17 / 3)) == 1

    def test_bounds(self):
        for m in (1, 3, 10):
            for rate in (0.001, 0.25, 0.5, 0.75, 0.999):
                assert 0 <= select_order(m, rate) <= m

    def test_validation(self):
        with pytest.raises(ValueError):
            select_order(0, 0.5)
        with pytest.raises(ValueError):
            select_order(4, 0.0)
        with pytest.raises(ValueError):
            select_order(4, 1.0)
