import warnings
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmrll.gf2 import BinaryMatrix, BitWord
from rmrll.ordering import lexicographic_ordering, run_profile, subcode_dimension_bound
from rmrll.rll import RllSpec, is_constrained
from rmrll.rm import RmCode
from rmrll.subcodes import (
    _best_shortening,
    build_subcode,
    is_rll_code,
    largest_linear_rll_subcode,
    subcode_rate,
)

from oracles import (
    gap_ok,
    lattice_largest_rll_subcode,
    maximal_separated_sets,
    numpy_rank,
    numpy_shortened,
)


def all_codewords(gen):
    """Every word in the row span, via a reflected-binary walk."""
    words = [0]
    acc = 0
    for g in range(1, 1 << gen.nrows):
        acc ^= gen.row_values[(g & -g).bit_length() - 1]
        words.append(acc)
    return words


class TestConstruction:
    def test_frozen_single_row_cases(self):
        sub = build_subcode(RmCode(3, 1), RllSpec(1))
        assert sub.k == 1
        assert sub.gen == BinaryMatrix.from_strings(["01010101"])

        sub = build_subcode(RmCode(4, 2), RllSpec(2))
        assert sub.k == 1
        assert sub.gen == BinaryMatrix.from_strings(["0001000100010001"])

    def test_frozen_dimension(self):
        assert build_subcode(RmCode(5, 2), RllSpec(1)).k == 5

    def test_dimension_formula(self):
        for d in range(4):
            spec = RllSpec(d)
            z = spec.anchor_count
            for m in range(max(z, 1), 8):
                for r in range(m + 1):
                    sub = build_subcode(RmCode(m, r), spec)
                    want = sum(comb(m - z, i) for i in range(r - z + 1)) if r >= z else 0
                    assert sub.k == want

    def test_every_codeword_constrained(self):
        for d in range(4):
            spec = RllSpec(d)
            for m in range(max(spec.anchor_count, 1), 7):
                for r in range(m + 1):
                    sub = build_subcode(RmCode(m, r), spec)
                    if sub.k > 12:
                        continue
                    for value in all_codewords(sub.gen):
                        assert is_constrained(BitWord(value, 1 << m), spec)

    def test_rows_supported_on_anchored_residues(self):
        spec = RllSpec(3)
        z = spec.anchor_count
        sub = build_subcode(RmCode(5, 4), spec)
        for row in sub.gen.row_values:
            for pos in BitWord(row, sub.gen.ncols).support():
                assert pos % (1 << z) == (1 << z) - 1

    def test_anchored_columns_hold_the_smaller_code(self):
        # read at the positions 2**z * j + 2**z - 1, the anchored subcode of
        # RM(m, r) is RM(m - z, r - z), row for row
        for d in range(4):
            z = RllSpec(d).anchor_count
            for m in range(z + 1, 9):
                anchored = range((1 << z) - 1, 1 << m, 1 << z)
                for r in range(z, m + 1):
                    sub = build_subcode(RmCode(m, r), RllSpec(d))
                    want = RmCode(m - z, r - z).gen
                    assert sub.gen.column_submatrix(anchored) == want

    def test_points_are_the_parents_anchored_points(self):
        # in parent order, each with its parent row
        for m in range(1, 11):
            for r in range(m + 1):
                parent = RmCode(m, r)
                lowest = [(row & -row).bit_length() - 1 for row in parent.gen.row_values]
                for d in range(4):
                    low = (1 << RllSpec(d).anchor_count) - 1
                    if m < low.bit_length():
                        continue
                    sub = build_subcode(parent, RllSpec(d))
                    keep = [i for i, t in enumerate(lowest) if t & low == low]
                    assert sub.points == tuple(lowest[i] for i in keep)
                    assert sub.gen.row_values == tuple(parent.gen.row_values[i] for i in keep)

    def test_d0_reproduces_parent(self):
        parent = RmCode(3, 2)
        sub = build_subcode(parent, RllSpec(0))
        assert sub.gen == parent.gen

    def test_too_few_variables_rejected(self):
        with pytest.raises(ValueError):
            build_subcode(RmCode(1, 1), RllSpec(2))

    def test_encode(self):
        sub = build_subcode(RmCode(5, 2), RllSpec(1))
        word = sub.encode(BitWord((1 << sub.k) - 1, sub.k))
        assert len(word) == 32
        assert is_constrained(word, RllSpec(1))


class TestRate:
    def test_frozen_value(self):
        assert subcode_rate(10, 5, RllSpec(1)) == 0.25

    def test_matches_construction_dimension(self):
        for d in range(4):
            spec = RllSpec(d)
            for m in range(max(spec.anchor_count, 1), 7):
                for r in range(m + 1):
                    sub = build_subcode(RmCode(m, r), spec)
                    assert subcode_rate(m, r, spec) == sub.k / (1 << m)

    def test_zero_when_order_below_anchor_count(self):
        assert subcode_rate(5, 1, RllSpec(2)) == 0.0
        assert subcode_rate(1, 1, RllSpec(2)) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            subcode_rate(3, 4, RllSpec(1))

    def test_parameters_read_as_integers(self):
        # a numpy m is not shifted in int64, where 1 << 70 overflows to inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rate = subcode_rate(np.int64(70), np.int64(1), RllSpec(1))
        assert rate == subcode_rate(70, 1, RllSpec(1)) == 2.0**-70  # C(69, 0) / 2**70
        for m, r in ((5.0, 1), (5, 1.0), ("5", 1)):
            with pytest.raises(ValueError, match="must be an integer"):
                subcode_rate(m, r, RllSpec(1))


PINNED_M5_ROWS = [  # d, r, (construction, exact, run bound) at m = 5
    (1, 3, (11, 11, 15)),
    (1, 4, (15, 15, 16)),
    (1, 5, (16, 16, 16)),
    (2, 3, (4, 6, 10)),
    (2, 4, (7, 10, 11)),
    (2, 5, (8, 11, 12)),
    (3, 3, (4, 4, 14)),
    (3, 4, (7, 7, 10)),
    (3, 5, (8, 8, 8)),
]


class TestOracle:
    def test_frozen_values(self):
        assert largest_linear_rll_subcode(RmCode(3, 1), RllSpec(1))[0] == 1
        assert largest_linear_rll_subcode(RmCode(4, 1), RllSpec(1))[0] == 1
        assert largest_linear_rll_subcode(RmCode(4, 1), RllSpec(2))[0] == 0

    def test_whole_space_reaches_the_dimension_bound(self):
        # RM(4, 4) holds every word of length 16; the optimum meets the bound
        code = RmCode(4, 4)
        for d, want in ((1, 8), (2, 6)):
            spec = RllSpec(d)
            dim, basis = largest_linear_rll_subcode(code, spec)
            prof = run_profile(code.information_set(), lexicographic_ordering(4), spec)
            assert dim == want == subcode_dimension_bound(code.k, prof.tuple_count, spec)
            assert basis.rank() == dim
            for value in all_codewords(basis):
                assert is_constrained(BitWord(value, code.n), spec)

    def test_rm31_constrained_codewords(self):
        # the only constrained words in RM(3,1): 0, x3, 1+x3, 1+x1+x3
        spec = RllSpec(1)
        code = RmCode(3, 1)
        good = {
            BitWord(v, 8).to01()
            for v in all_codewords(code.gen)
            if is_constrained(BitWord(v, 8), spec)
        }
        assert good == {"00000000", "01010101", "10101010", "10100101"}

    def test_basis_span_is_constrained_and_independent(self):
        for m, r, d in [(3, 1, 1), (4, 1, 1), (4, 2, 1), (4, 2, 2), (5, 1, 1)]:
            code = RmCode(m, r)
            spec = RllSpec(d)
            dim, basis = largest_linear_rll_subcode(code, spec)
            assert basis.nrows == dim
            assert basis.rank() == dim
            for value in all_codewords(basis):
                assert is_constrained(BitWord(value, code.n), spec)

    def test_sandwich_against_construction_and_bound(self):
        for m, r, d in [(3, 1, 1), (4, 1, 1), (3, 1, 2), (4, 1, 2), (4, 2, 1), (4, 2, 2)]:
            code = RmCode(m, r)
            spec = RllSpec(d)
            oracle_dim, _ = largest_linear_rll_subcode(code, spec)
            construction = build_subcode(code, spec).k
            prof = run_profile(code.information_set(), lexicographic_ordering(m), spec)
            bound = subcode_dimension_bound(code.k, prof.tuple_count, spec)
            assert construction <= oracle_dim <= bound

    def test_d0_oracle_is_whole_code(self):
        code = RmCode(3, 2)
        dim, basis = largest_linear_rll_subcode(code, RllSpec(0))
        assert dim == code.k
        assert basis == code.gen

    def test_dimension_guard(self):
        # every length-32 code is searched; above it only r <= 1 has an answer
        assert largest_linear_rll_subcode(RmCode(5, 5), RllSpec(1))[0] == 16
        with pytest.raises(ValueError, match="length at most 32 or order at most 1"):
            largest_linear_rll_subcode(RmCode(6, 2), RllSpec(1))

    @pytest.mark.parametrize("d, r, want", PINNED_M5_ROWS)
    def test_pinned_m5_rows(self, d, r, want):
        # (construction, exact, run bound); the construction is not optimal for d = 2
        code, spec = RmCode(5, r), RllSpec(d)
        dim, basis = largest_linear_rll_subcode(code, spec)
        prof = run_profile(code.information_set(), lexicographic_ordering(5), spec)
        bound = subcode_dimension_bound(code.k, prof.tuple_count, spec)
        assert (build_subcode(code, spec).k, dim, bound) == want
        assert basis.rank() == dim
        assert is_rll_code(basis, d)


SEARCH_CODES = [(m, r, d) for m in range(1, 5) for r in range(m + 1) for d in (1, 2, 3)] + [
    (5, r, d) for r in range(3) for d in (1, 2, 3)
]
LATTICE_CODES = (
    SEARCH_CODES
    + [(m, r, d) for m in range(6, 9) for r in range(2) for d in (1, 2, 3)]  # closed form
    + [(3, 1, 8)]  # m < z: no anchored construction, and the optimum is 0
)


@pytest.mark.parametrize("m, r, d", LATTICE_CODES)
def test_optimum_matches_lattice_search(m, r, d):
    code, spec = RmCode(m, r), RllSpec(d)
    dim, basis = largest_linear_rll_subcode(code, spec)
    assert dim == lattice_largest_rll_subcode(code, spec)[0]
    assert basis.nrows == basis.rank() == dim
    # inside the code: adding the basis to the generator keeps its rank
    assert BinaryMatrix(code.gen.row_values + basis.row_values, code.n).rank() == code.k
    assert is_rll_code(basis, d)


@pytest.mark.parametrize("m, r, d", SEARCH_CODES)
def test_search_matches_every_maximal_set(m, r, d):
    # the best shortening over the listed sets, and the first set that reaches it
    code = RmCode(m, r)
    gen = code.gen.to_array()
    sets = list(maximal_separated_sets(code.n, d, -d - 1))
    dims = [code.k - numpy_rank(gen[:, [c for c in range(code.n) if not s >> c & 1]]) for s in sets]
    dim, basis = largest_linear_rll_subcode(code, RllSpec(d))
    assert dim == max(dims)
    want, got = numpy_shortened(gen, sets[dims.index(dim)]), basis.to_array()
    assert numpy_rank(got) == numpy_rank(want) == numpy_rank(np.vstack([want, got])) == dim


def test_search_needs_no_solve_or_product(monkeypatch):
    # the search carries the shortened rows, so no kernel is solved for or multiplied out
    def refuse(*args, **kwargs):
        raise AssertionError("the search called a solve or a product")

    monkeypatch.setattr(BinaryMatrix, "solve_right", refuse)
    monkeypatch.setattr(BinaryMatrix, "vecmat", refuse)
    for d, r, want in PINNED_M5_ROWS:
        dim, basis = largest_linear_rll_subcode(RmCode(5, r), RllSpec(d))
        assert dim == basis.nrows == want[1]


@pytest.mark.parametrize("r", [0, 1])
def test_search_beyond_32_matches_closed_form(r):
    # n = 64 is answered in closed form for r <= 1; the search reaches the same
    # dimension.  For d = r = 1 it keeps 1 + x_m, on the first S (the even
    # positions), where the closed form gives x_m: both are optimal.
    code = RmCode(6, r)
    for d in (1, 2, 3, 4):
        rows = tuple(_best_shortening(code.gen.row_values, code.n, d))
        assert len(rows) == largest_linear_rll_subcode(code, RllSpec(d))[0]
        assert is_rll_code(BinaryMatrix(rows, code.n), d)
        assert BinaryMatrix(code.gen.row_values + rows, code.n).rank() == code.k


def test_maximal_separated_sets_match_filtered_cube():
    for n in range(1, 11):
        for d in range(5):

            def separated(mask):
                return gap_ok([(mask >> i) & 1 for i in range(n)], d)

            want = {
                s
                for s in range(1 << n)
                if separated(s) and not any(separated(s | 1 << i) for i in range(n) if not s >> i & 1)
            }
            got = list(maximal_separated_sets(n, d, -d - 1))
            assert len(got) == len(want) and set(got) == want


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_is_rll_code_matches_enumerated_span(data):
    n = data.draw(st.integers(1, 12))
    rows = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=6))
    d = data.draw(st.integers(0, n + 1))
    gen = BinaryMatrix(rows, n)
    want = all(gap_ok([(w >> i) & 1 for i in range(n)], d) for w in all_codewords(gen))
    assert is_rll_code(gen, d) == want
