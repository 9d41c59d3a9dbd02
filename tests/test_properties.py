"""Hypothesis property tests of the packed-integer code.

Monomial evaluations are checked against the pointwise oracle in
oracles.py, and every generator that is built from monomials (RM codes,
complement bases, anchored subcodes) against ``eval_monomial`` of the
monomials it is defined by.  Linear solving and row reduction are
checked against the numpy rank and RREF oracles, on small square-ish
matrices and on wide ones of up to 40 x 200, and the word-parallel gap
check against the direct definition on words of up to 4096 bits.  The
systematic outer generator of a coset plan is checked, un-permuted,
against the dual code built pointwise, without row reduction.  The
closed-form rows behind both systematic forms (``_reduced_rows``) are
checked against the superset-sum (zeta) transform of the monomials on
random weight-<=r and anchored families, and that transform against its
defining sum on random families of points closed under dropping a bit.
The numpy word kernels (``vecmat``, ``support``) and the row- and
column-masked solve are checked against plain bit lists and the numpy
rank oracle, and the one-scan ``bounded_run_counts`` against
``run_profile`` on sampled orderings.  The command line's table parse
of spelled-out flags is checked against the full argparse parser on
argv mixing each command's flags with junk tokens.  Example counts are bounded so the suite stays
fast.
"""

from functools import reduce
from itertools import combinations
from math import comb
from operator import and_, xor

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rmrll import cli
from rmrll.coset import build_plan
from rmrll.gf2 import BinaryMatrix, BitWord
from rmrll.ordering import bounded_run_counts, run_profile, sample_permutation
from rmrll.rll import (
    RllSpec,
    count_constrained,
    enumerative_decode,
    enumerative_encode,
    is_constrained_value,
)
from rmrll.rm import (
    RmCode,
    _reduced_rows,
    _superset_sum_masks,
    complement_basis,
    eval_monomial,
    information_points,
    systematic_generator,
)
from rmrll.subcodes import build_subcode

from oracles import (
    eval_monomial_pointwise,
    gap_ok,
    numpy_rank,
    numpy_rref,
    per_bit_gather,
    superset_sums,
    variable_patterns_by_blocks,
    weight_order,
)

bounded = settings(max_examples=60, deadline=None)

code_params = st.integers(1, 7).flatmap(lambda m: st.tuples(st.just(m), st.integers(0, m)))


@st.composite
def matrices(draw):
    """A random BinaryMatrix of at most 9x9; rows drawn often from a few
    fixed values repeat, so rank deficiency is common."""
    nrows = draw(st.integers(0, 9))
    ncols = draw(st.integers(1, 9))
    full = (1 << ncols) - 1
    row = st.one_of(st.integers(0, full), st.sampled_from([0, 1 << (ncols - 1), full]))
    return BinaryMatrix(draw(st.lists(row, min_size=nrows, max_size=nrows)), ncols)


@st.composite
def wide_matrices(draw):
    """A random BinaryMatrix of up to 40x200, wider than one machine word;
    rows are often XORs of a few drawn rows, so rank deficiency and pivot
    collisions are common."""
    nrows = draw(st.integers(0, 40))
    ncols = draw(st.integers(1, 200))
    word = st.integers(0, (1 << ncols) - 1)
    base = draw(st.lists(word, min_size=1, max_size=6))
    mixed = st.sets(st.sampled_from(base)).map(lambda picks: reduce(xor, picks, 0))
    return BinaryMatrix(draw(st.lists(st.one_of(word, mixed), min_size=nrows, max_size=nrows)), ncols)


def degree_lex(variables, degrees):
    """Monomials over ``variables`` by ascending degree, then lexicographically."""
    return [mono for deg in degrees for mono in combinations(variables, deg)]


class TestMonomialRows:
    @bounded
    @given(st.integers(1, 7).flatmap(lambda m: st.tuples(st.just(m), st.sets(st.integers(1, m)))))
    def test_eval_monomial_matches_pointwise_oracle(self, case):
        m, variables = case
        word = eval_monomial(m, variables)
        assert len(word) == 1 << m
        for i in range(1 << m):
            assert word[i] == eval_monomial_pointwise(m, variables, i)

    @bounded
    @given(code_params)
    def test_rm_generator_rows(self, case):
        m, r = case
        code = RmCode(m, r)
        monos = degree_lex(range(1, m + 1), range(r + 1))
        assert code.gen.row_values == tuple(eval_monomial(m, v).value for v in monos)

    @bounded
    @given(code_params)
    def test_complement_basis_rows(self, case):
        m, r = case
        monos = degree_lex(range(1, m + 1), range(r + 1, m + 1))
        rows = complement_basis(m, r).row_values
        assert rows == tuple(eval_monomial(m, v).value for v in monos)

    @bounded
    @given(code_params, st.integers(0, 7))
    def test_subcode_rows_are_anchored_monomials(self, case, d):
        m, r = case
        z = RllSpec(d).anchor_count
        if m < z:
            return
        anchor = tuple(range(m - z + 1, m + 1))
        monos = degree_lex(range(1, m - z + 1), range(r - z + 1))
        sub = build_subcode(RmCode(m, r), RllSpec(d))
        assert sub.k == len(monos)
        assert sub.gen.row_values == tuple(
            eval_monomial(m, g + anchor).value for g in monos
        )


class TestSystematicOuterGenerator:
    @bounded
    @given(st.integers(1, 8).flatmap(lambda m: st.tuples(st.just(m), st.integers(0, m))))
    def test_rows_are_dual_orthogonal_and_systematic(self, case):
        # RM(m, r) is the dual of RM(m, m - r - 1), so a word orthogonal to
        # every dual generator is a codeword; identity on the first k columns
        # then leaves exactly one generator
        m, r = case
        n = 1 << m
        plan = build_plan(m, r, RllSpec(1), m, inner_order=1)
        dual = [
            sum(eval_monomial_pointwise(m, mono, i) << i for i in range(n))
            for mono in degree_lex(range(1, m + 1), range(m - r))
        ]
        perm = plan.permutation.perm
        rows = plan.outer_gen.row_values
        assert len(rows) == plan.k == sum(comb(m, i) for i in range(r + 1))
        for i, row in enumerate(rows):
            assert row & ((1 << plan.k) - 1) == 1 << i
            natural = sum(1 << perm[c] for c in range(n) if row >> c & 1)
            assert all((natural & g).bit_count() % 2 == 0 for g in dual)


@st.composite
def point_families(draw):
    """Random values on a family of points of at most 6 bits closed under
    dropping a bit down to its members: the subsets of a few drawn
    points, each joined with one drawn anchor point."""
    m = draw(st.integers(1, 6))
    point = st.integers(0, (1 << m) - 1)
    anchor = draw(point)
    tops = draw(st.lists(point, min_size=1, max_size=4))
    family = sorted({anchor | s for t in tops for s in range(1 << m) if s & t == s})
    values = draw(st.lists(st.integers(0, 255), min_size=len(family), max_size=len(family)))
    return m, dict(zip(family, values))


class TestSupersetSums:
    @bounded
    @given(point_families())
    def test_matches_defining_sum(self, case):
        m, rows = case
        want = {a: reduce(xor, (v for t, v in rows.items() if t & a == a)) for a in rows}
        assert superset_sums(rows, m) == want


@st.composite
def interval_families(draw):
    """(m, A, r) for the family of the points T >= A with |T| <= r, at
    most 8 bits: A = 0 gives the weight-<=r information points, any
    other A an anchored family like an inner subcode's."""
    m = draw(st.integers(1, 8))
    anchor = draw(st.just(0) | st.integers(0, (1 << m) - 1))
    return m, anchor, draw(st.integers(anchor.bit_count(), m))


class TestClosedFormRows:
    @bounded
    @given(interval_families())
    def test_match_superset_sums(self, case):
        # R_a = x_a & mask(|a|), against the zeta transform of the x_T
        m, anchor, r = case
        n = 1 << m
        patterns = variable_patterns_by_blocks(m)[::-1]  # index bit b is x_(m - b)
        rows = {
            t: reduce(and_, (patterns[b] for b in range(m) if t >> b & 1), (1 << n) - 1)
            for t in range(n)
            if t & anchor == anchor and t.bit_count() <= r
        }
        want = superset_sums(rows, m)
        classes = [sum(1 << b for b in range(n) if b.bit_count() == w) for w in range(m + 1)]
        masks = _superset_sum_masks(r, classes)
        assert {a: x & masks[a.bit_count()] for a, x in rows.items()} == want
        # the one builder of both forms, on natural and weight-order columns
        points, order = sorted(rows), weight_order(m)
        weights = np.array([b.bit_count() for b in range(n)])
        x_rows, reduced = [rows[a] for a in points], tuple(want[a] for a in points)
        on_order = list(per_bit_gather(x_rows, order))
        assert _reduced_rows(r, x_rows, points, weights).row_values == reduced
        assert _reduced_rows(r, on_order, points, weights[order]).row_values == per_bit_gather(
            reduced, order
        )
        if not anchor:
            gen, _ = systematic_generator(m, r)
            assert gen.row_values == per_bit_gather([want[a] for a in order[: len(want)]], order)

    def test_partial_sum_parity(self):
        # Pascal telescoping and Lucas' theorem against the sum itself:
        # with one bit per class, bit s of mask 0 is the parity at (s, t)
        for t in range(65):
            mask = _superset_sum_masks(t, [1 << s for s in range(65)])[0]
            for s in range(65):
                odd = sum(comb(s, i) for i in range(t + 1)) % 2 == 1
                assert mask >> s & 1 == odd


class TestEnumerativeBijection:
    @bounded
    @given(st.integers(0, 40), st.sampled_from((1, 2, 3)), st.data())
    def test_rank_unrank_round_trip(self, n, d, data):
        spec = RllSpec(d)
        total = count_constrained(n, spec)
        index = data.draw(st.integers(0, total - 1))
        word = enumerative_encode(index, n, spec)
        assert len(word) == n
        assert gap_ok(tuple(word), d)
        assert enumerative_decode(word, spec) == index
        if index + 1 < total:
            # lexicographic order, coordinate 0 leftmost
            assert tuple(word) < tuple(enumerative_encode(index + 1, n, spec))

    @bounded
    @given(st.integers(0, 40), st.sampled_from((1, 2, 3)), st.data())
    def test_every_constrained_word_has_a_rank(self, n, d, data):
        spec = RllSpec(d)
        bits = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        value, last = 0, -d - 1
        for i, b in enumerate(bits):  # drop each 1 that follows too soon
            if b and i - last > d:
                value |= 1 << i
                last = i
        word = BitWord(value, n)
        index = enumerative_decode(word, spec)
        assert 0 <= index < count_constrained(n, spec)
        assert enumerative_encode(index, n, spec) == word


@st.composite
def gap_cases(draw):
    """(word length, packed word, d) with words of up to 4096 bits.

    Words are dense (uniform bits), sparse (a few 1s anywhere) or
    spaced (successive 1s d, d + 1 or d + 2 apart, straddling the
    boundary between a violation and a legal gap); d runs over 0..64,
    values at or above the word length, and 5000.
    """
    n = draw(st.integers(0, 4096))
    d = draw(st.integers(0, 64) | st.integers(n, n + 8) | st.just(5000))
    kind = draw(st.sampled_from(("dense", "sparse", "spaced")))
    if kind == "dense":
        return n, draw(st.integers(0, (1 << n) - 1)), d
    if kind == "sparse":
        ones = draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=40)) if n else []
        return n, sum({1 << i for i in ones}), d
    value, pos = 0, draw(st.integers(0, 64))
    for step in draw(st.lists(st.integers(max(d, 1), d + 2), max_size=60)):
        if pos >= n:
            break
        value |= 1 << pos
        pos += step
    return n, value, d


class TestGapCheck:
    @settings(max_examples=200, deadline=None)
    @given(gap_cases())
    def test_word_parallel_check_matches_oracle(self, case):
        n, value, d = case
        bits = [(value >> i) & 1 for i in range(n)]
        assert is_constrained_value(value, d) == gap_ok(bits, d)


def check_solve_status(mat, data):
    """rank() and the solve status against the numpy rank oracle; any
    consistent solve returns a vector that solves it."""
    y = BitWord(data.draw(st.integers(0, (1 << mat.ncols) - 1)), mat.ncols)
    if data.draw(st.booleans()):  # a consistent target half the time
        u = data.draw(st.integers(0, (1 << mat.nrows) - 1))
        y = mat.vecmat(BitWord(u, mat.nrows))
    rank = numpy_rank(mat.to_array())
    stacked = numpy_rank(np.vstack([mat.to_array(), y.to_array()]))
    assert mat.rank() == rank
    sol = mat.solve_right(y)
    if stacked > rank:
        assert sol.status == "inconsistent"
        assert sol.vector is None and sol.kernel == ()
        return
    assert sol.status == ("unique" if rank == mat.nrows else "underdetermined")
    assert mat.vecmat(sol.vector) == y
    assert len(sol.kernel) == mat.nrows - rank


def check_kernel(mat):
    """The kernel basis: nrows - rank independent vectors with u * M = 0,
    the j-th with the j-th dependent row's bit as its highest bit.  The
    flip-channel decoder's prune relies on that order."""
    arr = mat.to_array()
    rank = numpy_rank(arr)
    kernel = mat.solve_right(BitWord(0, mat.ncols)).kernel
    assert len(kernel) == mat.nrows - rank
    zero = BitWord(0, mat.ncols)
    assert all(len(v) == mat.nrows and mat.vecmat(v) == zero for v in kernel)
    if kernel:
        rows = np.array([v.to_array() for v in kernel])
        assert numpy_rank(rows) == len(kernel)
    dependent = [i for i in range(mat.nrows) if numpy_rank(arr[: i + 1]) == numpy_rank(arr[:i])]
    assert [v.value.bit_length() - 1 for v in kernel] == dependent


def check_rref(mat):
    reduced, pivots = mat.rref()
    want, want_pivots = numpy_rref(mat.to_array())
    assert pivots == want_pivots
    assert np.array_equal(reduced.to_array(), want)


class TestLinearSolve:
    @bounded
    @given(matrices(), st.data())
    def test_status_matches_oracle_ranks(self, mat, data):
        check_solve_status(mat, data)

    @bounded
    @given(matrices(), st.data())
    def test_consistent_target_is_solved(self, mat, data):
        # a target built as a row combination is always consistent
        u = BitWord(data.draw(st.integers(0, (1 << mat.nrows) - 1)), mat.nrows)
        sol = mat.solve_right(mat.vecmat(u))
        assert sol.status != "inconsistent"
        assert mat.vecmat(sol.vector) == mat.vecmat(u)
        if sol.status == "unique":
            assert sol.vector == u

    @bounded
    @given(matrices())
    def test_kernel_basis(self, mat):
        check_kernel(mat)

    @bounded
    @given(matrices())
    def test_rref_matches_oracle(self, mat):
        check_rref(mat)


class TestWideMatrices:
    @bounded
    @given(wide_matrices(), st.data())
    def test_status_matches_oracle_ranks(self, mat, data):
        check_solve_status(mat, data)

    @bounded
    @given(wide_matrices())
    def test_kernel_basis(self, mat):
        check_kernel(mat)

    @bounded
    @given(wide_matrices())
    def test_rref_matches_oracle(self, mat):
        check_rref(mat)


class TestBoundedRunCounts:
    @bounded
    @given(st.integers(1, 10), st.integers(0, 2**32 - 1))
    def test_matches_run_profile_on_sampled_orderings(self, m, seed):
        ordering = sample_permutation(m, seed)
        want = [
            run_profile(information_points(m, r), ordering, RllSpec(1)).bounded_runs
            for r in range(m)
        ]
        assert bounded_run_counts(ordering) == tuple(want)


@st.composite
def vecmat_cases(draw):
    """A wide matrix, or one with no columns, and a row vector that is
    zero about a third of the time."""
    no_columns = st.integers(0, 12).map(lambda n: BinaryMatrix([0] * n, 0))
    mat = draw(wide_matrices() | no_columns)
    u = draw(st.just(0) | st.integers(0, (1 << mat.nrows) - 1))
    return mat, u


def bits_of(value: int, n: int) -> list[int]:
    return [(value >> i) & 1 for i in range(n)]


class TestWordKernels:
    @bounded
    @given(vecmat_cases(), st.integers(0, (1 << 40) - 1))
    def test_vecmat_matches_numpy(self, case, other):
        mat, u = case
        arr = mat.to_array().astype(int)
        for v in (u, other & ((1 << mat.nrows) - 1)):  # the second call reuses the row copy
            want = (np.array(bits_of(v, mat.nrows), dtype=int) @ arr) % 2
            got = mat.vecmat(BitWord(v, mat.nrows))
            assert len(got) == mat.ncols
            assert bits_of(got.value, mat.ncols) == want.tolist()

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 4096).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, (1 << n) - 1))),
        st.booleans(),
    )
    def test_support_matches_flatnonzero(self, case, top):
        n, value = case
        if top and n:
            value |= 1 << (n - 1)
        want = np.flatnonzero(np.array(bits_of(value, n), dtype=np.uint8)).tolist()
        assert BitWord(value, n).support() == tuple(want)

    @bounded
    @given(wide_matrices(), st.data())
    def test_masked_solve_matches_gathered_oracle(self, mat, data):
        """solve_right(y, rows=, cols=) is the solve of the submatrix on
        those rows and columns, over all rows and zero off ``rows``; the
        kernel vectors' highest bits are the chosen rows that reduce to
        zero, ascending."""
        nrows, ncols = mat.nrows, mat.ncols
        rows = data.draw(st.integers(0, (1 << nrows) - 1))
        cols = data.draw(st.integers(0, (1 << ncols) - 1) | st.just((1 << ncols) - 1))
        y = data.draw(st.integers(0, (1 << ncols) - 1))
        if data.draw(st.booleans()):  # a consistent target half the time
            u = data.draw(st.integers(0, (1 << nrows) - 1)) & rows
            y = mat.vecmat(BitWord(u, nrows)).value
        picked = [i for i in range(nrows) if rows >> i & 1]
        seen = [c for c in range(ncols) if cols >> c & 1]
        sub = mat.to_array()[np.ix_(picked, seen)]
        target = np.array(bits_of(y, ncols), dtype=np.uint8)[seen]
        rank = numpy_rank(sub)
        sol = mat.solve_right(BitWord(y, ncols), rows=rows, cols=cols)
        if numpy_rank(np.vstack([sub, target])) > rank:
            assert sol.status == "inconsistent"
            return
        assert sol.status == ("unique" if rank == len(picked) else "underdetermined")
        assert len(sol.vector) == nrows and sol.vector.value & ~rows == 0
        assert (mat.vecmat(sol.vector).value ^ y) & cols == 0
        assert len(sol.kernel) == len(picked) - rank
        for v in sol.kernel:
            assert len(v) == nrows and v.value & ~rows == 0
            assert mat.vecmat(v).value & cols == 0
        dependent = [
            i for j, i in enumerate(picked) if numpy_rank(sub[: j + 1]) == numpy_rank(sub[:j])
        ]
        assert [v.value.bit_length() - 1 for v in sol.kernel] == dependent

    @bounded
    @given(st.sampled_from((1, 2, 3)), st.data())
    def test_enumerative_round_trip_at_k638(self, d, data):
        spec = RllSpec(d)
        total = count_constrained(638, spec)
        index = data.draw(st.sampled_from((0, total - 1)) | st.integers(0, total - 1))
        assert enumerative_decode(enumerative_encode(index, 638, spec), spec) == index


CLI_JUNK = ["-h", "--help", "--m=6", "--tri", "--bogus", "--", "-", "-1", "-0.5", "", "nan", "x"]
CLI_VALUES = ["6", "0.5", "bsc", "out.csv", " 3", "1_0", "inf"]


@st.composite
def cli_argv(draw):
    """A command followed by (flag, value) pairs, where a value may be a
    junk token, and maybe one flag or junk token put anywhere after the
    command."""
    name = draw(st.sampled_from(sorted(cli.COMMANDS)))
    dests = ["out", "config", *(o.name for o in cli.COMMANDS[name].opts)]
    flags = st.sampled_from([cli._flag(dest) for dest in dests])
    junk = st.sampled_from(CLI_JUNK)
    pairs = draw(st.lists(st.tuples(flags, st.sampled_from(CLI_VALUES) | junk), max_size=6))
    argv = [name, *(token for pair in pairs for token in pair)]
    where = draw(st.integers(1, len(argv)))
    return argv[:where] + draw(st.lists(flags | junk, max_size=1)) + argv[where:]


class TestCommandLine:
    @settings(max_examples=150, deadline=None)
    @given(cli_argv())
    def test_table_parse_matches_argparse(self, argv):
        ns = cli._parse_spelled_out(argv)
        if ns is None:
            return
        try:
            full = cli._build_parser().parse_args(argv)
        except SystemExit:
            full = None
        # repr, because a float option may hold nan, and nan != nan
        assert full is not None and repr(vars(ns)) == repr(vars(full))
