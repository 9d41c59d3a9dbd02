"""Hypothesis property tests of the packed-integer code.

Monomial evaluations are checked against the pointwise oracle in
oracles.py, and every generator that is built from monomials (RM codes,
complement bases, anchored subcodes) against ``eval_monomial`` of the
monomials it is defined by.  Example counts are bounded so the suite
stays fast.
"""

from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from rmrll.gf2 import BitWord
from rmrll.rll import RllSpec, count_constrained, enumerative_decode, enumerative_encode
from rmrll.rm import RmCode, complement_basis, eval_monomial
from rmrll.subcodes import build_subcode

from oracles import eval_monomial_pointwise, gap_ok

bounded = settings(max_examples=60, deadline=None)

code_params = st.integers(1, 7).flatmap(lambda m: st.tuples(st.just(m), st.integers(0, m)))


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
        assert code.monomials == tuple(monos)
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
