"""Binary Reed-Muller codes under the natural evaluation-point order.

Evaluation points z = (z_1, ..., z_m) are ordered by integer index with
z_1 the most significant bit, so lexicographic order on points equals
numeric order on indices.  Generator rows are monomial evaluations,
listed by ascending degree and, within a degree, by lexicographic order
of the variable subset.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations
from typing import Iterable

from .gf2 import BitWord, BinaryMatrix
from .rll import _bisect

__all__ = [
    "point_of_index",
    "eval_monomial",
    "RmCode",
    "complement_basis",
    "select_order",
]


def point_of_index(i: int, m: int) -> tuple[int, ...]:
    """Binary m-tuple of index i, first variable in the most significant bit."""
    if not 0 <= i < (1 << m):
        raise ValueError("index out of range")
    return tuple((i >> (m - j)) & 1 for j in range(1, m + 1))


@lru_cache(maxsize=64)
def _variable_patterns(m: int) -> tuple[int, ...]:
    """Packed evaluation vector of each variable x_1 ... x_m.

    Bit i of pattern j-1 is the value of x_j at point index i.  Variable
    x_j reads bit (m - j) of the index, giving alternating blocks of
    width 2**(m - j).
    """
    n = 1 << m
    out = []
    for j in range(1, m + 1):
        b = m - j
        block = (1 << (1 << b)) - 1
        v = 0
        for start in range(1 << b, n, 1 << (b + 1)):
            v |= block << start
        out.append(v)
    return tuple(out)


def _monomials(m: int, r: int) -> tuple[tuple[int, ...], ...]:
    out = []
    for deg in range(r + 1):
        out.extend(combinations(range(1, m + 1), deg))
    return tuple(out)


def _monomial_rows(m: int, monomials: Iterable[Iterable[int]]) -> list[int]:
    """Packed evaluation vectors of monomials given as 1-based variables."""
    patterns = _variable_patterns(m)
    all_ones = (1 << (1 << m)) - 1
    rows = []
    for mono in monomials:
        acc = all_ones
        for j in mono:
            acc &= patterns[j - 1]
        rows.append(acc)
    return rows


def eval_monomial(m: int, variables: Iterable[int]) -> BitWord:
    """Evaluation vector of the product of x_j for j in ``variables``.

    Variables are 1-based; the empty product is the all-ones word.
    """
    var_set = set(variables)
    if not all(1 <= j <= m for j in var_set):
        raise ValueError("variables must lie in 1..m")
    return BitWord(_monomial_rows(m, [var_set])[0], 1 << m)


class RmCode:
    """Length 2**m evaluation code of all m-variate polynomials of degree <= r."""

    def __init__(self, m: int, r: int):
        if m < 1:
            raise ValueError("m must be at least 1")
        if not 0 <= r <= m:
            raise ValueError("r must lie in 0..m")
        self.m = m
        self.r = r
        self.n = 1 << m
        self.monomials = _monomials(m, r)
        self.k = len(self.monomials)
        self.gen = BinaryMatrix(_monomial_rows(m, self.monomials), self.n)

    def __repr__(self) -> str:
        return f"RmCode(m={self.m}, r={self.r})"

    def encode(self, u: BitWord) -> BitWord:
        """Codeword for message u (coefficients in generator row order)."""
        return self.gen.vecmat(u)

    def information_set(self) -> frozenset[int]:
        """Point indices whose tuple weight is at most r.

        There are exactly k of them and the corresponding generator
        columns are linearly independent, so systematic encoding can pin
        message bits to these coordinates.
        """
        return frozenset(i for i in range(self.n) if i.bit_count() <= self.r)


def complement_basis(m: int, r: int) -> BinaryMatrix:
    """Evaluations of all monomials of degree above r.

    The rows span exactly the span of the unit vectors e_i with
    wt(point(i)) >= r + 1, which complements the information set.  For
    r = m there are no such monomials and the 0-row matrix is returned.
    """
    if not 0 <= r <= m:
        raise ValueError("r must lie in 0..m")
    high = [mono for mono in _monomials(m, m) if len(mono) > r]
    return BinaryMatrix(_monomial_rows(m, high), 1 << m)


def _q_function(x: float) -> float:
    """Upper tail of the standard normal distribution."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def select_order(m: int, rate: float) -> int:
    """Order whose code keeps roughly a ``rate`` fraction of dimensions.

    Returns max(floor(m/2 + sqrt(m)/2 * Qinv(1 - rate)), 0) clipped to m,
    with the Gaussian inverse computed by bisection to absolute accuracy
    1e-12.  A tiny floor guard absorbs bisection error when the
    argument lands exactly on an integer (for example rate = 1/2).
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    if not 0.0 < rate < 1.0:
        raise ValueError("rate must lie strictly between 0 and 1")
    p = 1.0 - rate
    q = _bisect(lambda x: _q_function(x) > p, -10.0, 10.0, 1e-12)
    v = m / 2.0 + math.sqrt(m) / 2.0 * q
    return min(max(math.floor(v + 1e-9), 0), m)
