"""Binary Reed-Muller codes under the natural evaluation-point order.

Evaluation points z = (z_1, ..., z_m) are ordered by integer index with
z_1 the most significant bit, so lexicographic order on points equals
numeric order on indices.  Generator rows are monomial evaluations,
listed by ascending degree and, within a degree, by lexicographic order
of the variable subset, so the generator of RM(m, r) is the first k rows
of that of RM(m, m) and ``complement_basis`` holds the rest.

Write x_T for the monomial on the variables that are 1 at the point T,
and a <= b when the support of point a lies in that of point b, so
x_T(b) = 1 exactly when T <= b.  Both systematic forms in the library
come from one superset-sum (zeta) transform, ``_superset_sums``, with no
elimination.  Let F be a family of points closed under dropping a bit
down to its members (a <= T <= b with a, b in F puts T in F).  The row
R_a, the sum of x_T over the T >= a in F, is 1 at a and 0 at every
other b in F: the sum at b counts the T with a <= T <= b, all in F, and
there are 2**(|b| - |a|) of them when a <= b and none otherwise, an odd
number exactly when b = a.  The R_a over the points of weight <= r,
which come first in the weight order (``information_points``), are
[I | P] of RM(m, r) on that column order (``systematic_generator``).
For an inner subcode's anchored family {A | S} each x_T is 0 below the
index T, so the R_a by ascending a are its generator's reduced
row-echelon form, pivots at F (``coset.CosetPlan.inner_maps``).  Both
forms are unique, so they equal elimination's result bit for bit.

In the weight order the monomials x_T, listed by T in that order, put
RM(m, r)'s generator in the first k rows and its information set in the
first k columns, for every r at once; ``verify-lemmas`` checks all of
them with one ``BinaryMatrix.leading_ranks``.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from .gf2 import BitWord, BinaryMatrix
from .rll import _bisect

__all__ = [
    "point_of_index",
    "eval_monomial",
    "information_points",
    "RmCode",
    "systematic_generator",
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
    width w = 2**(m - j): a block of w 1s above w 0s, repeated every 2w
    bits, which is that 2w-bit block times the sum of 2**(2w * t) over
    the n / 2w repeats, (2**n - 1) / (2**(2w) - 1).
    """
    n = 1 << m
    out = []
    for j in range(1, m + 1):
        w = 1 << (m - j)
        out.append((((1 << w) - 1) << w) * (((1 << n) - 1) // ((1 << 2 * w) - 1)))
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


def _dimension(m: int, r: int) -> int:
    """k of RM(m, r), the number of monomials of degree at most r."""
    if m < 1:
        raise ValueError("m must be at least 1")
    if not 0 <= r <= m:
        raise ValueError("r must lie in 0..m")
    return sum(math.comb(m, i) for i in range(r + 1))


def _point_weights(m: int) -> np.ndarray:
    """Weight of every point index in [0, 2**m), by m doubling steps: the
    points in [2**b, 2**(b+1)) weigh one more than those below 2**b."""
    weights = np.zeros(1 << m, np.int8)
    for b in range(m):
        np.add(weights[: 1 << b], 1, out=weights[1 << b : 2 << b])
    return weights


def information_points(m: int, r: int) -> tuple[int, ...]:
    """Point indices of weight at most r, by ascending weight, then index.

    They are the information set of RM(m, r): there are exactly k of
    them and the generator columns there are linearly independent.  With
    r = m they are every point, in the column order of
    ``systematic_generator``.

    Built in numpy from the ``_point_weights``: the points of each weight
    by ``nonzero``, which keeps them in index order.
    """
    weights = _point_weights(m)
    by_weight = [(weights == w).nonzero()[0] for w in range(min(r, m) + 1)]
    return tuple(np.concatenate(by_weight).tolist()) if by_weight else ()


class RmCode:
    """Length 2**m evaluation code of all m-variate polynomials of degree <= r."""

    def __init__(self, m: int, r: int):
        self.k = _dimension(m, r)
        self.m = m
        self.r = r
        self.n = 1 << m
        self.monomials = _monomials(m, r)
        self.gen = BinaryMatrix(_monomial_rows(m, self.monomials), self.n)

    def __repr__(self) -> str:
        return f"RmCode(m={self.m}, r={self.r})"

    def information_set(self) -> frozenset[int]:
        """The ``information_points`` of the code, where systematic
        encoding can pin the message bits."""
        return frozenset(information_points(self.m, self.r))


def _weight_order_monomials(m: int, order: tuple[int, ...], count: int) -> dict[int, int]:
    """x_a for each of the first ``count`` points a of ``order``, the
    ``information_points(m, m)``, evaluated in that column order (column
    c is the point order[c]) and keyed by a in that order.

    Only the m variable patterns are permuted; each x_a is one AND from
    the point without its lowest bit, which comes earlier in the order.
    The first k of them are the monomials of RM(m, r), and the first k
    columns its information points.
    """
    n = 1 << m
    # index bit b is variable x_(m - b)
    variables = BinaryMatrix._trusted(_variable_patterns(m), n).column_submatrix(order)
    by_bit = variables.row_values[::-1]
    rows = {0: (1 << n) - 1}
    for a in order[1:count]:
        low = a & -a
        rows[a] = rows[a ^ low] & by_bit[low.bit_length() - 1]
    return rows


def _superset_sums(rows: dict[int, int], lower: Sequence[int], m: int) -> None:
    """Replace rows[a] by the XOR of rows[T] over the keys T >= a, in place,
    bit by bit over m bits.  The keys must be closed under dropping a bit
    down to a key, and ``lower`` must list each key one bit below another."""
    for bit in (1 << b for b in range(m)):
        for a in lower:
            if not a & bit and (above := rows.get(a | bit)) is not None:
                rows[a] ^= above


def systematic_generator(m: int, r: int) -> tuple[BinaryMatrix, tuple[int, ...]]:
    """The systematic generator [I | P] of RM(m, r) and its column order.

    Column c is the point ``order[c]``, with ``order`` the
    ``information_points(m, m)``, and row i is R_a for the information
    point a = order[i] (see the module docstring): the reduced
    row-echelon form of the permuted generator, built without it.
    """
    k = _dimension(m, r)
    order = information_points(m, m)
    rows = _weight_order_monomials(m, order, k)
    _superset_sums(rows, order[: k - math.comb(m, r)], m)  # weight below r
    return BinaryMatrix._trusted(rows.values(), 1 << m), order


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
