"""Binary Reed-Muller codes under the natural evaluation-point order.

Evaluation points z = (z_1, ..., z_m) are ordered by integer index with
z_1 the most significant bit, so lexicographic order on points equals
numeric order on indices.  Write x_T for the monomial on the variables
that are 1 at the point T, and a <= b when the support of point a lies
in that of point b, so x_T(b) = 1 exactly when T <= b.

Every generator row is an x_T from one evaluator, ``_and_products``,
listed by ascending weight of T, then descending index: ascending
degree, then lexicographic order of the variables.  So RM(m, r) is the
first k rows of RM(m, m), and ``complement_basis`` holds the rest.
``RmCode.points`` records each row's T, so the anchored subcode
(``subcodes.build_subcode``) is the parent's rows at anchored points,
selected by point alone.

Both systematic forms in the library are built in closed form, with no
elimination.  Let F be the points T >= A with |T| <= r, for a fixed
point A.  For a in F the row R_a, the sum of x_T over the T >= a in F,
counts at a point b >= a the T made of a and at most r - |a| of the
s = |b| - |a| other bits of b, so R_a(b) = C(s, 0) + ... + C(s, r - |a|)
mod 2.  For b in F, s <= r - |a| and the sum is 2**s, odd exactly when
b = a: the inclusion matrix [a <= b] on F is its own inverse over GF(2).
The sum depends only on |a| and |b|, so R_a = x_a & mask(|a|), which
``_reduced_rows`` alone applies to evaluated rows for both forms.  With
A = 0, the R_a by the weight order are [I | P] of RM(m, r) on that
column order (``systematic_generator``).  For an inner subcode's
anchored family, as each x_T is 0 below T, its own rows x_a masked, by
ascending a, are its reduced row-echelon form, pivots at F, and those
rows at the row points (the inclusion matrix) map the pivot values back
to the message (``coset.CosetPlan.inner_maps``, which evaluates none).
Both forms are unique, so they equal elimination's result bit for bit.

In the weight order the monomials x_T, listed by T in that order, put
RM(m, r)'s generator in the first k rows and its information set in the
first k columns, for every r at once.  With rows and columns in that
order the matrix x_a(b) = [a <= b] is upper unitriangular, as a < b
forces |a| < |b|; ``verify-lemmas`` checks that every column's highest
1 is on its diagonal (``_down_set_columns``), so every leading block has
full rank.
"""

from __future__ import annotations

import math
from functools import lru_cache
from statistics import NormalDist
from typing import Iterable, Sequence

import numpy as np

from .gf2 import BitWord, BinaryMatrix, _int_of, _integer

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
    i, m = _integer(i, "index"), _integer(m, "m")
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


def eval_monomial(m: int, variables: Iterable[int]) -> BitWord:
    """Evaluation vector of the product of x_j for j in ``variables``.

    Variables are 1-based; the empty product is the all-ones word.
    """
    var_set = set(variables)
    if not all(1 <= j <= m for j in var_set):
        raise ValueError("variables must lie in 1..m")
    acc = (1 << (1 << m)) - 1
    for j in var_set:
        acc &= _variable_patterns(m)[j - 1]
    return BitWord(acc, 1 << m)


def _dimension(m: int, r: int) -> int:
    """k of RM(m, r), the number of monomials of degree at most r."""
    if m < 1:
        raise ValueError("m must be at least 1")
    if not 0 <= r <= m:
        raise ValueError("r must lie in 0..m")
    return sum(math.comb(m, i) for i in range(r + 1))


@lru_cache(maxsize=64)
def _point_weights(m: int) -> np.ndarray:
    """Weight of every point index in [0, 2**m), by m doubling steps: the
    points in [2**b, 2**(b+1)) weigh one more than those below 2**b."""
    weights = np.zeros(1 << m, np.int8)
    for b in range(m):
        np.add(weights[: 1 << b], 1, out=weights[1 << b : 2 << b])
    weights.flags.writeable = False  # cached
    return weights


@lru_cache(maxsize=64)
def _weight_order(m: int) -> np.ndarray:
    """Every point index by ascending weight, then index (read-only)."""
    order = np.argsort(_point_weights(m), kind="stable")  # ties keep index order
    order.flags.writeable = False  # cached
    return order


def information_points(m: int, r: int) -> tuple[int, ...]:
    """Point indices of weight at most r, by ascending weight, then index.

    They are the information set of RM(m, r): there are exactly k of
    them and the generator columns there are linearly independent.  They
    are a prefix of ``_weight_order(m)``.  Raises ValueError for m < 1
    or r outside 0..m.
    """
    m, r = _integer(m, "m"), _integer(r, "r")
    k = _dimension(m, r)
    return tuple(_weight_order(m)[:k].tolist())


class RmCode:
    """Length 2**m evaluation code of all m-variate polynomials of degree
    <= r.  Row i of ``gen`` is x_T for the point T = ``points[i]``."""

    def __init__(self, m: int, r: int):
        m, r = _integer(m, "m"), _integer(r, "r")
        self.k = _dimension(m, r)
        self.m = m
        self.r = r
        self.n = 1 << m
        # ascending weight, then descending index: a stable sort of the reversed weights
        order = np.argsort(_point_weights(m)[::-1], kind="stable")[: self.k]
        self.points: tuple[int, ...] = tuple(((self.n - 1) - order).tolist())
        rows = _and_products(m, None, r)
        self.gen = BinaryMatrix._trusted([rows[a] for a in self.points], self.n)

    def __repr__(self) -> str:
        return f"RmCode(m={self.m}, r={self.r})"

    def information_set(self) -> frozenset[int]:
        """The ``information_points`` of the code, where systematic
        encoding can pin the message bits."""
        return frozenset(self.points)


def _and_products(m: int, order, depth: int) -> list[int]:
    """x_a, the AND of the variable patterns of point a's variables, by
    index, for the a of weight at most ``depth`` (0 for the others), on
    the columns ``order``, column c the point order[c] (None: all, by index).

    Only the m variable patterns are gathered.  Then by doubling, the
    points in [2**b, 2**(b+1)) are those below 2**b with bit b added, so
    each product is one AND.
    """
    patterns, width = _variable_patterns(m), 1 << m
    if order is not None:
        patterns = BinaryMatrix._trusted(patterns, width).column_submatrix(order).row_values
        width = len(order)
    weights = _point_weights(m).tolist()
    out = [(1 << width) - 1]
    for pattern in reversed(patterns):  # index bit b is x_(m - b)
        out += [x & pattern if w < depth else 0 for x, w in zip(out, weights)]
    return out


def _down_set_columns(m: int, order) -> list[int]:
    """Column b of the matrix x_a(b) with the rows a in ``order``, for
    every point b by index: bit p is 1 exactly when order[p] has no
    variable outside b, that is when ~b <= ~order[p].  So the column is
    ``_and_products`` on the complemented order at b's complement,
    2**m - 1 - b."""
    return _and_products(m, np.subtract((1 << m) - 1, order), m)[::-1]


def _superset_sum_masks(r: int, classes: Sequence[int]) -> list[int]:
    """The mask that turns x_a into R_a for each |a| = j in 0..r: the
    union of the weight classes w >= j (``classes[w]`` marks the columns
    of the points of weight w) where C(s, 0) + ... + C(s, t) is odd, for
    s = w - j and t = r - j (see the module docstring).

    For s >= 1 Pascal's rule telescopes that sum to C(s - 1, t) mod 2,
    odd by Lucas' theorem exactly when every bit of t is a bit of s - 1.
    For s = 0 the sum is 1, and ~(s - 1) = 0 passes the same test.
    """
    return [
        sum(c for s, c in enumerate(classes[j:]) if (r - j) & ~(s - 1) == 0)
        for j in range(r + 1)  # the classes are disjoint, so the sum is their union
    ]


def _reduced_rows(r: int, rows: list[int], points, weights: np.ndarray) -> BinaryMatrix:
    """R_a = x_a & mask(|a|), masked in ``rows`` in place (so each x_a is
    freed), a the matching entry of ``points``, all of weight <= r, on the
    columns whose points weigh ``weights``; see ``_superset_sum_masks``."""
    classes = np.packbits(weights == np.arange(weights.max() + 1)[:, None], 1, bitorder="little")
    masks = _superset_sum_masks(r, list(map(_int_of, classes)))  # by |a|
    for i, a in enumerate(points):
        if (w := a.bit_count()) < r:  # at weight r, R_a = x_a
            rows[i] &= masks[w]
    return BinaryMatrix._trusted(rows, weights.size)


def systematic_generator(m: int, r: int) -> tuple[BinaryMatrix, np.ndarray]:
    """The systematic generator [I | P] of RM(m, r) and its column order,
    the read-only ``_weight_order(m)``: row i is R_a for a = order[i]
    (``_reduced_rows``), the reduced row-echelon form of the permuted
    generator, built without it."""
    m, r = _integer(m, "m"), _integer(r, "r")
    k, order = _dimension(m, r), _weight_order(m)  # m checked before 1 << m
    points = order[:k].tolist()
    rows = list(map(_and_products(m, order, r).__getitem__, points))  # the x_a's only holder
    return _reduced_rows(r, rows, points, _point_weights(m)[order]), order


def complement_basis(m: int, r: int) -> BinaryMatrix:
    """Evaluations of all monomials of degree above r: the rows of
    RM(m, m) after the first k (none for r = m).

    They span exactly the unit vectors e_i with wt(point(i)) >= r + 1,
    which complements the information set.  Raises ValueError for m < 1
    or r outside 0..m.
    """
    m, r = _integer(m, "m"), _integer(r, "r")
    k = _dimension(m, r)
    return BinaryMatrix._trusted(RmCode(m, m).gen.row_values[k:], 1 << m)


def select_order(m: int, rate: float) -> int:
    """Order whose code keeps roughly a ``rate`` fraction of dimensions.

    Returns max(floor(m/2 + sqrt(m)/2 * Qinv(1 - rate)), 0) clipped to m.
    Qinv(1 - rate) is the standard normal quantile at ``rate``
    (``NormalDist.inv_cdf``), read without forming 1 - rate, which
    loses the low digits of a rate below about 1e-7.  A tiny floor guard
    keeps an argument that should land exactly on an integer (for
    example rate = 1/2) from rounding down past it.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    if not 0.0 < rate < 1.0:
        raise ValueError("rate must lie strictly between 0 and 1")
    v = m / 2.0 + math.sqrt(m) / 2.0 * NormalDist().inv_cdf(rate)
    return min(max(math.floor(v + 1e-9), 0), m)
