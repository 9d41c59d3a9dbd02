"""Linear subcodes whose nonzero codewords all satisfy the gap constraint.

The construction anchors every monomial with the product of the last
z = d.bit_length() variables: anchored evaluations are supported on
coordinates congruent to 2**z - 1 mod 2**z, so consecutive 1s are at
least 2**z - 1 >= d apart, and the property survives linear
combinations.

A linear code is gap-constrained exactly when its support, the OR of a
basis, is (``is_rll_code``).  If: dropping 1s from a word only widens
its gaps.  Only if: for support positions i < j at most d apart, take
codewords a with a 1 at i and b with a 1 at j; a, b or a + b has 1s at
both (a + b when a is 0 at j and b at i), so some codeword breaks the
gap.  So a gap-constrained subcode of C with support S lies in C
shortened to S, the codewords zero off S, which is gap-constrained when
S is d-separated (its positions d + 1 or more apart).  A larger S keeps
every word, so the largest is C shortened to a maximal d-separated S,
of dimension k - rank(G on the columns off S).  The construction
shortens C to the positions 2**z - 1 mod 2**z.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from math import comb
from typing import Sequence

from .gf2 import BitWord, BinaryMatrix, _integer, _row_basis
from .rll import RllSpec, is_constrained_value
from .rm import RmCode

SEARCH_MAX_N = 32  # longest code whose maximal d-separated sets are all tried

__all__ = [
    "RllSubcode",
    "build_subcode",
    "subcode_rate",
    "is_rll_code",
    "largest_linear_rll_subcode",
]


@dataclass(frozen=True)
class RllSubcode:
    """Gap-respecting linear subcode of a Reed-Muller parent code."""

    parent: RmCode
    spec: RllSpec
    gen: BinaryMatrix
    k: int
    points: tuple[int, ...]  # row i is the parent's x_T for T = points[i]

    def encode(self, u: BitWord) -> BitWord:
        return self.gen.vecmat(u)


def build_subcode(parent: RmCode, spec: RllSpec) -> RllSubcode:
    """Anchored-monomial subcode of dimension C(m-z, <= r-z).

    Its rows are the parent's rows (x_{m-z+1} * ... * x_m) * g, g of
    degree <= r - z in the first m - z variables: those whose point
    (``RmCode.points``) has its low z bits all 1, kept in parent order
    with their points.  r < z gives the zero code.
    """
    z = spec.anchor_count
    if parent.m < z:
        raise ValueError(f"need m >= {z} to anchor the gap constraint for d={spec.d}")
    low = (1 << z) - 1  # the anchor variables' bits of a point
    keep = [t & low == low for t in parent.points]
    rows, points = list(compress(parent.gen.row_values, keep)), tuple(compress(parent.points, keep))
    return RllSubcode(parent, spec, BinaryMatrix._trusted(rows, parent.n), len(rows), points)


def subcode_rate(m: int, r: int, spec: RllSpec) -> float:
    """Rate C(m-z, <= r-z) / 2**m of the anchored construction (0 when
    the parameters only admit the zero code)."""
    m, r = _integer(m, "m"), _integer(r, "r")
    if m < 1 or not 0 <= r <= m:
        raise ValueError("invalid code parameters")
    z = spec.anchor_count
    if r < z or m < z:
        return 0.0
    return sum(comb(m - z, i) for i in range(r - z + 1)) / (1 << m)


def is_rll_code(gen: BinaryMatrix, d: int) -> bool:
    """True when every word in the row span of ``gen`` has at least d
    zeros between 1s: when the OR of its rows does (module docstring).
    ``d`` is read as ``RllSpec(d).d``, so it must be a nonnegative integer."""
    d = RllSpec(d).d
    support = 0
    for row in gen.row_values:
        support |= row
    return is_constrained_value(support, d)


def _best_shortening(rows: Sequence[int], n: int, d: int, start=0, support=0, best=()):
    """The first widest shortening of the span of the independent ``rows`` to a
    maximal d-separated S holding ``support`` and next a position in [start, start + d],
    or ``best`` if none is wider.  A step zeroes the rows where it skips (a leaf: to
    the end), which never widens them: a subtree no wider than ``best`` is cut."""
    if start >= n or len(rows) <= len(best):  # a leaf, or a subtree to cut
        return max(best, rows, key=len)  # best on a tie: the first widest leaf wins
    for nxt in range(start, min(start + d + 1, n)):
        grown = support | 1 << nxt
        skipped = ((1 << (nxt if nxt + d + 1 < n else n)) - 1) & ~grown
        kept = _row_basis([row << n | row & skipped for row in rows], n)[1]
        best = _best_shortening(kept, n, d, nxt + d + 1, grown, best)
    return best


def largest_linear_rll_subcode(code: RmCode, spec: RllSpec) -> tuple[int, BinaryMatrix]:
    """Dimension and a basis of a largest linear subcode of ``code`` whose
    nonzero words all have at least d zeros between 1s: with d = 0 the
    whole code, else C shortened to the best maximal d-separated S (module
    docstring), searched for n <= SEARCH_MAX_N; the basis is its rows.

    Longer codes are answered only for r <= 1, in closed form: dimension
    1 for d = r = 1, with the row the search keeps, 1 + x_m (the even
    positions), else 0.  A nonzero word of RM(m, 1) is the all-ones
    word, which breaks any gap, or has weight n/2, and the nonzero words
    of a constrained subcode lie in its support S, where
    (|S| - 1)(d + 1) < n.  For m >= 3 that leaves |S| >= n/2 only for
    d = 1 and |S| = n/2, so every nonzero word has support S: there is
    at most one.  Raises ValueError for n > SEARCH_MAX_N and r >= 2.
    """
    d, n = spec.d, code.n
    if d == 0:
        return code.k, code.gen
    if n > SEARCH_MAX_N and code.r > 1:
        raise ValueError(f"exact search needs length at most {SEARCH_MAX_N} or order at most 1")
    if n > SEARCH_MAX_N:
        gen = code.gen.row_values  # 1 is the first row, x_m the last
        rows = (gen[0] ^ gen[-1],) if d == 1 and code.r == 1 else ()
    else:
        rows = _best_shortening(code.gen.row_values, n, d)  # G's rows are independent
    return len(rows), BinaryMatrix._trusted(rows, n)
