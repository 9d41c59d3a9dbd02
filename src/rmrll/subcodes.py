"""Linear subcodes whose nonzero codewords all satisfy the gap constraint.

The construction anchors every monomial with the product of the last
z = d.bit_length() variables: anchored evaluations are supported on
coordinates congruent to 2**z - 1 mod 2**z, so consecutive 1s are at
least 2**z - 1 >= d apart, and the property survives linear
combinations.  An exhaustive oracle searches for the true largest such
subcode on small codes to measure how tight the construction is.

A linear code is gap-constrained exactly when its support, the OR of a
basis, is.  If: dropping 1s from a word only widens its gaps.  Only if:
for support positions i < j at most d apart, take codewords a with a 1
at i and b with a 1 at j; a, b or a + b has 1s at both (a + b when a is
0 at j and b at i), so some codeword breaks the gap.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .gf2 import BitWord, BinaryMatrix
from .ordering import lexicographic_ordering, run_profile, subcode_dimension_bound
from .rll import RllSpec, is_constrained_value
from .rm import RmCode

ORACLE_MAX_DIM = 20  # largest code dimension the exhaustive oracle sweeps

__all__ = [
    "RllSubcode",
    "build_subcode",
    "subcode_rate",
    "largest_linear_rll_subcode",
]


@dataclass(frozen=True)
class RllSubcode:
    """Gap-respecting linear subcode of a Reed-Muller parent code."""

    parent: RmCode
    spec: RllSpec
    gen: BinaryMatrix
    k: int

    def encode(self, u: BitWord) -> BitWord:
        return self.gen.vecmat(u)


def build_subcode(parent: RmCode, spec: RllSpec) -> RllSubcode:
    """Anchored-monomial subcode of dimension C(m-z, <= r-z).

    Its rows are the parent's rows (x_{m-z+1} * ... * x_m) * g, g of
    degree <= r - z in the first m - z variables: those whose point (its
    lowest set bit) has its low z bits all 1.  r < z gives the zero code.
    """
    z = spec.anchor_count
    if parent.m < z:
        raise ValueError(f"need m >= {z} to anchor the gap constraint for d={spec.d}")
    low = (1 << z) - 1  # the anchor variables' bits of a point
    rows = [row for row in parent.gen.row_values if ((row & -row).bit_length() - 1) & low == low]
    return RllSubcode(parent, spec, BinaryMatrix._trusted(rows, parent.n), len(rows))


def subcode_rate(m: int, r: int, spec: RllSpec) -> float:
    """Rate C(m-z, <= r-z) / 2**m of the anchored construction (0 when
    the parameters only admit the zero code)."""
    if m < 1 or not 0 <= r <= m:
        raise ValueError("invalid code parameters")
    z = spec.anchor_count
    if r < z or m < z:
        return 0.0
    return sum(comb(m - z, i) for i in range(r - z + 1)) / (1 << m)


def largest_linear_rll_subcode(
    code: RmCode, spec: RllSpec
) -> tuple[int, BinaryMatrix]:
    """Exhaustive search for the largest all-constrained linear subcode.

    Collects every nonzero constrained codeword, then walks the
    subspaces whose nonzero words are all constrained, growing one
    generator at a time.  Each subspace is reached once, through its
    greedy basis: the next generator is larger than the previous ones
    and is the least word of its coset of the current span.  A node
    carries the later candidates x outside the span whose OR with the
    span's support is constrained, so that x + span is all constrained
    (see the module docstring); any subspace below it lies in the span
    plus those candidates, so a node whose span and candidates number
    fewer than 2**(best + 1) words is cut.  The run-structure dimension
    bound caps the depth, and the search stops once a subspace reaches
    the cap.  Limited to code dimension ORACLE_MAX_DIM (the codeword
    sweep is 2**k).  With d=0 every word is constrained, so the answer
    is the whole code and no search runs.
    """
    if code.k > ORACLE_MAX_DIM:
        raise ValueError(f"exhaustive search supports dimension at most {ORACLE_MAX_DIM}")
    if spec.d == 0:
        return code.k, code.gen
    d = spec.d
    rows = code.gen.row_values
    good = []  # nonzero constrained codewords
    acc = 0
    for g in range(1, 1 << code.k):
        acc ^= rows[(g & -g).bit_length() - 1]
        if is_constrained_value(acc, d):
            good.append(acc)
    prof = run_profile(code.information_set(), lexicographic_ordering(code.m), spec)
    depth_cap = min(
        subcode_dimension_bound(code.k, prof.tuple_count, spec),
        (len(good) + 1).bit_length() - 1,
    )
    best: list[int] = []

    def extend(basis: list[int], span: set[int], support: int, cands: list[int]):
        nonlocal best
        if len(basis) > len(best):
            best = basis
        for i, w in enumerate(cands):
            reach = (len(cands) - i + len(span)).bit_length() - 1
            if min(reach, depth_cap) <= len(best):
                return
            if any(w ^ v < w for v in span):
                continue  # not the least word of its coset
            coset = {w ^ v for v in span}
            grown = support | w
            later = [
                x for x in cands[i + 1 :] if x not in coset and is_constrained_value(grown | x, d)
            ]
            extend(basis + [w], span | coset, grown, later)

    extend([], {0}, 0, sorted(good))
    return len(best), BinaryMatrix(best, code.n)
