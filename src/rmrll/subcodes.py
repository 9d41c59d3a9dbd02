"""Linear subcodes whose nonzero codewords all satisfy the gap constraint.

The construction anchors every monomial with the product of the last
z = d.bit_length() variables: anchored evaluations are supported on
coordinates congruent to 2**z - 1 mod 2**z, so consecutive 1s are at
least 2**z - 1 >= d apart, and the property survives linear
combinations.  An exhaustive oracle searches for the true largest such
subcode on small codes to measure how tight the construction is.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .gf2 import BitWord, BinaryMatrix
from .ordering import lexicographic_ordering, run_profile, subcode_dimension_bound
from .rll import RllSpec, is_constrained_value
from .rm import RmCode, _monomial_rows, _monomials

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

    Rows evaluate (x_{m-z+1} * ... * x_m) * g where g ranges over the
    monomials of degree <= r - z in the first m - z variables.  When
    r < z the subcode is the zero code.
    """
    z = spec.anchor_count
    m, r = parent.m, parent.r
    if m < z:
        raise ValueError(f"need m >= {z} to anchor the gap constraint for d={spec.d}")
    anchor = tuple(range(m - z + 1, m + 1))
    rows = _monomial_rows(m, [g + anchor for g in _monomials(m - z, r - z)])
    return RllSubcode(parent, spec, BinaryMatrix(rows, parent.n), len(rows))


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

    Collects every constrained codeword, then walks the lattice of
    subspaces whose nonzero words are all constrained, growing one
    generator at a time.  Visited spans are cached so each subspace is
    expanded once, not once per basis ordering.  The run-structure
    dimension bound caps the search depth.  Limited to code dimension
    20 (the codeword sweep is 2**k).  With d=0 every word is
    constrained, so the answer is the whole code and no search runs.
    """
    if code.k > 20:
        raise ValueError("exhaustive search supports dimension at most 20")
    if spec.d == 0:
        return code.k, code.gen
    d = spec.d
    rows = code.gen.row_values
    good = {0}
    acc = 0
    for g in range(1, 1 << code.k):
        acc ^= rows[(g & -g).bit_length() - 1]
        if is_constrained_value(acc, d):
            good.add(acc)
    cands = sorted(good - {0})
    prof = run_profile(code.information_set(), lexicographic_ordering(code.m), spec)
    depth_cap = min(
        subcode_dimension_bound(code.k, prof.tuple_count, spec),
        len(good).bit_length() - 1,
    )
    best_dim = 0
    best_basis: list[int] = []
    seen: set[frozenset[int]] = set()

    def extend(basis: list[int], span: list[int]):
        nonlocal best_dim, best_basis
        key = frozenset(span)
        if key in seen:
            return
        seen.add(key)
        if len(basis) > best_dim:
            best_dim = len(basis)
            best_basis = list(basis)
        if len(basis) >= depth_cap:
            return
        for w in cands:
            if w in key:
                continue
            shifted = [v ^ w for v in span]
            if all(v in good for v in shifted):
                extend(basis + [w], span + shifted)

    extend([], [0])
    return best_dim, BinaryMatrix(best_basis, code.n)
