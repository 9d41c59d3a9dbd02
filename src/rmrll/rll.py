"""Runlength-limited binary words with a minimum zero-gap.

A word satisfies the gap constraint for parameter ``d`` when every pair
of successive 1s is separated by at least ``d`` zeros.  The module
provides exact counting, the noiseless capacity (growth rate of the
count), and an enumerative rank/unrank bijection between indices and
constrained words in lexicographic order (coordinate 0 leftmost, 0 < 1).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .gf2 import BitWord, _integer

__all__ = [
    "RllSpec",
    "is_constrained",
    "is_constrained_value",
    "count_constrained",
    "noiseless_capacity",
    "enumerative_encode",
    "enumerative_decode",
    "payload_bits",
]


@dataclass(frozen=True)
class RllSpec:
    """Gap constraint: at least ``d`` zeros between successive 1s; ``d``
    is read through ``operator.index``, so a float raises ValueError."""

    d: int

    def __post_init__(self):
        object.__setattr__(self, "d", _integer(self.d, "d"))
        if self.d < 0:
            raise ValueError("d must be nonnegative")

    @property
    def anchor_count(self) -> int:
        """Smallest e with 2**e >= d + 1 (equals d.bit_length()).

        Words supported on coordinates that are 2**e - 1 mod 2**e keep
        gaps of 2**e - 1 >= d zeros, which is what the anchored monomial
        constructions rely on.
        """
        return self.d.bit_length()


def is_constrained_value(value: int, d: int) -> bool:
    """Gap check on a packed word value; used by enumeration hot loops.

    Two 1s are too close exactly when some 1 has another at most d
    places above it, that is when ``value`` meets the OR of
    value >> 1, ..., value >> d.  That OR is built by doubling the
    covered shifts, in O(log d) word operations; shifts past the
    highest 1 add nothing, so d is capped at the word's length.
    """
    d = min(d, value.bit_length())
    if d == 0:
        return True
    near, covered = value >> 1, 1  # near covers the shifts 1..covered
    while 2 * covered <= d:
        near |= near >> covered
        covered *= 2
    near |= near >> (d - covered)  # d - covered < covered
    return not value & near


def is_constrained(word: BitWord, spec: RllSpec) -> bool:
    """True when every pair of successive 1s has at least d zeros between."""
    return is_constrained_value(word.value, spec.d)


_COUNTS: dict[int, list[int]] = {}  # d -> counts by length, grown on demand


def _count_list(n: int, d: int) -> list[int]:
    """The enumerative coders' shared list of counts for gap d, grown to
    cover lengths 0..n and kept: a(j) = j + 1 for j <= d, then the
    recurrence of ``count_constrained``.  n must be nonnegative."""
    a = _COUNTS.get(d)
    if a is None:
        a = _COUNTS[d] = [1]
    while len(a) <= n:
        k = len(a)
        a.append(k + 1 if k <= d else a[k - 1] + a[k - d - 1])
    return a


def count_constrained(n: int, spec: RllSpec) -> int:
    """Number of length-n words satisfying the gap constraint.

    a(0) = 1, a(n) = n + 1 for 1 <= n <= d, and
    a(n) = a(n-1) + a(n-d-1) afterwards.  Counts are exact big integers.
    The recurrence runs over a rolling window of d + 1 < n + 1 values, so
    memory is O(n) bits and the enumerative coders' table is left as it is.
    """
    n = n if type(n) is int else _integer(n, "length")
    if n < 0:
        raise ValueError("length must be nonnegative")
    d = spec.d
    if d >= n:
        return n + 1
    window = list(range(1, d + 2))  # a(j) = j + 1 for j <= d, at index j mod (d + 1)
    for j in range(d + 1, n + 1):
        window[j % (d + 1)] += window[(j - 1) % (d + 1)]
    return window[n % (d + 1)]


def _bisect(below, lo: float, hi: float, tol: float) -> float:
    """Halve [lo, hi] around the point where ``below`` turns false until
    it is at most ``tol`` wide, or as narrow as floats allow, and return
    its midpoint.

    ``below(x)`` must hold left of that point and fail right of it.
    """
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if mid == lo or mid == hi:  # lo and hi are adjacent floats
            break
        if below(mid):
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def noiseless_capacity(spec: RllSpec) -> float:
    """log2 of the growth rate of the constrained-word count.

    The growth rate is the unique root x = 1 + delta in [1, 2] of
    x**(d+1) = x**d + 1, that is of the increasing, overflow-free
    d*log1p(delta) + log(delta) = 0.  The root is found by bisection on
    log(delta) to 1e-12, so delta, and the returned log1p(delta) / log(2),
    carry a relative error of about 1e-12 however small delta is (about
    ln(d)/d for large d).  d = 0 is unconstrained and returns 1.0 exactly.

    The bracket's low end is the smallest normal float, where the test
    is negative while d <= 2**1023.  Larger d are capped at 2**1023,
    which still fits a float; the capacity falls with d, so the value
    there, about 1.1e-305, bounds theirs from above.
    """
    d = spec.d
    if d == 0:
        return 1.0
    d = min(d, 2**1023)
    log_delta = _bisect(
        lambda u: d * math.log1p(math.exp(u)) + u < 0, math.log(sys.float_info.min), 0.0, 1e-12
    )
    return math.log1p(math.exp(log_delta)) / math.log(2)


def enumerative_encode(index: int, n: int, spec: RllSpec) -> BitWord:
    """The constrained word of length n with lexicographic rank ``index``;
    both are integers (``_integer``: a float raises ValueError)."""
    index = index if type(index) is int else _integer(index, "index")
    n = n if type(n) is int else _integer(n, "length")
    if n < 0:
        raise ValueError("length must be nonnegative")
    counts = _count_list(n, spec.d)
    if not 0 <= index < counts[n]:
        raise ValueError(f"index must be in [0, {counts[n]})")
    v = 0
    forced = 0
    rem = index
    for pos in range(n):
        if forced:
            forced -= 1
            continue
        zeros_first = counts[n - pos - 1]
        if rem < zeros_first:
            continue
        rem -= zeros_first
        v |= 1 << pos
        forced = spec.d
    return BitWord(v, n)


def enumerative_decode(word: BitWord, spec: RllSpec) -> int:
    """Lexicographic rank of a constrained word (inverse of encoding).

    Each 1 at position pos adds the count of the words that have a 0
    there and agree before it, a(n - pos - 1).
    """
    if not is_constrained(word, spec):
        raise ValueError("word violates the gap constraint")
    n = len(word)
    ahead = _count_list(n, spec.d)[:n][::-1]  # a(n - pos - 1) at index pos
    return sum(map(ahead.__getitem__, word.support()))


def payload_bits(n: int, spec: RllSpec) -> int:
    """floor(log2) of the constrained-word count: whole input bits per block."""
    return count_constrained(n, spec).bit_length() - 1
