"""Reference computations for the benchmark's output checks.

Nothing here imports rmrll: the counts, ranks, Reed-Muller evaluations
and run scans are written out from their definitions so that a fault in
the library cannot also hide in the check.  Words are packed integers
with bit i holding coordinate i, as in the library.
"""

from __future__ import annotations

from itertools import combinations
from math import comb


def constrained_counts(n: int, d: int) -> list[int]:
    """a(0..n): number of length-i words with at least d zeros between 1s.

    a(i) = i + 1 while i <= d (at most one 1 fits), then
    a(i) = a(i-1) + a(i-d-1): a word starts with 0, or with 1 and d
    forced zeros.  For d = 1 these are the Fibonacci numbers F(i+2).
    """
    a = []
    for i in range(n + 1):
        a.append(i + 1 if i <= d else a[i - 1] + a[i - d - 1])
    return a


def gap_ok(value: int, d: int) -> bool:
    """True when no two 1s of the packed word are fewer than d+1 apart."""
    return all(not value & (value >> s) for s in range(1, d + 1))


def lex_rank(value: int, n: int, d: int, counts: list[int]) -> int:
    """Lexicographic rank (coordinate 0 leftmost, 0 < 1) among the
    constrained words of length n; ``counts`` comes from constrained_counts."""
    rank = 0
    pos = 0
    while pos < n:
        if (value >> pos) & 1:
            rank += counts[n - pos - 1]
            pos += d + 1
        else:
            pos += 1
    return rank


def rm_dimension(m: int, r: int) -> int:
    return sum(comb(m, i) for i in range(r + 1))


def rm_generators(m: int, r: int) -> list[int]:
    """Evaluations of all monomials of degree <= r over the 2**m points.

    Point i assigns x_j the bit (m - j) of i, the first variable being
    the most significant bit.
    """
    n = 1 << m
    variables = []
    for j in range(1, m + 1):
        v = 0
        for i in range(n):
            v |= ((i >> (m - j)) & 1) << i
        variables.append(v)
    rows = []
    for deg in range(r + 1):
        for mono in combinations(range(m), deg):
            acc = (1 << n) - 1
            for j in mono:
                acc &= variables[j]
            rows.append(acc)
    return rows


def orthogonal_to_all(word: int, generators: list[int]) -> bool:
    """True when the word has even overlap with every generator."""
    return all(not (word & g).bit_count() & 1 for g in generators)


def unpermute(value: int, perm: tuple[int, ...]) -> int:
    """Undo a column permutation: position j of ``value`` is coordinate perm[j]."""
    out = 0
    for j, bit in enumerate(reversed(bin(value)[2:])):
        if bit == "1":
            out |= 1 << perm[j]
    return out


def lex_bounded_runs(m: int, r: int) -> int:
    """Runs of weight-<=r points in natural order that end before the last point."""
    n = 1 << m
    runs = 0
    inside = False
    for i in range(n):
        member = i.bit_count() <= r
        if inside and not member:
            runs += 1
        inside = member
    return runs


def coset_plan_facts(m: int, r: int, d: int, part_exponent: int, inner_order: int) -> dict:
    """Plan arithmetic of the coset scheme, from its definition.

    The outer code RM(m, r) has k information bits; the 2**m - k tail
    bits travel in parts of an anchored inner code RM(n_inner,
    inner_order) with z = d.bit_length() anchor variables, whose
    dimension counts monomials of degree <= inner_order - z in the
    n_inner - z free variables.  The payload is floor(log2) of the
    number of constrained words of length k.
    """
    z = d.bit_length()
    n_inner = m - part_exponent + z
    k = rm_dimension(m, r)
    inner_k = rm_dimension(n_inner - z, inner_order - z)
    tail = (1 << m) - k
    part_count = -(-tail // inner_k)
    part_length = 1 << n_inner
    payload = constrained_counts(k, d)[k].bit_length() - 1
    return {
        "k": k,
        "part_count": part_count,
        "part_length": part_length,
        "payload_bits": payload,
        "realized_rate": payload / (k + part_count * part_length),
    }
