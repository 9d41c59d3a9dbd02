"""Independent reference implementations used to freeze expected values.

Everything here is deliberately naive and written against plain numpy
arrays / Python lists, sharing no code paths with the package, so a bug
in the packed-integer implementations cannot hide in its own test.  Five
exceptions keep a search or elimination the package used to run as the
reference for what replaced it: ``eliminated_inner_maps``,
``lattice_largest_rll_subcode``, ``maximal_separated_sets``,
``grid_bisection_crossover`` and ``bisection_select_order``.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from rmrll.coset import coset_rate_lower_bound
from rmrll.gf2 import BinaryMatrix, BitWord
from rmrll.ordering import lexicographic_ordering, run_profile, subcode_dimension_bound
from rmrll.rll import _bisect, is_constrained_value, noiseless_capacity


def numpy_rank(matrix: np.ndarray) -> int:
    """Rank over GF(2) by textbook row elimination on a uint8 array."""
    a = np.array(matrix, dtype=np.uint8, copy=True) % 2
    if a.size == 0:
        return 0
    rows, cols = a.shape
    rank = 0
    for c in range(cols):
        pivot = next((i for i in range(rank, rows) if a[i, c]), None)
        if pivot is None:
            continue
        a[[rank, pivot]] = a[[pivot, rank]]
        for i in range(rows):
            if i != rank and a[i, c]:
                a[i] ^= a[rank]
        rank += 1
        if rank == rows:
            break
    return rank


def numpy_rref(matrix: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
    """Reduced row echelon form over GF(2) plus pivot columns."""
    a = np.array(matrix, dtype=np.uint8, copy=True) % 2
    rows, cols = a.shape
    pivots = []
    pr = 0
    for c in range(cols):
        pivot = next((i for i in range(pr, rows) if a[i, c]), None)
        if pivot is None:
            continue
        a[[pr, pivot]] = a[[pivot, pr]]
        for i in range(rows):
            if i != pr and a[i, c]:
                a[i] ^= a[pr]
        pivots.append(c)
        pr += 1
        if pr == rows:
            break
    return a, tuple(pivots)


def column_scan_rref(rows, ncols: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Reduced row echelon form of packed rows (bit c is column c) and its
    pivot columns, by scanning the columns left to right: swap a row with
    a 1 in the column up to the pivot row and clear the column in every
    other row.  Kept as the reference for BinaryMatrix.rref."""
    rows = list(rows)
    pivots = []
    pr = 0
    for c in range(ncols):
        mask = 1 << c
        j = next((i for i in range(pr, len(rows)) if rows[i] & mask), -1)
        if j < 0:
            continue
        rows[pr], rows[j] = rows[j], rows[pr]
        for i in range(len(rows)):
            if i != pr and rows[i] & mask:
                rows[i] ^= rows[pr]
        pivots.append(c)
        pr += 1
        if pr == len(rows):
            break
    return tuple(rows), tuple(pivots)


def eliminated_inner_maps(gen) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Pivots, rref rows and rows of G_P^-1 of a full-rank BinaryMatrix
    G, by elimination: ``rref``, then one ``solve_right`` per rref row for
    the combination of G's rows that gives it.  The construction the
    inner code's maps had before the superset-sum transform, kept as its
    reference; ``rref`` itself is pinned to ``column_scan_rref``."""
    rref, pivots = gen.rref()
    combos = tuple(
        gen.solve_right(BitWord(row, gen.ncols)).vector.value for row in rref.row_values
    )
    return pivots, rref.row_values, combos


def superset_sums(rows: dict[int, int], m: int) -> dict[int, int]:
    """The XOR of rows[T] over the keys T >= a (as point supports), for
    each key a, by the zeta transform one bit of m at a time.  The keys
    must be closed under dropping a bit down to a key.  The loop both
    systematic forms were built with before their closed form, kept as
    its defining-sum reference."""
    out = dict(rows)
    for bit in (1 << b for b in range(m)):
        for a in out:
            if not a & bit and (above := out.get(a | bit)) is not None:
                out[a] ^= above
    return out


def per_bit_gather(rows, cols) -> tuple[int, ...]:
    """Packed rows whose bit j is bit ``cols[j]`` of the input row, read
    one bit at a time from each row's binary string."""
    width = max(cols, default=-1) + 1
    out = []
    for r in rows:
        bits = format(r, f"0{width}b")[::-1]  # bits[c] is bit c
        out.append(int("".join(bits[c] for c in cols)[::-1] or "0", 2))
    return tuple(out)


def weight_order(m: int) -> list[int]:
    """Points of [0, 2**m) by ascending weight, then index."""
    return sorted(range(1 << m), key=lambda i: (i.bit_count(), i))


def variable_patterns_by_blocks(m: int) -> tuple[int, ...]:
    """Packed evaluation of each variable x_1 ... x_m, one block of 1s
    at a time: x_j is 1 on the blocks of width 2**(m - j) that start at
    odd multiples of that width."""
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


def run_scan(members, perm, d: int) -> tuple[tuple[tuple[int, int], ...], int, int, int]:
    """Runs of positions j with perm[j] in ``members``, walked one
    position at a time, as (runs, bounded runs, (d+1)-tuples, size):
    runs are (start, length), and a run is bounded when a position
    follows its last one."""
    members = set(members)
    flags = [coord in members for coord in perm]
    runs = []
    i = 0
    while i < len(flags):
        if flags[i]:
            j = i
            while j < len(flags) and flags[j]:
                j += 1
            runs.append((i, j - i))
            i = j
        else:
            i += 1
    bounded = sum(1 for start, length in runs if start + length < len(flags))
    tuples = sum(length // (d + 1) for _, length in runs)
    return tuple(runs), bounded, tuples, sum(flags)


def gap_ok(bits, d: int) -> bool:
    """Direct definition: every pair of successive 1s has >= d zeros between."""
    ones = [i for i, b in enumerate(bits) if b]
    return all(b - a - 1 >= d for a, b in zip(ones, ones[1:]))


def brute_constrained_words(n: int, d: int) -> list[tuple[int, ...]]:
    """All length-n constrained words in lexicographic order (coordinate 0
    leftmost, 0 < 1), by filtering the full cube."""
    out = []
    for v in range(1 << n):
        bits = tuple((v >> (n - 1 - i)) & 1 for i in range(n))
        if gap_ok(bits, d):
            out.append(bits)
    out.sort()
    return out


def transfer_matrix_capacity(d: int) -> float:
    """log2 of the spectral radius of the (d+1)-state gap automaton.

    State s counts zeros still owed after a 1; emitting 1 is allowed
    only in state 0 and re-enters state d; emitting 0 decrements the
    debt (staying at 0 once it is paid).
    """
    size = d + 1
    a = np.zeros((size, size))
    a[0, 0] += 1.0  # emit 0 with no debt
    a[0, d] += 1.0  # emit 1, owe d zeros (same state when d = 0)
    for s in range(1, size):
        a[s, s - 1] = 1.0  # emit 0, pay one down
    radius = max(abs(np.linalg.eigvals(a)))
    return float(np.log2(radius))


def min_nonzero_weight(rows: np.ndarray) -> int:
    """Exhaustive minimum weight over all nonzero row combinations."""
    k, _ = rows.shape
    best = None
    for u in range(1, 1 << k):
        word = np.zeros(rows.shape[1], dtype=np.uint8)
        for i in range(k):
            if (u >> i) & 1:
                word ^= rows[i]
        w = int(word.sum())
        if best is None or w < best:
            best = w
    return best


def eval_monomial_pointwise(m: int, variables, index: int) -> int:
    """Value of the monomial prod x_j at the point with this index,
    reading variable j from bit (m - j) of the index."""
    return int(all((index >> (m - j)) & 1 for j in variables))


def lattice_largest_rll_subcode(code, spec) -> tuple[int, BinaryMatrix]:
    """Exhaustive search for the largest all-constrained linear subcode.

    Collects every nonzero constrained codeword, then walks the
    subspaces whose nonzero words are all constrained, growing one
    generator at a time.  Each subspace is reached once, through its
    greedy basis: the next generator is larger than the previous ones
    and is the least word of its coset of the current span.  A node
    carries the later candidates x outside the span whose OR with the
    span's support is constrained, so that x + span is all constrained;
    any subspace below it lies in the span plus those candidates, so a
    node whose span and candidates number fewer than 2**(best + 1) words
    is cut.  The run-structure dimension bound caps the depth, and the
    search stops once a subspace reaches the cap.  The codeword sweep is
    2**k, so it is for small codes.  With d=0 every word is constrained,
    so the answer is the whole code and no search runs.  The search
    ``subcodes.largest_linear_rll_subcode`` ran before the support
    maximum replaced it, kept as its reference.
    """
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


def maximal_separated_sets(n: int, d: int, last: int, mask: int = 0) -> Iterator[int]:
    """Bit masks of the maximal d-separated position sets in [0, n) that
    extend ``mask``, whose highest position is ``last``: each next one is
    d + 1 to 2d + 1 past the last, and the last is within d of n - 1, so
    no position can be added.  With last = -d - 1 the first is at most d.
    ``subcodes.largest_linear_rll_subcode`` scored this list one set at a
    time until its search, which visits the same sets in the same order,
    replaced it; kept as the search's reference."""
    if last + d + 1 >= n:
        yield mask  # and the range below is empty
    for nxt in range(last + d + 1, min(last + 2 * d + 2, n)):
        yield from maximal_separated_sets(n, d, nxt, mask | 1 << nxt)


def numpy_shortened(gen: np.ndarray, support: int) -> np.ndarray:
    """Rows spanning the words of the row span of ``gen`` that are zero
    off the positions in the mask ``support``: the left kernel of ``gen``
    on the other columns, read from the rows of rref([gen off S | I])
    that are zero on the gen part, times ``gen``."""
    k, n = gen.shape
    off = [c for c in range(n) if not support >> c & 1]
    reduced, _ = numpy_rref(np.hstack([gen[:, off], np.eye(k, dtype=np.uint8)]))
    kernel = reduced[~reduced[:, : len(off)].any(axis=1), len(off) :]
    return kernel.astype(np.int64) @ gen % 2


def grid_bisection_crossover(spec, part_exponent: int, tol: float) -> float | None:
    """Capacity crossover by a 1,000-point grid scan of the gap between
    the coset bound and the plain bound C * 2^-z, then bisection to
    ``tol``, or None when no grid step crosses.  The search
    ``coset.crossover_capacity`` ran before the closed form replaced it,
    kept as its reference."""
    c0 = noiseless_capacity(spec)
    scale = 2.0 ** (-spec.anchor_count)

    def gap(c: float) -> float:
        return coset_rate_lower_bound(c0, c, spec, part_exponent) - c * scale

    grid = [k / 1000.0 for k in range(1, 1001)]
    lo = None
    hi = None
    for a, b in zip(grid, grid[1:]):
        if gap(a) <= 0.0 < gap(b):
            lo, hi = a, b
            break
    if lo is None:
        return None
    return _bisect(lambda c: gap(c) <= 0.0, lo, hi, tol)


def bisection_select_order(m: int, rate: float) -> int:
    """max(floor(m/2 + sqrt(m)/2 * Qinv(1 - rate)), 0) clipped to m, with
    Qinv found by bisecting the upper normal tail Q on [-10, 10] to
    1e-12.  The rule ``rm.select_order`` ran before the normal quantile
    replaced it, kept as its reference; it forms 1 - rate, so it loses
    the low digits of a rate below about 1e-7."""
    p = 1.0 - rate
    q = _bisect(lambda x: 0.5 * math.erfc(x / math.sqrt(2.0)) > p, -10.0, 10.0, 1e-12)
    v = m / 2.0 + math.sqrt(m) / 2.0 * q
    return min(max(math.floor(v + 1e-9), 0), m)
