"""Coordinate orderings and run structure of information sets.

An ordering is a permutation of the 2**m coordinates: position j of the
reordered word holds coordinate perm[j].  Scanning positions in order,
the coordinates belonging to an information set split into maximal
contiguous runs; the run structure controls how large a gap-constrained
linear subcode can be.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb
from statistics import fmean
from typing import Iterable

import numpy as np

from .gf2 import _index_array, _integer
from .rll import RllSpec
from .rm import RmCode, _point_weights

__all__ = [
    "Ordering",
    "lexicographic_ordering",
    "gray_ordering",
    "sample_permutation",
    "RunProfile",
    "run_profile",
    "bounded_run_counts",
    "lex_run_count",
    "subcode_dimension_bound",
    "asymptotic_linear_bound",
    "PermutationSample",
    "PermutationExperiment",
    "permutation_bound_experiment",
]


@dataclass(frozen=True)
class Ordering:
    """Permutation of the coordinates [0, 2**m); position j holds perm[j].

    ``perm`` may be given as any sequence of integers or an integer
    index array; it is stored as a tuple of Python ints.  ``positions``
    is ``perm`` as a read-only index array, the one validated in numpy
    at construction.
    """

    m: int
    perm: tuple[int, ...]
    kind: str  # "lexicographic" | "gray" | "explicit" | "sampled"
    seed: object = None
    positions: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = 1 << self.m
        message = "perm must be a permutation of [0, 2**m)"
        positions = _index_array(self.perm, n, message)
        if positions is self.perm:  # the caller's array: keep a copy
            positions = positions.astype(np.intp)
        if positions.size != n:
            raise ValueError(message)
        seen = np.zeros(n, bool)
        seen[positions] = True
        if not seen.all():
            raise ValueError(message)
        if self.kind == "gray":
            steps = positions[1:] ^ positions[:-1]  # nonzero: entries are distinct
            if (steps & (steps - 1)).any():
                raise ValueError("gray ordering must step one bit at a time")
        positions.flags.writeable = False
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "perm", tuple(positions.tolist()))


def lexicographic_ordering(m: int) -> Ordering:
    return Ordering(m, np.arange(1 << m), "lexicographic")


def gray_ordering(m: int) -> Ordering:
    """Reflected binary ordering: position j holds coordinate j ^ (j >> 1)."""
    j = np.arange(1 << m)
    return Ordering(m, j ^ (j >> 1), "gray")


def sample_permutation(m: int, seed) -> Ordering:
    """Uniformly random ordering from a deterministic seeded stream."""
    rng = np.random.default_rng(seed)
    return Ordering(m, rng.permutation(1 << m), "sampled", seed=seed)


@dataclass(frozen=True)
class RunProfile:
    """Run decomposition of an index set under an ordering.

    ``runs`` lists maximal blocks of consecutive positions whose
    coordinates are in the set, as (start position, length) pairs.
    ``bounded_runs`` counts runs whose final position has a successor
    (a run ending at the last position is excluded).  ``tuple_count``
    sums floor(length / (d + 1)) over all runs: the number of disjoint
    (d+1)-tuples of in-set positions.  ``size`` is the set size.
    """

    runs: tuple[tuple[int, int], ...]
    bounded_runs: int
    tuple_count: int
    size: int


def run_profile(info_set: Iterable[int], ordering: Ordering, spec: RllSpec) -> RunProfile:
    """Runs of ``info_set`` under ``ordering``, by one numpy scan: mark
    the members, gather the marks through the ordering, and read each
    run from the rising and falling edges of the in-set flag.

    ``info_set`` may be an integer index array, which is read as it is.
    """
    n = 1 << ordering.m
    members = _index_array(info_set, n, "index set outside [0, 2**m)")
    inset = np.zeros(n, bool)
    inset[members] = True
    flags = np.zeros(n + 2, np.int8)  # one 0 before and after the positions
    flags[1:-1] = inset[ordering.positions]
    edges = np.flatnonzero(flags[1:] != flags[:-1])
    starts, stops = edges[0::2], edges[1::2]
    lengths = stops - starts
    runs = tuple(zip(starts.tolist(), lengths.tolist()))
    bounded = len(runs) - int(flags[-2])  # less a run ending at the last position
    t = int((lengths // (min(spec.d, n) + 1)).sum())  # runs are at most n long
    return RunProfile(runs, bounded, t, int(np.count_nonzero(inset)))


def bounded_run_counts(ordering: Ordering) -> tuple[int, ...]:
    """The ``bounded_runs`` of the weight-<=r point set (RM(m, r)'s
    information set) under ``ordering``, for every r in 0..m-1, from one
    scan of the point weights along it, w[j] = wt(perm[j]).

    A run of the set is bounded when its last position j has a
    successor, which is then outside the set: w[j] <= r < w[j+1].  So
    each position j with w[j] <= r < w[j+1] ends exactly one bounded run,
    and the count for r is the number of rising steps w[j] < w[j+1] with
    w[j] <= r, less those with w[j+1] <= r: two ``bincount``s of the
    rising steps' ends and a ``cumsum``.
    """
    m = ordering.m
    w = _point_weights(m)[ordering.positions]
    rising = w[:-1] < w[1:]
    low = np.bincount(w[:-1][rising], minlength=m + 1)
    high = np.bincount(w[1:][rising], minlength=m + 1)
    return tuple(np.cumsum(low[:m] - high[:m]).tolist())


def lex_run_count(m: int, r: int) -> int:
    """Closed form C(m-1, r) for the bounded-run count of the weight-<=r
    index set under the identity ordering (valid for 0 <= r <= m-1)."""
    if not 0 <= r <= m - 1:
        raise ValueError("r must lie in 0..m-1")
    return comb(m - 1, r)


def subcode_dimension_bound(k: int, tuple_count: int, spec: RllSpec) -> int:
    """Upper bound max(k - d*t, 0) on the dimension of any linear subcode
    whose nonzero codewords all satisfy the gap constraint."""
    k, tuple_count = _integer(k, "k"), _integer(tuple_count, "tuple count")
    if k < 0 or tuple_count < 0:
        raise ValueError("arguments must be nonnegative")
    return max(k - spec.d * tuple_count, 0)


def asymptotic_linear_bound(rate: float, spec: RllSpec) -> float:
    """Large-m limit rate / (d + 1) of the dimension bound."""
    if not 0.0 < rate < 1.0:
        raise ValueError("rate must lie strictly between 0 and 1")
    return rate / (spec.d + 1)


@dataclass(frozen=True)
class PermutationSample:
    index: int
    run_count: int
    bounded_runs: int
    tuple_count: int
    dimension_bound: int
    rate_bound: float


@dataclass(frozen=True)
class PermutationExperiment:
    m: int
    r: int
    d: int
    k: int
    seed: int
    samples: tuple[PermutationSample, ...]
    mean_bound: float
    max_bound: float


def permutation_bound_experiment(
    code: RmCode, spec: RllSpec, samples: int, seed: int
) -> PermutationExperiment:
    """Dimension bound statistics over uniformly sampled orderings.

    Sample i uses the stream seeded with (seed, i), so results do not
    depend on evaluation order.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    info = np.array(code.points, np.intp)  # one conversion for all samples
    out = []
    for i in range(samples):
        ordering = sample_permutation(code.m, [seed, i])
        prof = run_profile(info, ordering, spec)
        dim = subcode_dimension_bound(code.k, prof.tuple_count, spec)
        out.append(
            PermutationSample(
                index=i,
                run_count=len(prof.runs),
                bounded_runs=prof.bounded_runs,
                tuple_count=prof.tuple_count,
                dimension_bound=dim,
                rate_bound=dim / code.n,
            )
        )
    bounds = [s.rate_bound for s in out]
    return PermutationExperiment(
        m=code.m,
        r=code.r,
        d=spec.d,
        k=code.k,
        seed=seed,
        samples=tuple(out),
        mean_bound=fmean(bounds),
        max_bound=max(bounds),
    )
