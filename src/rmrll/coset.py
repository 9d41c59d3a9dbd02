"""Coset-based transmission of gap-constrained words over noisy channels.

The outer code is a Reed-Muller code with columns permuted so that the
information set occupies the first k positions, and its systematic
generator is built in closed form (``rm.systematic_generator``).  A
message picks a constrained prefix w by enumerative coding; the
codeword tail (the redundancy the constraint would otherwise break) is
shipped separately, split into parts that are each encoded with an
anchored gap-respecting inner subcode.  Every transmitted symbol stream
then satisfies the gap constraint end to end.

Decoding runs in two stages: recover each tail part from its inner
code, then solve the outer system in which tail coordinates are known
exactly and prefix coordinates carry the channel observation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channels import BEC, BSC, ERASED, binary_entropy
from .gf2 import BitWord, BinaryMatrix, _byte_tables, _integer, _pack_bits, _table_mul
from .ordering import Ordering
from .rll import (
    RllSpec,
    _bisect,
    enumerative_decode,
    enumerative_encode,
    is_constrained_value,
    noiseless_capacity,
    payload_bits,
)
from .rm import (
    RmCode,
    _dimension,
    _point_weights,
    _reduced_rows,
    select_order,
    systematic_generator,
)
from .subcodes import RllSubcode, build_subcode

__all__ = [
    "CosetPlan",
    "build_plan",
    "CosetTransmission",
    "encode",
    "DecodeResult",
    "decode",
    "coset_rate_lower_bound",
    "crossover_capacity",
    "bsc_threshold",
    "check_bsc_limits",
]

# The flip-channel decoder tries every inner message of each part and
# every prefix in the coset {w : w P = tail}, which has 2**(k - rank P)
# members; it stays exhaustive only up to these sizes.
BSC_MAX_COSET_DIM = 20  # bound on k - rank(P), the coset's dimension
BSC_MAX_INNER_DIM = 16


@dataclass(frozen=True, eq=False)
class InnerMaps:
    """The inner code's maps for decoding and encoding.

    ``rref`` is the reduced row-echelon form R of the inner generator G,
    ``pivots`` its pivot columns, ascending.  With G_P the columns of G at
    the pivots, R = G_P^-1 G, so u G carries v = u G_P at the pivots and
    equals v R.  ``codeword`` maps u to u G and ``message`` v back to
    u = v G_P^-1, one table lookup per byte (closed forms: ``rm`` docstring).
    """

    pivots: np.ndarray
    rref: BinaryMatrix
    to_codeword: tuple[tuple[int, ...], ...]
    to_message: tuple[tuple[int, ...], ...]

    def codeword(self, u: int) -> int:
        return _table_mul(self.to_codeword, u)

    def message(self, v: int) -> int:
        return _table_mul(self.to_message, v)


@dataclass(frozen=True)
class CosetPlan:
    """Frozen arithmetic and matrices for one transmission configuration."""

    m: int
    r: int
    spec: RllSpec
    part_exponent: int
    inner_order: int
    k: int
    outer_length: int
    part_length: int
    part_count: int
    pad_bits: int
    payload_bits: int
    permutation: Ordering
    outer_gen: BinaryMatrix
    inner: RllSubcode

    @property
    def total_length(self) -> int:
        return self.k + self.part_count * self.part_length

    @property
    def realized_rate(self) -> float:
        return self.payload_bits / self.total_length

    @property
    def tail_mask(self) -> int:
        """Columns k..n-1 of the systematic generator [I | P]."""
        return ((1 << (self.outer_length - self.k)) - 1) << self.k

    @property
    def tail_rank(self) -> int:
        """rank(P): the prefixes sharing one tail form a coset of ker(P)
        of dimension k - rank(P).

        rank(P) = min(k, n - k) for every RM(m, r).  The rows of P span
        the restriction of RM(m, r) to the tail, the points of weight
        > r, so rank(P) = k exactly when no nonzero polynomial f of
        degree <= r vanishes there.  Take a top-degree monomial x_A of
        f, so no other monomial of f contains A, and fix every variable
        outside A to 1: by Mobius inversion on that subcube, f sums to
        its x_A coefficient, 1, so f is nonzero at a subcube point,
        whose weight is at least m - r > r when 2r < m.  When 2r >= m - 1,
        apply the same argument to the dual RM(m, m - r - 1), fixing the
        outside variables to 0: no nonzero dual word vanishes on the
        points of weight <= m - r - 1, a subset of the prefix, so no dual
        word is supported on the tail and P has full column rank n - k.
        The two cases cover every r, and each gives min(k, n - k).
        """
        return min(self.k, self.outer_length - self.k)

    @cached_property
    def inner_maps(self) -> InnerMaps:
        """Pivots (the rows' points, ascending) and byte tables of the inner
        code, from its rows x_p on first use: R_p is x_p masked, G_P^-1 is x_p at the points."""
        gen, points, m = self.inner.gen, self.inner.points, self.inner.parent.m
        inclusion = gen.column_submatrix(points).row_values  # bit i of row p: [p <= points[i]]
        pivots, rows, inclusion = zip(*sorted(zip(points, gen.row_values, inclusion)))  # by p
        return InnerMaps(
            pivots=np.array(pivots, dtype=np.intp),
            rref=_reduced_rows(self.inner_order, list(rows), pivots, _point_weights(m)),
            to_codeword=_byte_tables(gen.row_values),
            to_message=_byte_tables(inclusion),
        )

    @cached_property
    def inner_codebook(self) -> tuple[int, ...]:
        """Packed inner codeword of every inner message, by message."""
        return tuple(map(self.inner_maps.codeword, range(1 << self.inner.k)))


def build_plan(
    m: int,
    r: int,
    spec: RllSpec,
    part_exponent: int,
    inner_order: int | None = None,
) -> CosetPlan:
    """Derive all plan quantities from (m, r, d, part exponent, inner order).

    Parts have length 2**(m - part_exponent + z) with z = d.bit_length().
    When no inner order is given, the order-selection rule is applied to
    the inner length with the outer code rate.
    """
    m, r = _integer(m, "m"), _integer(r, "r")
    part_exponent = _integer(part_exponent, "part exponent")
    if inner_order is not None:
        inner_order = _integer(inner_order, "inner order")
    k, length = _dimension(m, r), 1 << m
    z = spec.anchor_count
    if part_exponent < 1:
        raise ValueError("part exponent must be at least 1")
    n_inner = m - part_exponent + z
    if n_inner < 1:
        raise ValueError("part exponent too large: parts would be empty")
    picked = inner_order is None
    if picked:
        if k == length:
            raise ValueError(
                "r = m leaves no tail, so no inner order can be selected;"
                " give the inner order"
            )
        inner_order = select_order(n_inner, k / length)
    if not z <= inner_order <= n_inner:
        reason = f"inner order must lie in [{z}, {n_inner}] for a nonzero inner subcode"
        if picked:
            reason = (
                f"the selection rule picked inner order {inner_order}, but the {reason};"
                " give the inner order"
            )
        raise ValueError(reason)
    inner = build_subcode(RmCode(n_inner, inner_order), spec)
    tail = length - k
    part_count = -(-tail // inner.k)
    pad = part_count * inner.k - tail

    sys_gen, perm = systematic_generator(m, r)
    prefix_mask = (1 << k) - 1
    if any(row & prefix_mask != 1 << i for i, row in enumerate(sys_gen.row_values)):
        raise AssertionError("systematic generator is not the identity on the information set")

    return CosetPlan(
        m=m,
        r=r,
        spec=spec,
        part_exponent=part_exponent,
        inner_order=inner_order,
        k=k,
        outer_length=length,
        part_length=1 << n_inner,
        part_count=part_count,
        pad_bits=pad,
        payload_bits=payload_bits(k, spec),
        permutation=Ordering(m, perm, "explicit"),
        outer_gen=sys_gen,
        inner=inner,
    )


@dataclass(frozen=True)
class CosetTransmission:
    """Everything emitted for one message."""

    prefix: BitWord
    parts: tuple[BitWord, ...]
    outer_codeword: BitWord

    @property
    def transmitted(self) -> BitWord:
        value, length = self.prefix.value, len(self.prefix)
        for p in self.parts:
            value |= p.value << length
            length += len(p)
        return BitWord(value, length)


def encode(message_index: int, plan: CosetPlan) -> CosetTransmission:
    """Map a message index to its constrained transmission.

    The prefix is the enumeratively encoded message; the systematic
    codeword tail, zero-padded at the end to a multiple of the inner
    dimension, is encoded part by part with the inner subcode.  Each
    part starts with at least d zeros, so the concatenation of prefix
    and parts is globally constrained.
    """
    if not 0 <= message_index < (1 << plan.payload_bits):
        raise ValueError("message index out of range")
    w = enumerative_encode(message_index, plan.k, plan.spec)
    c = plan.outer_gen.vecmat(w)
    tail_bits = c.value >> plan.k
    dim = plan.inner.k
    mask = (1 << dim) - 1
    codeword = plan.inner_maps.codeword
    parts = [
        BitWord(codeword((tail_bits >> (i * dim)) & mask), plan.part_length)
        for i in range(plan.part_count)
    ]
    return CosetTransmission(prefix=w, parts=tuple(parts), outer_codeword=c)


@dataclass(frozen=True)
class DecodeResult:
    """status "message" carries the decoded index; "ambiguous" means an
    erasure pattern left multiple candidates; "failure" names the stage
    ("part:<i>" or "outer") whose system had no solution."""

    status: str
    message: int | None = None
    stage: str | None = None

    @property
    def is_message(self) -> bool:
        return self.status == "message"


def check_bsc_limits(plan: CosetPlan) -> None:
    """Raise ValueError when the plan is too large for flip-channel decoding."""
    coset_dim = plan.k - plan.tail_rank
    if coset_dim > BSC_MAX_COSET_DIM or plan.inner.k > BSC_MAX_INNER_DIM:
        raise ValueError(
            f"bsc decoding is exhaustive and needs k - rank(P) <= {BSC_MAX_COSET_DIM}"
            f" and inner dimension <= {BSC_MAX_INNER_DIM}"
            f" (plan has {coset_dim} and {plan.inner.k})"
        )


def decode(
    prefix_obs: np.ndarray,
    parts_obs: np.ndarray,
    plan: CosetPlan,
    channel,
) -> DecodeResult:
    """Two-stage decode of the prefix/parts observations.

    One packed int holds the observation's 1s, its 0s and (on an erasure
    channel) its unerased positions and every part's pivot 1s and
    erasures, end to end; each part is taken from it by shift and mask.
    Only the part step depends on the channel.  On an erasure channel,
    as in the outer step, the unknowns are only the erased pivot bits:
    the known pivot bits of the inner code's row-reduced generator give
    part of the message, and the erased ones are solved from the part's
    unerased non-pivot columns (an underdetermined part is ambiguous,
    an inconsistent one a failure at "part:<i>"; a part with no erased
    pivot is consistent exactly when its residual is zero).  On a flip
    channel each part goes to its nearest inner codeword.  Both then
    share one outer step on the systematic generator [I | P]: with the
    tail recovered, the prefix bits not known exactly (the erased ones,
    or all k on a flip channel) are solved from w P = tail, and the
    prefixes that fit form a coset of the kernel of those rows.  An
    erasure coset with more than one member is reported as ambiguous,
    never guessed.  Among the coset members that are constrained and
    encode a message index, the one nearest the prefix observation wins
    (ties go to the smaller index); no such member is a failure at
    "outer".

    Both stages subtract the known pivots' rows and ``solve_right`` on
    the unknown pivots' rows and the seen columns.  This decides the
    full system on the seen columns: in a reduced row-echelon generator
    row i alone has a 1 in pivot column i, so the full rank is the known
    pivot count plus that of the unknown rows on the seen columns, and
    the two are consistent, and unique, together.

    A symbol outside the channel's alphabet, {0, 1} on a flip channel
    and {0, 1, ERASED} on an erasure channel, raises ValueError: the 0s
    and 1s must cover every position, or every unerased one.
    """
    prefix_obs = np.asarray(prefix_obs)
    parts_obs = np.asarray(parts_obs)
    if prefix_obs.shape != (plan.k,):
        raise ValueError("prefix observation length mismatch")
    if parts_obs.shape != (plan.part_count * plan.part_length,):
        raise ValueError("parts observation length mismatch")
    erasure = isinstance(channel, BEC)
    if not erasure:
        if not isinstance(channel, BSC):
            raise TypeError(f"unsupported channel {channel!r}")
        check_bsc_limits(plan)

    k, dim, npart = plan.k, plan.inner.k, plan.part_length
    obs = np.concatenate((prefix_obs, parts_obs))
    n, full = obs.size, (1 << obs.size) - 1
    fields = [obs == 1, obs == 0]
    if erasure:
        # every part's pivot bits, dim apart, in one gather
        maps = plan.inner_maps
        pivot_obs = parts_obs.reshape(plan.part_count, npart)[:, maps.pivots].ravel()
        fields += [obs != ERASED, pivot_obs == 1, pivot_obs == ERASED]
    packed = _pack_bits(np.concatenate(fields))
    ones, binary = packed & full, (packed | packed >> n) & full
    unerased = 0  # a flip channel knows no bit exactly
    if erasure:
        unerased = (packed >> 2 * n) & full
        pivot_ones = (packed >> 3 * n) & ((1 << pivot_obs.size) - 1)
        pivot_erased = packed >> (3 * n + pivot_obs.size)
    if (unerased if erasure else full) & ~binary:
        symbols = (0, 1, ERASED) if erasure else (0, 1)
        raise ValueError(f"observation symbols on {type(channel).__name__} must be in {symbols}")
    part_mask = (1 << npart) - 1
    dim_mask = (1 << dim) - 1
    tail_val = 0
    for i in range(plan.part_count):
        shift = k + i * npart
        y = (ones >> shift) & part_mask
        if erasure:
            seen = (unerased >> shift) & part_mask
            u = maps.message((pivot_ones >> (i * dim)) & dim_mask)
            residual = (maps.codeword(u) ^ y) & seen
            erased = (pivot_erased >> (i * dim)) & dim_mask
            if erased:
                sol = maps.rref.solve_right(BitWord(residual, npart), rows=erased, cols=seen)
                if sol.status == "underdetermined":
                    return DecodeResult("ambiguous")
                if sol.status == "inconsistent":
                    return DecodeResult("failure", stage=f"part:{i}")
                u ^= maps.message(sol.vector.value)
            elif residual:
                return DecodeResult("failure", stage=f"part:{i}")
        else:
            book = plan.inner_codebook
            u = min(range(1 << dim), key=lambda u: (book[u] ^ y).bit_count())
        tail_val |= u << (i * dim)
    tail = (tail_val << k) & plan.tail_mask  # padding carries no information

    prefix_mask = (1 << k) - 1
    known = unerased & prefix_mask
    prefix_ones = ones & prefix_mask
    values = prefix_ones & known
    gen = plan.outer_gen
    residual = BitWord(gen.vecmat(BitWord(values, k)).value ^ tail, gen.ncols)
    sol = gen.solve_right(residual, rows=prefix_mask & ~known, cols=plan.tail_mask)
    if sol.status == "inconsistent":
        return DecodeResult("failure", stage="outer")
    if erasure and sol.status == "underdetermined":
        return DecodeResult("ambiguous")
    # the prefixes with this tail: the particular solution plus every
    # combination of the kernel basis
    d = plan.spec.d
    words = [sol.vector.value | values]
    for basis_vec in reversed(sol.kernel):  # descending highest bit
        # the bits above this vector's highest bit are final in every word
        # from here on, so a word that breaks the gap there is dropped now
        v = basis_vec.value
        words = [w for w in words if is_constrained_value(w >> v.bit_length(), d)]
        words += [w ^ v for w in words]
    best = None
    for wv in words:
        if not is_constrained_value(wv, d):
            continue
        index = enumerative_decode(BitWord(wv, k), plan.spec)
        if index >= 1 << plan.payload_bits:
            continue
        key = ((wv ^ prefix_ones).bit_count(), index)
        if best is None or key < best:
            best = key
    if best is None:
        return DecodeResult("failure", stage="outer")
    return DecodeResult("message", message=best[1])


def coset_rate_lower_bound(
    noiseless_cap: float, channel_capacity: float, spec: RllSpec, part_exponent: int
) -> float:
    """Achievable-rate lower bound of the scheme in the large-m regime.

    With z = d.bit_length(), C the channel capacity and C0 the
    constraint capacity, the bound is
    C0 * C^2 * 2^-z / (C^2 * 2^-z + 1 - C + 2^-part_exponent).
    Multiplied through by 2^z, no power of 2 underflows: at C = 1 it is
    C0 / (1 + 2^(z - part_exponent)).  Where one overflows, it is 0.
    """
    if not 0.0 < channel_capacity <= 1.0:
        raise ValueError("channel capacity must lie in (0, 1]")
    if not 0.0 < noiseless_cap <= 1.0:
        raise ValueError("constraint capacity must lie in (0, 1]")
    if part_exponent < 1:
        raise ValueError("part exponent must be at least 1")
    c, z = channel_capacity, spec.anchor_count
    try:
        den = c * c + math.ldexp(1.0 - c, z) + math.ldexp(1.0, z - part_exponent)
    except OverflowError:
        return 0.0
    return noiseless_cap * c * c / den


def crossover_capacity(spec: RllSpec, part_exponent: int) -> float | None:
    """Channel capacity above which the coset bound beats the plain
    anchored-subcode bound C * 2^-z, or None when none lies in (0, 1].

    With a = 2^-z, b = 1 + C0 and e = 1 + 2^-part_exponent, the coset
    bound exceeds C * a at C > 0 exactly when q(C) = a C^2 - b C + e < 0.
    As b <= 2, q(C) >= e - 2C > 0 for C <= 1/2.  For z >= 1 the vertex
    b / (2a) = (1 + C0) 2^(z-1) is at least 1, so q falls on (0, 1] and
    has a root there exactly when q(1) < 0; for z = 0, C0 = 1 and
    q(C) = (1 - C)^2 + 2^-part_exponent > 0.  q(1) < 0 is tested as the
    bound at C = 1, C0 / (1 + 2^(z - part_exponent)) > a, where no small
    term is added to 1 and lost.  The crossover is then the smaller root,
    2e / (b + sqrt(b^2 - 4ae)): nothing cancels, and a = 0 gives e / b.
    """
    c0 = noiseless_capacity(spec)
    a = math.ldexp(1.0, -spec.anchor_count)
    if coset_rate_lower_bound(c0, 1.0, spec, part_exponent) <= a:
        return None
    b, e = 1.0 + c0, 1.0 + math.ldexp(1.0, -part_exponent)
    return 2.0 * e / (b + math.sqrt(b * b - 4.0 * a * e))


def bsc_threshold(capacity_value: float) -> float:
    """Flip probability in [0, 1/2] whose channel capacity equals the
    given value (capacity is decreasing in p on this interval)."""
    if not 0.0 <= capacity_value <= 1.0:
        raise ValueError("capacity must lie in [0, 1]")
    target = 1.0 - capacity_value
    return _bisect(lambda p: binary_entropy(p) < target, 0.0, 0.5, 1e-9)
