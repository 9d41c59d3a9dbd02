"""Bit-packed linear algebra over GF(2).

Words and matrix rows are stored as Python integers, with bit ``i``
holding coordinate/column ``i`` (coordinate 0 is the first transmitted
symbol).  Arbitrary-precision integers give word-parallel XOR row
operations for free, so elimination over a few thousand columns stays
fast.  ``vecmat`` and ``support`` find the set bits of a dense word in
numpy instead.  All objects are immutable after construction.

The module owns the packed-word format: in numpy a word is its
little-endian bytes, ``_byte_rows`` (ints to uint8 rows), ``_bytes_of``
(one int to bytes) and ``_int_of`` (bytes to an int) being the only
conversions.  It also owns the table multiply ``_table_mul``, u * M one
byte of u at a time.

Elimination pivots on each row's lowest set bit, its first column.  The
lowest set bit of a monomial x_S's evaluation is the point whose support
is S, so every row of a Reed-Muller generator, restricted to the points
of weight at most r or permuted by point weight, brings its own pivot
and enters the basis with no XOR.
"""

from __future__ import annotations

import operator
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

__all__ = ["BitWord", "BinaryMatrix", "Solution"]


class BitWord:
    """Immutable binary word of fixed length.

    The string form reads coordinate 0 first, so ``BitWord.from_string("0110")``
    has 1s at coordinates 1 and 2.  The value and length are read through
    ``_integer`` unless both are already ints.
    """

    __slots__ = ("_v", "_n")

    def __init__(self, value: int, length: int):
        if type(value) is not int or type(length) is not int:
            value, length = _integer(value, "value"), _integer(length, "length")
        if length < 0:
            raise ValueError("length must be nonnegative")
        if value < 0 or value >> length:
            raise ValueError(f"value {value} does not fit in {length} bits")
        self._v = value
        self._n = length

    @classmethod
    def from_string(cls, text: str) -> "BitWord":
        if not set(text) <= {"0", "1"}:
            raise ValueError("bits must be 0 or 1")
        return cls(int(text[::-1] or "0", 2), len(text))

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "BitWord":
        arr = np.asarray(arr)
        ones = arr == 1
        if not (ones | (arr == 0)).all():
            raise ValueError("bits must be 0 or 1")
        return cls(_pack_bits(ones), int(arr.size))

    @property
    def value(self) -> int:
        return self._v

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, key):
        if isinstance(key, slice):
            start, stop, step = key.indices(self._n)
            if step != 1:
                raise ValueError("only contiguous slices are supported")
            width = max(stop - start, 0)
            return BitWord((self._v >> start) & ((1 << width) - 1), width)
        if not 0 <= key < self._n:
            raise IndexError("coordinate out of range")
        return (self._v >> key) & 1

    def __iter__(self) -> Iterator[int]:
        return ((self._v >> i) & 1 for i in range(self._n))

    def __xor__(self, other: "BitWord") -> "BitWord":
        if self._n != len(other):
            raise ValueError("length mismatch")
        return BitWord(self._v ^ other._v, self._n)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BitWord)
            and self._n == other._n
            and self._v == other._v
        )

    def __hash__(self) -> int:
        return hash((self._v, self._n))

    def __repr__(self) -> str:
        return f"BitWord('{self.to01()}')"

    def to01(self) -> str:
        return "".join("1" if (self._v >> i) & 1 else "0" for i in range(self._n))

    def support(self) -> tuple[int, ...]:
        """Indices of the nonzero coordinates, ascending."""
        return tuple(_set_bits(self._v).tolist())

    def concat(self, other: "BitWord") -> "BitWord":
        return BitWord(self._v | (other._v << self._n), self._n + len(other))

    def to_array(self) -> np.ndarray:
        """The word as a uint8 array, coordinate 0 first."""
        return np.unpackbits(_bytes_of(self._v, self._n), count=self._n, bitorder="little")


def _byte_rows(values: Sequence[int], nbits: int) -> np.ndarray:
    """Nonnegative ints of at most ``nbits`` bits as the rows of a uint8
    array, each in its ceil(nbits / 8) little-endian bytes."""
    width = (nbits + 7) // 8
    raw = b"".join([v.to_bytes(width, "little") for v in values])
    return np.frombuffer(raw, np.uint8).reshape(len(values), width)


def _bytes_of(value: int, nbits: int) -> np.ndarray:
    """One ``_byte_rows`` row as a flat array, without the join and reshape."""
    return np.frombuffer(value.to_bytes((nbits + 7) // 8, "little"), np.uint8)


def _int_of(raw: np.ndarray) -> int:
    """The int whose little-endian bytes are ``raw`` (a ``_byte_rows`` row)."""
    return int.from_bytes(raw.tobytes(), "little")


def _pack_bits(bits: np.ndarray) -> int:
    """The int with bit i set where the flattened ``bits`` is nonzero."""
    return _int_of(np.packbits(bits, bitorder="little"))


def _set_bits(value: int) -> np.ndarray:
    """Positions of the 1s of a nonnegative int, ascending."""
    raw = _bytes_of(value, value.bit_length())
    return np.unpackbits(raw, bitorder="little").nonzero()[0]


def _integer(value, name: str) -> int:
    """``value`` as a Python int, read through ``operator.index``: a
    float or a string raises ValueError instead of being truncated or
    parsed, and a numpy integer becomes an int."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer") from None


def _index_array(items: Iterable[int], n: int, message: str) -> np.ndarray:
    """``items`` as an index array, each entry checked to lie in [0, n).

    A 1-D integer array is taken as it is (not copied); anything else is
    read once by ``fromiter``, each entry through ``operator.index``, so
    a float or a string raises ValueError instead of being truncated or
    parsed.  An entry outside the range, including one too large for
    int64, raises ``ValueError(message)``: numpy would read -1 as the
    last entry.
    """
    if isinstance(items, np.ndarray) and items.ndim == 1 and items.dtype.kind in "iu":
        arr = items
    else:
        entries = map(operator.index, items)
        try:
            arr = np.fromiter(entries, np.intp)
        except TypeError:
            raise ValueError("index entries must be integers") from None
        except OverflowError:
            raise ValueError(message) from None
    if arr.size and (arr.min() < 0 or arr.max() >= n):
        raise ValueError(message)
    return arr


def _byte_tables(rows: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Lookup tables for u -> u * M ("four Russians"): table b holds the
    XOR of every subset of rows 8b..8b+7, indexed by byte b of u."""
    tables = []
    for start in range(0, len(rows), 8):
        table = [0]
        for row in rows[start : start + 8]:
            table += [t ^ row for t in table]
        tables.append(tuple(table))
    return tuple(tables)


def _table_mul(tables: tuple[tuple[int, ...], ...], u: int) -> int:
    """u * M from the ``_byte_tables`` of M: one lookup per byte of u."""
    acc = 0
    for table in tables:
        acc ^= table[u & 0xFF]
        u >>= 8
    return acc


class Solution(NamedTuple):
    """Outcome of solving u * M = y for u.

    ``status`` is "unique" (``vector`` holds the solution), "inconsistent"
    (y is outside the row space), or "underdetermined" (consistent but
    rank-deficient).  An underdetermined solution carries a particular
    ``vector`` and a ``kernel`` basis of the u with u * M = 0, in
    ascending order of highest bit; the solutions are ``vector`` plus
    every combination of the kernel.  Kernel vector j has the bit of
    the j-th row that reduces to zero as its highest bit, whatever the
    pivot order; the particular ``vector`` follows from the lowest-bit
    pivots and is not otherwise fixed.  (A named tuple builds about four
    times faster than a frozen dataclass; the decoder makes one per solve.)
    """

    status: str
    vector: BitWord | None = None
    kernel: tuple[BitWord, ...] = ()


def _row_basis(
    entries: Sequence[int], ncols: int, basis: dict[int, int] | None = None
) -> tuple[dict[int, int], list[int]]:
    """Triangular basis of the span of ``entries``, and the tags of the
    entries that reduce to zero.  Shared by rank, solve, rref and the
    subcode search (which tags each row with itself, so the zero tags
    span the rows' shortening); a given ``basis`` is extended in place.

    An entry packs ``tag << ncols | vector``, so one XOR updates both;
    solve tags row i with bit i, rank and rref pass bare rows.  Each
    basis entry is keyed by its pivot, the lowest set bit of its vector
    (as ``bit_length``, so column c has key c + 1).  An entry whose pivot
    is free enters as it is: for Reed-Muller generators that is every
    row (see the module docstring).  With one rising tag bit per row,
    the zero-reducing tags form a basis of the left kernel, entry i's
    with its own bit as its highest bit.
    """
    if basis is None:
        basis = {}
    kernel: list[int] = []
    for acc in entries:
        while 0 < (lead := (acc & -acc).bit_length()) <= ncols:
            hit = basis.get(lead)
            if hit is None:
                basis[lead] = acc
                break
            acc ^= hit
        else:
            kernel.append(acc >> ncols)
    return basis, kernel


class BinaryMatrix:
    """Immutable GF(2) matrix with integer-packed rows."""

    __slots__ = ("_rows", "_ncols", "_bytes")

    def __init__(self, rows: Iterable[int | BitWord], ncols: int):
        if ncols < 0:
            raise ValueError("ncols must be nonnegative")
        packed = []
        for r in rows:
            v = r.value if isinstance(r, BitWord) else _integer(r, "row")
            if v < 0 or v >> ncols:
                raise ValueError("row does not fit in the column count")
            packed.append(v)
        self._rows = tuple(packed)
        self._ncols = ncols
        self._bytes = None  # the rows as a uint8 array, built by vecmat

    @classmethod
    def _trusted(cls, rows: Iterable[int], ncols: int) -> "BinaryMatrix":
        """A matrix on int rows known to fit in ``ncols`` bits, unchecked:
        for rows derived from an already valid matrix."""
        mat = object.__new__(cls)
        mat._rows = tuple(rows)
        mat._ncols = ncols
        mat._bytes = None
        return mat

    @classmethod
    def from_strings(cls, rows: Sequence[str]) -> "BinaryMatrix":
        if not rows:
            raise ValueError("cannot infer column count from no rows")
        ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise ValueError("rows must have equal length")
        return cls([BitWord.from_string(r) for r in rows], ncols)

    @property
    def nrows(self) -> int:
        return len(self._rows)

    @property
    def ncols(self) -> int:
        return self._ncols

    @property
    def row_values(self) -> tuple[int, ...]:
        return self._rows

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BinaryMatrix)
            and self._ncols == other._ncols
            and self._rows == other._rows
        )

    def __hash__(self) -> int:
        return hash((self._rows, self._ncols))

    def __repr__(self) -> str:
        return f"BinaryMatrix({self.nrows}x{self.ncols})"

    def to_array(self) -> np.ndarray:
        raw = _byte_rows(self._rows, self._ncols)
        return np.unpackbits(raw, axis=1, count=self._ncols, bitorder="little")

    def rank(self) -> int:
        return len(_row_basis(self._rows, self._ncols)[0])

    def rank_of_columns(self, cols: Iterable[int]) -> int:
        """Rank of the submatrix on ``cols``, without a per-bit gather:
        the rows masked to those columns have the same rank."""
        mask = 0
        for c in cols:
            if not 0 <= c < self._ncols:
                raise ValueError("column index out of range")
            mask |= 1 << c
        return len(_row_basis([r & mask for r in self._rows], self._ncols)[0])

    def rref(self) -> tuple["BinaryMatrix", tuple[int, ...]]:
        """Reduced row-echelon form and its pivot columns.

        Pivot columns are strictly increasing and each contains a single 1.
        The row space is preserved.  The rank basis already has one row
        per pivot, each zero left of its pivot (the pivot is its lowest
        bit); back-substitution from the last pivot clears the other
        pivot columns, and the zero rows follow.
        """
        basis, _ = _row_basis(self._rows, self._ncols)
        leads = sorted(basis)
        done: dict[int, int] = {}
        cleared = 0  # columns of the pivots reduced so far
        for lead in reversed(leads):
            row = basis.pop(lead)
            hits = row & cleared
            while hits:
                low = hits & -hits
                row ^= done[low.bit_length()]
                hits ^= low
            done[lead] = row
            cleared |= 1 << (lead - 1)
        rows = [done[lead] for lead in leads] + [0] * (self.nrows - len(leads))
        return BinaryMatrix._trusted(rows, self._ncols), tuple(lead - 1 for lead in leads)

    def column_submatrix(self, cols: Iterable[int]) -> "BinaryMatrix":
        """Gather columns: output column j is column ``cols[j]``.

        The given order is kept, so a permutation of all columns permutes
        the matrix.  ``cols`` may be an integer index array.
        """
        take = _index_array(cols, self._ncols, "column index out of range")
        out = []
        for start in range(0, self.nrows, 64):  # bounds the unpacked bytes
            raw = _byte_rows(self._rows[start : start + 64], self._ncols)
            bits = np.unpackbits(raw, axis=1, bitorder="little")
            picked = np.packbits(bits.take(take, axis=1), axis=1, bitorder="little")
            out.extend(map(_int_of, picked))
        return BinaryMatrix._trusted(out, take.size)

    def vecmat(self, u: BitWord) -> BitWord:
        """Row combination u * M, XOR-reduced in numpy over a uint8 copy of
        the rows made on the first call: a matrix only eliminated has none."""
        if len(u) != self.nrows:
            raise ValueError("vector length must equal the row count")
        if not u.value:
            return BitWord(0, self._ncols)
        if self._bytes is None:
            self._bytes = _byte_rows(self._rows, self._ncols)
        acc = np.bitwise_xor.reduce(self._bytes[_set_bits(u.value)], axis=0)
        return BitWord(_int_of(acc), self._ncols)

    def solve_right(self, y: BitWord, rows: int | None = None, cols: int | None = None) -> Solution:
        """Solve u * M = y for the row-combination vector u.

        The int masks ``rows`` and ``cols`` (all when omitted) restrict
        the unknowns to the coefficients of the rows in ``rows`` and the
        equations to the columns in ``cols``.  Each chosen row enters
        masked to ``cols`` and tagged with its own row bit, so the vector
        and kernel come back over all rows, zero off ``rows``.
        """
        ncols, nrows = self._ncols, len(self._rows)
        if len(y) != ncols:
            raise ValueError("target length must equal the column count")
        if rows is None:
            rows = (1 << nrows) - 1
        if cols is None:
            cols = (1 << ncols) - 1
        if rows < 0 or rows >> nrows or cols < 0 or cols >> ncols:
            raise ValueError("row or column mask out of range")
        entries = []
        while rows:  # few unknowns in the decoder: a bit loop beats numpy
            low = rows & -rows
            entries.append(low << ncols | self._rows[low.bit_length() - 1] & cols)
            rows ^= low
        basis, kernel = _row_basis(entries, ncols)
        acc = y.value & cols
        while 0 < (lead := (acc & -acc).bit_length()) <= ncols:
            hit = basis.get(lead)
            if hit is None:
                return Solution("inconsistent")
            acc ^= hit
        vector = BitWord(acc >> ncols, nrows)
        if not kernel:
            return Solution("unique", vector=vector)
        free = tuple(BitWord(c, nrows) for c in kernel)
        return Solution("underdetermined", vector=vector, kernel=free)
