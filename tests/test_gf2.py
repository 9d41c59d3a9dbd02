import numpy as np
import pytest

from rmrll.gf2 import BinaryMatrix, BitWord
from rmrll.rm import RmCode

from oracles import column_scan_rref, numpy_rank, numpy_rref, per_bit_gather, weight_order


def random_matrix(rng, nrows, ncols):
    arr = rng.integers(0, 2, size=(nrows, ncols), dtype=np.uint8)
    rows = [int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little") for row in arr]
    return BinaryMatrix(rows, ncols), arr


class TestBitWord:
    def test_string_round_trip(self):
        w = BitWord.from_string("0110100")
        assert w.to01() == "0110100"
        assert len(w) == 7
        assert w.value == 0b0010110
        assert w.value.bit_count() == 3
        assert w.support() == (1, 2, 4)

    def test_array_round_trip(self):
        rng = np.random.default_rng(5)
        for n in (0, 1, 7, 8, 9, 64, 65):
            arr = rng.integers(0, 2, size=n, dtype=np.uint8)
            w = BitWord.from_array(arr)
            assert len(w) == n
            assert np.array_equal(w.to_array(), arr)

    def test_from_string_rejects_other_characters(self):
        assert BitWord.from_string("") == BitWord(0, 0)
        for text in ("0120", "10a", "1_0", " 10", "10\n", "1 0"):
            with pytest.raises(ValueError, match="bits must be 0 or 1"):
                BitWord.from_string(text)
        # the array twin: an erased symbol (-1) or a 2 is not a bit
        assert BitWord.from_array(np.array([], dtype=np.int8)) == BitWord(0, 0)
        for arr in ([2, -1, 0], [0, 1, -1], [0.5], [[0, 1], [1, 2]]):
            with pytest.raises(ValueError, match="bits must be 0 or 1"):
                BitWord.from_array(np.array(arr))

    def test_indexing(self):
        w = BitWord.from_string("10110")
        assert [w[i] for i in range(5)] == [1, 0, 1, 1, 0]
        assert list(w) == [1, 0, 1, 1, 0]
        assert w[1:4].to01() == "011"
        assert w[:0].to01() == ""
        with pytest.raises(IndexError):
            w[5]
        with pytest.raises(ValueError):
            w[::2]

    def test_xor_and_concat(self):
        a = BitWord.from_string("1100")
        b = BitWord.from_string("1010")
        assert (a ^ b).to01() == "0110"
        assert a.concat(b).to01() == "11001010"
        with pytest.raises(ValueError):
            a ^ BitWord.from_string("111")

    def test_value_must_fit(self):
        with pytest.raises(ValueError):
            BitWord(4, 2)
        with pytest.raises(ValueError):
            BitWord(-1, 2)
        BitWord(3, 2)  # boundary is fine

    def test_value_and_length_read_as_integers(self):
        # a numpy int becomes an int (numpy ints have no bit_length); a float is rejected
        word = BitWord(np.int64(5), np.uint8(8))
        assert type(word.value) is int and len(word) == 8 and word.support() == (0, 2)
        assert BitWord(1, 8).concat(BitWord(np.int64(1), 1)).support() == (0, 8)
        for value, length in ((1.0, 8), (1, 8.0), ("1", 8), (None, 8)):
            with pytest.raises(ValueError, match="must be an integer"):
                BitWord(value, length)

    def test_hash_eq(self):
        assert BitWord(5, 4) == BitWord(5, 4)
        assert BitWord(5, 4) != BitWord(5, 5)
        assert len({BitWord(5, 4), BitWord(5, 4), BitWord(5, 5)}) == 2


class TestBinaryMatrix:
    def test_rank_matches_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            nrows = int(rng.integers(0, 12))
            ncols = int(rng.integers(1, 16))
            mat, arr = random_matrix(rng, nrows, ncols)
            assert mat.rank() == numpy_rank(arr)

    def test_rref_matches_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(40):
            nrows = int(rng.integers(1, 10))
            ncols = int(rng.integers(1, 14))
            mat, arr = random_matrix(rng, nrows, ncols)
            got, pivots = mat.rref()
            want, want_pivots = numpy_rref(arr)
            assert pivots == want_pivots
            assert np.array_equal(got.to_array(), want)

    def test_rank_of_columns_matches_submatrix(self):
        rng = np.random.default_rng(13)
        for _ in range(40):
            mat, arr = random_matrix(rng, int(rng.integers(1, 9)), 12)
            cols = [int(c) for c in rng.choice(12, size=int(rng.integers(1, 12)), replace=False)]
            assert mat.rank_of_columns(cols) == mat.column_submatrix(cols).rank()
            assert mat.rank_of_columns(cols) == numpy_rank(arr[:, sorted(cols)])

    def test_column_submatrix_matches_per_bit_gather(self):
        rng = np.random.default_rng(18)
        mat, _ = random_matrix(rng, 150, 200)  # more than one 64-row chunk
        selections = [
            [int(c) for c in rng.integers(0, 200, size=300)],  # with repeats
            list(range(199, -1, -1)),
            [7, 7, 7, 0, 199],
            [],
        ]
        for cols in selections:
            sub = mat.column_submatrix(cols)
            assert sub.ncols == len(cols) and sub.nrows == mat.nrows
            assert sub.row_values == per_bit_gather(mat.row_values, cols)
            assert mat.column_submatrix(np.array(cols, np.intp)) == sub
        empty = BinaryMatrix([], 100).column_submatrix([3, 3, 99])
        assert empty.nrows == 0 and empty.ncols == 3
        assert BinaryMatrix([0, 0], 0).column_submatrix([]).row_values == (0, 0)
        # numpy would read -1 as the last column; 2**70 overflows int64
        for bad in (-1, mat.ncols, 1 << 70):
            with pytest.raises(ValueError, match="out of range"):
                mat.column_submatrix([0, bad])
        for bad in (np.array([0, -1]), np.array([mat.ncols]), np.array([1 << 63], np.uint64)):
            with pytest.raises(ValueError, match="out of range"):
                mat.column_submatrix(bad)

    def test_column_submatrix_rejects_non_integer_entries(self):
        # neither truncated (0.7 would read column 0) nor parsed ("0")
        mat = BinaryMatrix([1, 2], 2)
        for bad in ([0.7], ["0"], [0, 1.0], np.array([0.0, 1.0]), [None]):
            with pytest.raises(ValueError, match="must be integers"):
                mat.column_submatrix(bad)
        given = np.array([1, 0], np.int32)  # integer arrays are still read as they are
        assert mat.column_submatrix(given) == BinaryMatrix([2, 1], 2)

    def test_rref_matches_column_scan_on_rm_generators(self):
        # weight-permuted and information-set-restricted RM(m, r)
        # generators: every row brings its own lowest-bit pivot
        for m in range(1, 10):
            perm = weight_order(m)
            for r in range(m + 1):
                gen = RmCode(m, r).gen
                info = [i for i in range(1 << m) if i.bit_count() <= r]
                assert gen.rank_of_columns(info) == gen.nrows
                mask = sum(1 << i for i in info)
                restricted = BinaryMatrix([row & mask for row in gen.row_values], gen.ncols)
                for mat in (gen.column_submatrix(perm), restricted):
                    reduced, pivots = mat.rref()
                    want, want_pivots = column_scan_rref(mat.row_values, mat.ncols)
                    assert pivots == want_pivots and len(pivots) == gen.nrows
                    assert reduced.row_values == want

    def test_from_strings_rejects_unequal_rows(self):
        for rows in (["01", "1"], ["1", "01"], ["101", "10", "101"]):
            with pytest.raises(ValueError, match="equal length"):
                BinaryMatrix.from_strings(rows)
        assert BinaryMatrix.from_strings(["01", "10"]) == BinaryMatrix([2, 1], 2)

    def test_column_submatrix_order(self):
        mat = BinaryMatrix.from_strings(["1010", "0110"])
        sub = mat.column_submatrix([2, 0])
        assert sub.ncols == 2
        # the given order is kept: column 2 then column 0
        assert sub == BinaryMatrix.from_strings(["11", "10"])
        with pytest.raises(ValueError):
            mat.column_submatrix([4])

    def test_mask_columns_matches_submatrix(self):
        # a column mask (rank_of_columns, solve_right's cols) acts as the
        # gathered submatrix on the kept columns
        rng = np.random.default_rng(15)
        for _ in range(40):
            mat, arr = random_matrix(rng, int(rng.integers(1, 9)), 12)
            size = int(rng.integers(0, 13))
            keep = sorted(int(c) for c in rng.choice(12, size=size, replace=False))
            mask = sum(1 << c for c in keep)
            sub = mat.column_submatrix(keep)
            assert mat.rank_of_columns(keep) == sub.rank() == numpy_rank(arr[:, keep])
            u = BitWord.from_array(rng.integers(0, 2, size=mat.nrows, dtype=np.uint8))
            noise = BitWord.from_array(rng.integers(0, 2, size=12, dtype=np.uint8))
            for y in (mat.vecmat(u), noise):  # consistent, then arbitrary
                got = mat.solve_right(y, cols=mask)
                ref = sub.solve_right(BitWord.from_array(y.to_array()[keep]))
                assert got == ref

    def test_vecmat_matches_numpy(self):
        rng = np.random.default_rng(14)
        for _ in range(40):
            nrows = int(rng.integers(1, 10))
            mat, arr = random_matrix(rng, nrows, int(rng.integers(1, 14)))
            u = rng.integers(0, 2, size=nrows, dtype=np.uint8)
            want = arr.T @ u % 2
            assert np.array_equal(mat.vecmat(BitWord.from_array(u)).to_array(), want)

    def test_identity_stack_zeros(self):
        eye = BinaryMatrix([1 << i for i in range(3)], 3)
        assert eye.to_array().tolist() == np.eye(3, dtype=np.uint8).tolist()
        rng = np.random.default_rng(19)
        for shape in ((0, 5), (0, 0), (4, 0), (6, 9), (3, 17)):
            mat, arr = random_matrix(rng, *shape)
            rows = [BitWord(v, mat.ncols).to_array() for v in mat.row_values]
            per_row = np.array(rows, dtype=np.uint8).reshape(shape)
            got = mat.to_array()
            assert got.dtype == np.uint8 and got.shape == shape
            assert np.array_equal(got, per_row) and np.array_equal(got, arr)
        assert BinaryMatrix([1, 2, 4, 0, 0], 3).rank() == 3

    def test_row_width_validation(self):
        with pytest.raises(ValueError):
            BinaryMatrix([4], 2)

    def test_rows_read_as_integers(self):
        # a string is not parsed as a decimal and a float is not truncated
        for row in ("11", 1.9, 1.0, np.float64(1.0), None):
            with pytest.raises(ValueError, match="row must be an integer"):
                BinaryMatrix([row], 4)
        mat = BinaryMatrix([np.int64(3), np.uint8(5), True, BitWord(6, 4)], 4)
        assert mat.row_values == (3, 5, 1, 6)
        assert all(type(v) is int for v in mat.row_values)


class TestSolveRight:
    def test_unique_solution_recovers_message(self):
        rng = np.random.default_rng(16)
        found = 0
        for _ in range(60):
            nrows = int(rng.integers(1, 9))
            ncols = int(rng.integers(nrows, 14))
            mat, arr = random_matrix(rng, nrows, ncols)
            if mat.rank() != nrows:
                continue
            found += 1
            u = BitWord.from_array(rng.integers(0, 2, size=nrows, dtype=np.uint8))
            sol = mat.solve_right(mat.vecmat(u))
            assert sol.status == "unique" and sol.vector == u
        assert found > 10

    def test_underdetermined(self):
        mat = BinaryMatrix.from_strings(["1100", "1100", "0011"])
        sol = mat.solve_right(BitWord.from_string("1111"))
        assert sol.status == "underdetermined"
        assert len(sol.kernel) == 1

    def test_inconsistent(self):
        mat = BinaryMatrix.from_strings(["1100", "0011"])
        sol = mat.solve_right(BitWord.from_string("1000"))
        assert sol.status == "inconsistent"
        assert sol.vector is None

    def test_consistency_always_verified(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            mat, _ = random_matrix(rng, int(rng.integers(1, 9)), int(rng.integers(1, 12)))
            y = BitWord.from_array(rng.integers(0, 2, size=mat.ncols, dtype=np.uint8))
            sol = mat.solve_right(y)
            if sol.status == "unique":
                assert mat.vecmat(sol.vector) == y

    def test_length_mismatch(self):
        mat = BinaryMatrix.from_strings(["110"])
        with pytest.raises(ValueError):
            mat.solve_right(BitWord.from_string("11"))
        with pytest.raises(ValueError):
            mat.vecmat(BitWord.from_string("11"))
        y = BitWord.from_string("110")
        for masks in ({"rows": 0b10}, {"rows": -1}, {"cols": 0b1000}, {"cols": -1}):
            with pytest.raises(ValueError):
                mat.solve_right(y, **masks)
