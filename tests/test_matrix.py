"""Dense linear algebra over GF(q): RREF, nullspace, products, MDS oracle."""
import random
from itertools import combinations
from unittest import mock

import numpy as np
import pytest

from aqmds.construct import extended_grs, grs, ones, q_plus_2_low, _q_plus_2_check_matrix
from aqmds.errors import AqmdsError
from aqmds import matrix
from aqmds.gf import make_field
from aqmds.matrix import (
    GfMatrix,
    first_singular_k_subset,
    mat_mul,
    nullspace,
    rank,
    rref,
    transpose,
)


class TestRref:
    def test_identity_fixed_point(self):
        f = make_field(5)
        I = GfMatrix.identity(f, 3)
        R, pivots = rref(I)
        assert R == I and pivots == [0, 1, 2]

    def test_zero_matrix(self):
        f = make_field(3)
        Z = GfMatrix.zeros(f, 2, 4)
        R, pivots = rref(Z)
        assert R == Z and pivots == []

    def test_dependent_rows_gf3(self):
        f = make_field(3)
        M = GfMatrix(f, [[1, 1], [2, 2]])  # row 2 = 2 * row 1
        R, pivots = rref(M)
        assert R.data.tolist() == [[1, 1], [0, 0]]
        assert pivots == [0]

    def test_deterministic(self):
        f = make_field(7)
        rng = random.Random(1)
        for _ in range(20):
            data = [[rng.randrange(7) for _ in range(5)] for _ in range(4)]
            r1, p1 = rref(GfMatrix(f, data))
            r2, p2 = rref(GfMatrix(f, data))
            assert r1 == r2 and p1 == p2


class TestNullspace:
    def test_parity_code(self):
        f = make_field(2)
        N = nullspace(GfMatrix(f, [[1, 1, 1]]))
        assert N.rows == 2  # the even-weight space of length 3
        for i in range(N.rows):
            assert int(N.data[i].sum()) % 2 == 0

    def test_full_rank_square(self):
        f = make_field(5)
        N = nullspace(GfMatrix.identity(f, 4))
        assert N.rows == 0

    def test_grs_dual_orthogonality(self):
        f = make_field(5)
        G = grs(f, 5, 2).G
        N = nullspace(G)
        assert N.rows == 3
        prod = mat_mul(G, transpose(N))
        assert not np.any(prod.data)

    def test_double_nullspace_recovers_rowspace(self):
        rng = random.Random(3)
        for q in (2, 3, 4, 5, 7):
            f = make_field(q)
            for _ in range(10):
                data = [[rng.randrange(q) for _ in range(6)] for _ in range(3)]
                M = GfMatrix(f, data)
                if rank(M) == 0:
                    continue
                R, _ = rref(M)
                keep = np.any(R.data != 0, axis=1)
                R = GfMatrix(f, R.data[keep])
                back = nullspace(nullspace(M))
                assert back == R


class TestProducts:
    def test_times_identity(self):
        f = make_field(7)
        A = GfMatrix(f, [[1, 2, 3], [4, 5, 6]])
        assert mat_mul(A, GfMatrix.identity(f, 3)) == A

    def test_length_q_plus_2_pair_orthogonal_gf4(self):
        # inverse-entry generator times the 3-row parity check = 0
        f = make_field(4)
        G = q_plus_2_low(f).G
        H = _q_plus_2_check_matrix(f, ones(6))
        prod = mat_mul(G, transpose(H))
        assert prod.rows == 3 and prod.cols == 3
        assert not np.any(prod.data)

    def test_scalar_product_gf5(self):
        f = make_field(5)
        out = mat_mul(GfMatrix(f, [[2]]), GfMatrix(f, [[3]]))
        assert out.data.tolist() == [[1]]

    def test_dimension_mismatch(self):
        f = make_field(5)
        with pytest.raises(AqmdsError, match="inner dimensions 3 != 2"):
            mat_mul(GfMatrix.zeros(f, 2, 3), GfMatrix.zeros(f, 2, 3))

    def test_field_mismatch(self):
        with pytest.raises(AqmdsError, match="matrices over different fields"):
            mat_mul(GfMatrix.zeros(make_field(4), 2, 2),
                    GfMatrix.zeros(make_field(5), 2, 2))


class TestKSubsetOracle:
    def test_repetition_generator(self):
        f = make_field(5)
        M = GfMatrix(f, [[1, 1, 1, 1, 1]])
        assert first_singular_k_subset(M, 1) is None

    def test_singular_pair_gf2(self):
        f = make_field(2)
        # A = [0; 0] in [I | A]: the first zero minor is row 0's, so the
        # subset holds the pivot of row 1 and the non-pivot column 2
        M = GfMatrix(f, [[1, 0, 0], [0, 1, 0]])
        assert first_singular_k_subset(M, 2) == (1, 2)

    def test_grs_vandermonde_gf7(self):
        f = make_field(7)
        M = grs(f, 5, 3).G
        assert first_singular_k_subset(M, 3) is None

    def test_singular_subset_in_second_chunk(self, monkeypatch):
        # _minors computes the C(3, 2) = 3 row pairs of level 2 in chunks of
        # 24 // (C(4, 2) * 2) = 2; A has no zero entry, and its one zero 2 x 2
        # minor, on rows (1, 2) and columns (2, 3), is in the second chunk
        monkeypatch.setattr(matrix, "_CHUNK_TARGET", 24)
        f = make_field(7)
        M = GfMatrix(f, [[1, 0, 0, 1, 1, 1, 1], [0, 1, 0, 1, 2, 3, 4], [0, 0, 1, 1, 3, 2, 5]])
        assert first_singular_k_subset(M, 3) == (0, 5, 6)

    @pytest.mark.parametrize("u, i", [(1, 1), (4, 1), (5, 5), (6, 3), (8, 2), (9, 4)])
    def test_subset_table_drops_each_element(self, u, i):
        # the i-subsets of range(u) in combinations order; drops[s, j] is the index
        # of subset s without its j-th element among the (i-1)-subsets
        subsets, drops = matrix._subsets(u, i)
        assert [tuple(s) for s in subsets.tolist()] == list(combinations(range(u), i))
        smaller = list(combinations(range(u), i - 1))
        assert drops.shape == subsets.shape
        for s, row in zip(subsets.tolist(), drops.tolist()):
            assert [smaller[d] for d in row] == [tuple(s[:j] + s[j + 1:]) for j in range(i)]
        assert not subsets.flags.writeable and not drops.flags.writeable

    def test_subset_tables_are_kept_up_to_the_cap(self):
        # the i-subsets of range(300) fill 2 * C(300, 2) = 89,700 entries
        assert matrix._subsets(9, 4)[0] is matrix._subsets(9, 4)[0]
        assert matrix._subsets(300, 2)[0] is matrix._subsets(300, 2)[0]
        assert matrix._subsets(300, 2)[1].dtype == np.uint16  # C(300, 1) = 300 > 255
        with mock.patch.object(matrix, "_TABLE_CAP", 1 << 16):
            matrix._TABLES.clear()
            matrix._subsets(9, 4)
            assert list(matrix._TABLES) == [(9, 4)]
            # past the cap: the kept tables go, and the new one is not kept
            assert matrix._subsets(300, 2)[0] is not matrix._subsets(300, 2)[0]
            assert matrix._TABLES == {}

    @pytest.mark.parametrize("q", [17, 19, 23, 25, 27, 32, 49, 64])
    def test_extended_grs_above_gf16(self, q):
        # past GF(16) a table index a * q + b passes 255: wrapped in uint8, it
        # would turn minors of these MDS generators to 0, or the 0 minors that a
        # last column 2 * col k makes to something else.  G is [I | A] and A
        # has no 0 entry, so the first zero of the scaled G is a 2 x 2 minor,
        # at a level that looks up tables: rows (0, 1) of A, columns k and q
        f = make_field(q)
        for k in (2, 3, 4):
            G = extended_grs(f, k).G
            assert first_singular_k_subset(G, k) is None
            scaled = G.data.copy()
            scaled[:, q] = f.mul_table[2, scaled[:, k]]
            assert first_singular_k_subset(GfMatrix(f, scaled), k) == (*range(2, k + 1), q)

    def test_rank_deficient_rejected(self):
        f = make_field(3)
        M = GfMatrix(f, [[1, 1], [2, 2]])
        with pytest.raises(AqmdsError, match="must have k=2 independent rows"):
            first_singular_k_subset(M, 2)

    @pytest.mark.parametrize("rows, k", [
        ([[1, 2, 0, 4], [2, 4, 0, 3]], 2),  # rank 1: row 1 is twice row 0
        ([[1, 0, 1, 0], [0, 1, 1, 0], [1, 1, 2, 0]], 3),  # rank 2: row 2 is row 0 plus row 1
        ([[1, 2, 3]], 2),  # fewer rows than k
        ([[0, 0, 0]], 1),
        ([[1, 2], [3, 4], [0, 1]], 3),  # fewer columns than k: no k-subset to test
    ])
    def test_rank_deficient_raises_the_same_error(self, rows, k):
        with pytest.raises(AqmdsError, match=f"^matrix must have k={k} independent rows$"):
            first_singular_k_subset(GfMatrix(make_field(5), rows), k)

    @pytest.mark.parametrize("rows, expected", [
        # RREF [[1, 1, 0], [0, 0, 1]]: pivots 0, 2; row 1 of A = [1; 0] is 0
        ([[1, 1, 0], [1, 1, 1]], (0, 1)),  # columns 0 and 1 equal
        # pivots 0, 1, 3 and A = [2; 0; 0]: row 1 leaves out pivot 1
        ([[1, 0, 2, 1], [0, 1, 0, 1], [1, 1, 2, 0]], (0, 2, 3)),  # column 2 is twice column 0
        ([[0, 1, 2, 3, 4]], (0,)),  # a zero first entry, k = 1
    ], ids=["rows0", "rows1", "rows2"])
    def test_full_rank_with_singular_first_subset(self, rows, expected):
        # each M has a singular first k-subset, range(k); the oracle returns
        # the subset of its first zero minor, which need not be that one
        M = GfMatrix(make_field(5), rows)
        k = M.rows
        assert rank(M) == k
        assert first_singular_k_subset(M, k) == expected

    def test_mds_generator_never_computes_the_rank(self, monkeypatch):
        def no_rank(M):
            raise AssertionError("rank called")
        monkeypatch.setattr(matrix, "rank", no_rank)
        f = make_field(7)
        for k in range(1, 7):
            assert first_singular_k_subset(grs(f, 6, k).G, k) is None


class TestInvariants:
    def test_rank_equals_transpose_rank(self):
        rng = random.Random(11)
        for q in (2, 3, 5, 7, 9):
            f = make_field(q)
            for _ in range(10):
                r = rng.randrange(1, 12)
                c = rng.randrange(1, 12)
                M = GfMatrix(f, [[rng.randrange(q) for _ in range(c)] for _ in range(r)])
                assert rank(M) == rank(transpose(M))

    def test_immutability(self):
        f = make_field(5)
        M = GfMatrix(f, [[1, 2], [3, 4]])
        with pytest.raises(ValueError):
            M.data[0, 0] = 0

    def test_entry_range_checked(self):
        with pytest.raises(AqmdsError, match="entry 5 out of range"):
            GfMatrix(make_field(4), [[5]])
