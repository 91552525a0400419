"""Property-based checks over randomly drawn inputs (hypothesis)."""
import os
from itertools import combinations, product
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import aqmds.code
import aqmds.matrix
from aqmds.catalog import run_oracles
from aqmds.code import (LinearCode, _enumerate_scan, _lowest_weight, from_generator, full_space,
                        is_subcode, rows_outside)
from aqmds.construct import grs
from aqmds.css import AqcParams, css_construct, make_pair, pair_sides
from aqmds.errors import AqmdsError, CapExceeded
from aqmds.gf import _poly_is_irreducible, make_field
from aqmds.matrix import (GfMatrix, first_singular_k_subset, mat_mul, nullspace, rank, rref,
                          transpose)

import irreducible_reference

PRIME_POWERS = [2, 3, 4, 5, 7, 8, 9]

field_q = st.sampled_from(PRIME_POWERS)


@st.composite
def field_and_triple(draw):
    q = draw(field_q)
    f = make_field(q)
    a, b, c = (draw(st.integers(0, q - 1)) for _ in range(3))
    return f, a, b, c


@given(field_and_triple())
def test_field_axioms(fabc):
    f, a, b, c = fabc
    assert f.add(a, b) == f.add(b, a)
    assert f.mul(a, b) == f.mul(b, a)
    assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    assert f.add(a, f.neg(a)) == 0
    if a != 0:
        assert f.mul(a, f.inv(a)) == 1


@st.composite
def small_matrix(draw):
    q = draw(field_q)
    f = make_field(q)
    rows = draw(st.integers(1, 5))
    cols = draw(st.integers(1, 7))
    data = draw(st.lists(
        st.lists(st.integers(0, q - 1), min_size=cols, max_size=cols),
        min_size=rows, max_size=rows))
    return GfMatrix(f, data)


@settings(max_examples=60)
@given(small_matrix())
def test_rank_transpose_invariant(M):
    assert rank(M) == rank(transpose(M))


def reference_rref(q, rows, ncols):
    """RREF and pivot columns of `rows` (lists of element indices) over the
    tables of `irreducible_reference`, which imports nothing from aqmds.
    The RREF of a row space is unique, so any correct elimination agrees."""
    f = irreducible_reference.make_field(q)
    A = [list(row) for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        below = [i for i in range(r, len(A)) if A[i][c]]
        if not below:
            continue
        A[r], A[below[0]] = A[below[0]], A[r]
        scale = f.mul[A[r][c]].index(1)
        A[r] = [f.mul[scale][x] for x in A[r]]
        for i in range(len(A)):
            if i != r and A[i][c]:
                t = f.neg[A[i][c]]
                A[i] = [f.add[x][f.mul[t][y]] for x, y in zip(A[i], A[r])]
        pivots.append(c)
    return A, pivots


@st.composite
def elimination_input(draw):
    """A matrix over GF(q), q <= 16, with 0 to 6 rows and 0 to 8 columns:
    random, all zero, or with one row repeated."""
    q = draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9, 16]))
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 8))
    A = np.array(draw(st.lists(st.integers(0, q - 1), min_size=rows * cols,
                               max_size=rows * cols)), dtype=np.uint8).reshape(rows, cols)
    kind = draw(st.sampled_from(["random", "zero", "repeated"]))
    if kind == "zero":
        A[:] = 0
    elif kind == "repeated" and rows > 1:
        i = draw(st.integers(1, rows - 1))
        A[i] = A[draw(st.integers(0, i - 1))]
    return GfMatrix(make_field(q), A)


@settings(max_examples=200, deadline=None)
@given(elimination_input())
@example(GfMatrix(make_field(16), np.zeros((0, 5), dtype=np.uint8)))
@example(GfMatrix(make_field(7), np.zeros((3, 0), dtype=np.uint8)))
def test_rref_matches_a_reference_elimination(M):
    expected, expected_pivots = reference_rref(M.field.q, M.data.tolist(), M.cols)
    R, pivots = rref(M)
    assert pivots == expected_pivots
    assert R.data.tolist() == expected and R.data.shape == M.data.shape


@settings(max_examples=60)
@given(small_matrix())
def test_dual_involution_and_dimension(M):
    C = LinearCode(M)
    if C.k == 0:
        return
    D = C.dual()
    assert C.k + D.k == C.n
    assert D.dual() == C
    if D.k > 0:
        assert is_subcode(C.dual(), D) and is_subcode(D, C.dual())


@st.composite
def any_code(draw):
    """The code a random matrix generates, or the zero code or the full space
    of the same length."""
    M = draw(small_matrix())
    kind = draw(st.sampled_from(["matrix", "zero", "full"]))
    if kind == "zero":
        return LinearCode(GfMatrix(M.field, np.zeros_like(M.data)))
    if kind == "full":
        return full_space(M.field, M.cols)
    return LinearCode(M)


@settings(max_examples=60)
@given(any_code())
def test_dual_parity_check_is_its_nullspace(C):
    D = C.dual()
    assert D.H == nullspace(D.G)
    assert D.dual() == C


@st.composite
def code_and_position(draw):
    """A code over GF(q), q <= 8, n <= 7, from a random generator of fewer
    than n rows, whose zeroed entries make low ranks and zero columns
    common, and a coordinate."""
    q = draw(st.sampled_from([2, 3, 4, 5, 7, 8]))
    n = draw(st.integers(2, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    A = rng.integers(0, q, size=(draw(st.integers(1, n - 1)), n)).astype(np.uint8)
    A[rng.random(A.shape) < draw(st.sampled_from([0.0, 0.3, 0.6]))] = 0
    return LinearCode(GfMatrix(make_field(q), A)), draw(st.integers(0, n - 1))


@settings(max_examples=150, deadline=None)
@given(code_and_position())
def test_shortening_is_dual_to_puncturing_the_dual(code_and_pos):
    # shortening C at i is the dual of puncturing C-perp at i
    # (MacWilliams-Sloane, Ch. 1 section 9)
    C, i = code_and_pos
    assume(C.k > 0)
    try:
        shortened, expected = C.shorten(i), C.dual().puncture(i).dual()
    except AqmdsError:  # one side has no nonzero word
        assume(False)
    assert shortened == expected


@st.composite
def code_of_any_dimension(draw, proper=False):
    """A code over GF(q), q in {2, 3, 4, 7, 8, 9, 16}, n <= 8 drawn from the
    top down, of a drawn dimension: 0 < k < n if proper, and otherwise three
    times in four where n > 1, else k = 0 or k = n.  It is a GRS code, which
    is MDS, or a random generator whose zeroed entries make non-MDS codes
    common."""
    q = draw(st.sampled_from([2, 3, 4, 7, 8, 9, 16]))
    f = make_field(q)
    n = draw(st.sampled_from(range(8, proper, -1)))
    proper = proper or n > 1 and draw(st.sampled_from([True, True, True, False]))
    k = draw(st.integers(1, n - 1) if proper else st.sampled_from([0, n]))
    if k and n <= q and draw(st.booleans()):
        return grs(f, n, k)
    zero_share = draw(st.sampled_from([0.0, 0.3, 0.6]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    while True:
        A = rng.integers(0, q, size=(k, n)).astype(np.uint8)
        A[rng.random(A.shape) < zero_share] = 0
        C = LinearCode(GfMatrix(f, A))
        if C.k == k:
            return C


@settings(max_examples=150, deadline=None)
@given(code_of_any_dimension(proper=True))
def test_is_mds_agrees_with_the_dual_and_the_oracle_on_H(C):
    # is_mds proves every code on G; a code with 0 < k < n is MDS exactly
    # when its dual is, which the k-subset oracle on H decides on its own
    assert C.is_mds() == C.dual().is_mds() == (first_singular_k_subset(C.H, C.n - C.k) is None)


@settings(max_examples=150, deadline=None)
@given(code_of_any_dimension(), st.booleans())
def test_a_code_and_its_dual_share_one_proof(C, dual_first):
    # dual() is one object per code, linked both ways, and whichever of the
    # two is asked first proves the k-subset test for both
    assert C.dual().dual() is C
    with mock.patch.object(aqmds.code, "first_singular_k_subset",
                           wraps=first_singular_k_subset) as oracle:
        for D in (C.dual(), C) if dual_first else (C, C.dual()):
            D.is_mds()
        mds, dual_mds = C.is_mds(), C.dual().is_mds()
    assert oracle.call_count <= 1
    if 0 < C.k < C.n:
        assert mds == dual_mds == (first_singular_k_subset(C.H, C.n - C.k) is None)
    else:
        assert (mds, dual_mds) == ((True, False) if C.k else (False, True))


@settings(max_examples=100, deadline=None)
@given(code_of_any_dimension())
def test_parity_check_is_the_nullspace_of_G(C):
    # H is read off the canonical G without eliminating it again
    assert C.H == nullspace(C.G)


@st.composite
def two_codes_of_one_length(draw):
    """(D, C, nested): C from code_of_any_dimension, and D over its field
    and length, spanned by random combinations of C's rows and by random
    words with zeroed entries; nested when there are no words."""
    C = draw(code_of_any_dimension())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    inside = draw(st.integers(0, 3)) if C.k else 0
    words = rng.integers(0, C.field.q, size=(draw(st.integers(0 if inside else 1, 2)), C.n))
    words[rng.random(words.shape) < draw(st.sampled_from([0.0, 0.5, 0.8]))] = 0
    combos = mat_mul(GfMatrix(C.field, rng.integers(0, C.field.q, size=(inside, C.k))), C.G)
    return (LinearCode(GfMatrix(C.field, np.vstack([combos.data, words]))), C,
            len(words) == 0)


@settings(max_examples=150, deadline=None)
@given(two_codes_of_one_length())
def test_rows_outside_are_the_rows_with_a_syndrome(codes):
    # the membership test on C's canonical G against the parity check of C
    D, C, nested = codes
    syndromes = mat_mul(D.G, transpose(C.H)).data
    outside = rows_outside(D, C)
    assert outside.tolist() == np.flatnonzero(syndromes.any(axis=1)).tolist()
    assert is_subcode(D, C) == (outside.size == 0)
    if nested:
        assert outside.size == 0


def _naive_mat_mul(A: GfMatrix, B: GfMatrix) -> GfMatrix:
    """A B entry by entry, one field operation at a time."""
    f = A.field
    out = np.zeros((A.rows, B.cols), dtype=np.uint8)
    for i in range(A.rows):
        for j in range(B.cols):
            acc = 0
            for l in range(A.cols):
                acc = f.add(acc, f.mul(int(A.data[i, l]), int(B.data[l, j])))
            out[i, j] = acc
    return GfMatrix(f, out)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([2, 3, 4, 5, 7, 8, 9, 16, 27, 61, 64]), st.integers(0, 4),
       st.sampled_from([0, 1, 2, 5, 8, 66]), st.integers(0, 4), st.booleans(),
       st.integers(0, 2 ** 32 - 1))
@example(q=64, rows=3, inner=66, cols=4, extreme=False, seed=0)
@example(q=64, rows=3, inner=66, cols=4, extreme=True, seed=0)
@example(q=61, rows=2, inner=66, cols=2, extreme=True, seed=0)
@example(q=7, rows=0, inner=3, cols=2, extreme=False, seed=0)
@example(q=7, rows=2, inner=0, cols=2, extreme=False, seed=0)
def test_mat_mul_matches_naive_loop(q, rows, inner, cols, extreme, seed):
    # `extreme` makes every product q-1, whose base-p digits are all p-1, so
    # each digit sum reaches inner * (p-1): 3960 at q = 61, over a byte
    f = make_field(q)
    if extreme:
        A = np.ones((rows, inner), dtype=np.uint8)
        B = np.full((inner, cols), q - 1, dtype=np.uint8)
    else:
        rng = np.random.default_rng(seed)
        A = rng.integers(0, q, size=(rows, inner)).astype(np.uint8)
        B = rng.integers(0, q, size=(inner, cols)).astype(np.uint8)
    A, B = GfMatrix(f, A), GfMatrix(f, B)
    assert mat_mul(A, B) == _naive_mat_mul(A, B)


@st.composite
def monic_poly(draw):
    q = draw(field_q)
    degree = draw(st.integers(1, 6))
    low = draw(st.lists(st.integers(0, q - 1), min_size=degree, max_size=degree))
    return q, tuple(low) + (1,)


@settings(max_examples=200, deadline=None)
@given(monic_poly())
def test_ben_or_matches_trial_division(q_poly):
    q, poly = q_poly
    expected = irreducible_reference.is_irreducible(irreducible_reference.make_field(q), list(poly))
    assert _poly_is_irreducible(make_field(q)._tables, poly) == expected


@settings(max_examples=60)
@given(small_matrix())
def test_singleton_bound(M):
    C = LinearCode(M)
    if C.k == 0:
        return
    assert C.min_distance() <= C.n - C.k + 1


@st.composite
def grs_params(draw):
    q = draw(st.sampled_from([3, 4, 5, 7, 8, 9]))
    n = draw(st.integers(2, q))
    k = draw(st.integers(1, n))
    perm = draw(st.permutations(list(range(q))))
    v = tuple(draw(st.integers(1, q - 1)) for _ in range(n))
    return q, n, k, tuple(perm[:n]), v


@settings(max_examples=40, deadline=None)
@given(grs_params())
def test_grs_always_mds_and_nested(params):
    q, n, k, alpha, v = params
    f = make_field(q)
    C = grs(f, n, k, alpha, v)
    assert C.is_mds()
    if k < n:
        assert is_subcode(C, grs(f, n, k + 1, alpha, v))


@settings(max_examples=30, deadline=None)
@given(grs_params())
def test_full_weight_matches_naive_scan(params):
    q, n, k, alpha, v = params
    if q ** k > 2000:
        return
    C = grs(make_field(q), n, k, alpha, v)
    got = C.full_weight_codeword()
    naive = None
    for t in range(q ** k):
        msg = []
        tt = t
        for _ in range(k):
            msg.append(tt % q)
            tt //= q
        msg.reverse()  # first digit most significant
        word = C.codeword(np.array(msg, dtype=np.uint8))
        if np.count_nonzero(word) == n:
            naive = word
            break
    if naive is None:
        assert got is None
    else:
        assert got is not None and np.array_equal(got, naive)


@st.composite
def full_rank_matrix(draw):
    """A k x n matrix of rank k over GF(q), n <= 10 with n = 10 drawn first,
    and k within one of n/2, which has the most levels of minors, so k = 1
    only for n <= 4 and k = n for n <= 3.  Zeroed entries make singular
    column subsets common, and a last column that is the sum of two others
    makes a subset of three or more singular where few entries are 0.  The
    fields past 16 catch table indices a * q + b that wrap in uint8 once
    q^2 > 256."""
    q = draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 32, 49, 64]))
    f = make_field(q)
    n = draw(st.sampled_from(range(10, 0, -1)))
    k = min(n, max(1, (n + 1) // 2 + draw(st.integers(-1, 1))))
    zero_share = draw(st.sampled_from([0.0, 0.3, 0.6]))
    summed = 3 <= n > k and draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    while True:
        A = rng.integers(0, q, size=(k, n)).astype(np.uint8)
        A[rng.random(A.shape) < zero_share] = 0
        if summed:
            a, b = rng.choice(n - 1, size=2, replace=False)
            A[:, -1] = f.add_table[A[:, a], A[:, b]]
        M = GfMatrix(f, A)
        if rank(M) == k:
            return M


@settings(max_examples=150, deadline=None)
@given(full_rank_matrix(), st.sampled_from([1, 3, 16, 1 << 20]))
def test_first_singular_k_subset_matches_rank_loop(M, chunk_target):
    # with M in RREF [I | A] up to the order of the columns, a singular subset S
    # is a zero minor of A: on the rows whose pivot is outside S, and on the
    # non-pivot columns in S.  The oracle returns the S of the first zero minor
    # by (size, rows, columns), a key that no two subsets share
    k = M.rows
    pivots = rref(M)[1]
    free = [c for c in range(M.cols) if c not in pivots]

    def minor(s):
        T = tuple(free.index(c) for c in s if c in free)
        return len(T), tuple(r for r, p in enumerate(pivots) if p not in s), T
    expected = min((s for s in combinations(range(M.cols), k)
                    if rank(GfMatrix(M.field, M.data[:, s])) < k), key=minor, default=None)
    # small chunk targets compute each level of minors in many chunks of rows
    with mock.patch.object(aqmds.matrix, "_CHUNK_TARGET", chunk_target):
        assert first_singular_k_subset(M, k) == expected


@st.composite
def generator_for_the_cauchy_test(draw, kinds=("grs", "extended", "perturbed", "random")):
    """A k x n generator over GF(q), q <= 64, of a drawn kind: GRS at n
    distinct points with nonzero multipliers; extended GRS, whose point at
    infinity, v e_(k-1), lands in a drawn column; one of those with one entry
    changed; or a random matrix with zeroed entries.  n <= min(10, q + 1) is
    drawn from the top down and 0 < k < n near n/2, as in full_rank_matrix,
    so that most blocks A have two rows and two columns or more."""
    q = draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 32, 49, 64]))
    f = make_field(q)
    kind = draw(st.sampled_from(kinds))
    n = draw(st.sampled_from(range(min(10, q + 1), 1, -1)))
    k = min(n - 1, max(1, n // 2 + draw(st.integers(-1, 1))))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "random":
        G = rng.integers(0, q, size=(k, n)).astype(np.uint8)
        G[rng.random(G.shape) < draw(st.sampled_from([0.0, 0.1, 0.3]))] = 0
        return GfMatrix(f, G)
    extended = n == q + 1 or kind == "extended" or (kind == "perturbed" and draw(st.booleans()))
    points = rng.choice(q, size=n - extended, replace=False)
    G = rng.integers(1, q, size=(1, n)).astype(np.uint8).repeat(k, axis=0)
    for i in range(1, k):  # row i: v_j alpha_j^i
        G[i, :n - extended] = f.mul_table[G[i - 1, :n - extended], points]
    if extended:
        G[:k - 1, -1] = 0
        G = G[:, rng.permutation(n)]
    if kind == "perturbed":
        i, j = rng.integers(k), rng.integers(n)
        G[i, j] = f.add_table[G[i, j], rng.integers(1, q)]
    return GfMatrix(f, G)


def _non_pivot_block(M: GfMatrix) -> np.ndarray:
    R, pivots = rref(M)
    return R.data[:, [c for c in range(M.cols) if c not in pivots]]


@settings(max_examples=300, deadline=None)
@given(generator_for_the_cauchy_test())
def test_cauchy_yes_means_no_zero_minor(M):
    # the Cauchy test only ever says yes, so a yes must survive every minor
    assume(rank(M) == M.rows)
    A = _non_pivot_block(M)
    if aqmds.matrix._cauchy(M.field, A):
        assert all(minors.all() for minors, _, _ in aqmds.matrix._minors(M.field, A))


@settings(max_examples=150, deadline=None)
@given(generator_for_the_cauchy_test(kinds=("grs", "extended")))
def test_cauchy_decides_every_grs_generator(M):
    assert aqmds.matrix._cauchy(M.field, _non_pivot_block(M))


def _random_full_rank(rng, f, k, n) -> np.ndarray:
    while True:
        A = rng.integers(0, f.q, size=(k, n)).astype(np.uint8)
        if rank(GfMatrix(f, A)) == k:
            return A


@st.composite
def small_code(draw):
    """A code C over GF(q), q <= 5, k <= 4."""
    q = draw(st.sampled_from([2, 3, 4, 5]))
    f = make_field(q)
    n = draw(st.integers(1, 7))
    k = draw(st.integers(1, min(4, n)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return from_generator(GfMatrix(f, _random_full_rank(rng, f, k, n)))


@settings(max_examples=80, deadline=None)
@given(small_code(), st.sampled_from([1, 3, 16, 1 << 20]))
def test_scan_matches_naive_enumeration(C, chunk_target):
    dist, _ = _naive_scan(C, [])
    # small chunk targets split the scan into many chunks with nonzero offsets
    with mock.patch.object(aqmds.code, "_CHUNK_TARGET", chunk_target):
        got_dist = _enumerate_scan(C.field, C.G.data)
    assert got_dist.tolist() == dist
    assert C.min_distance() == next(w for w in range(1, C.n + 1) if dist[w])


def _naive_scan(C, checks):
    """(dist, dist_outside) of C, the latter over the words of C failing some
    row of `checks`, from every word of C formed by field arithmetic."""
    f, n = C.field, C.n
    add, mul = f.add_table, f.mul_table
    messages = np.array(list(product(range(f.q), repeat=C.k)), dtype=np.uint8)
    words = np.zeros((len(messages), n), dtype=np.uint8)
    for m, row in zip(messages.T, C.G.data):
        words = add[words, mul[m[:, None], row[None, :]]]
    outside = np.zeros(len(words), dtype=bool)
    for h in checks:
        syndrome = np.zeros(len(words), dtype=np.uint8)
        for column, b in zip(words.T, h):
            syndrome = add[syndrome, mul[column, int(b)]]
        outside |= syndrome != 0
    wts = np.count_nonzero(words, axis=1)
    return (np.bincount(wts, minlength=n + 1).tolist(),
            np.bincount(wts[outside], minlength=n + 1).tolist())


@st.composite
def high_rate_code(draw):
    """A code over GF(q), q in {7, 8, 9, 16}, n <= 10 and 2k > n, so that its
    weights are counted through its dual; k = n and n - k = 1 are in range.
    q^k <= 2^20 keeps the direct count small."""
    q = draw(st.sampled_from([7, 8, 9, 16]))
    f = make_field(q)
    k = draw(st.integers(1, max(j for j in range(1, 11) if q ** j <= 1 << 20)))
    n = k + draw(st.integers(0, min(10 - k, k - 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return from_generator(GfMatrix(f, _random_full_rank(rng, f, k, n)))


@settings(max_examples=60, deadline=None)
@given(high_rate_code())
def test_dual_count_matches_the_direct_count(C):
    # the reference counts C itself: q-1 words per class, plus the zero word
    f, n = C.field, C.n
    direct = np.zeros(n + 1, dtype=np.int64)
    for wts in aqmds.code._iter_weight_blocks(f, C.G.data):
        direct += np.bincount(wts, minlength=n + 1)
    direct *= f.q - 1
    direct[0] += 1
    assert aqmds.code._distributions(C)[0].tolist() == direct.tolist()


@st.composite
def code_maybe_zero_column(draw):
    """A code over GF(q), q <= 7, k <= 4; with a drawn flag, one generator
    column is zeroed, so that the code has no full-weight word."""
    f = make_field(draw(st.sampled_from([2, 3, 4, 5, 7])))
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, min(4, n)))
    A = _random_full_rank(np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))), f, k, n).copy()
    if draw(st.booleans()):
        A[:, draw(st.integers(0, n - 1))] = 0
    assume(A.any())
    return from_generator(GfMatrix(f, A))


@settings(max_examples=120, deadline=None)
@given(code_maybe_zero_column(), st.sampled_from([1, 3, 16, 1 << 20]),
       st.sampled_from([1, 2, 3, 10 ** 7]))
def test_full_weight_search_matches_naive_list(C, chunk_target, cap):
    q, n = C.field.q, C.n
    # a full-weight word has every message digit nonzero (G is in RREF)
    messages = list(product(range(1, q), repeat=C.k))  # message order
    words = {m: C.codeword(np.array(m, dtype=np.uint8)) for m in messages}
    full = [m for m in messages if np.count_nonzero(words[m]) == n]
    candidates = [m for m in messages if m[0] == 1]
    with mock.patch.object(aqmds.code, "_CHUNK_TARGET", chunk_target), \
            mock.patch.dict(os.environ, {"AQMDS_MAX_ENUM": str(cap)}):
        if full and candidates.index(full[0]) < cap:
            assert np.array_equal(C.full_weight_codeword(), words[full[0]])
        elif not full and len(candidates) <= cap:
            assert C.full_weight_codeword() is None
        else:
            with pytest.raises(CapExceeded):
                C.full_weight_codeword()


@st.composite
def nested_pair(draw):
    """A nested pair over GF(q), q <= 5, n <= 7: a random C2 and C1 the dual
    of a random subcode D of C2, so k = dim C2 - dim D, 0 when D = C2.
    D is never the whole space, which would make C1 the zero code."""
    f = make_field(draw(st.sampled_from([2, 3, 4, 5])))
    n = draw(st.integers(1, 7))
    k2 = draw(st.integers(1, n))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    C2 = from_generator(GfMatrix(f, _random_full_rank(rng, f, k2, n)))
    r = draw(st.integers(0, min(k2, n - 1)))
    if r == 0:
        return make_pair(full_space(f, n), C2)
    D = from_generator(mat_mul(GfMatrix(f, _random_full_rank(rng, f, r, k2)), C2.G))
    return make_pair(D.dual(), C2)


@settings(max_examples=80, deadline=None)
@given(nested_pair(), st.sampled_from([1, 3, 16, 1 << 20]), st.sampled_from(["", "10"]))
def test_pair_sides_match_naive_enumeration(pair, chunk_target, cap):
    # each side against the words of its code orthogonal to the other code,
    # every word formed; a side is capped where q^k of its code passes the cap
    with mock.patch.object(aqmds.code, "_CHUNK_TARGET", chunk_target), \
            mock.patch.dict(os.environ, {"AQMDS_MAX_ENUM": cap}):
        sides = pair_sides(pair)
    for side, code, other in zip(sides, (pair.c2, pair.c1), (pair.c1, pair.c2)):
        dist, dist_out = _naive_scan(code, other.G.data)
        expected = (_lowest_weight(np.array(dist_out)), _lowest_weight(np.array(dist)))
        if cap and code.field.q ** code.k > int(cap):
            if pair.quantum_k == 0 and code.is_mds():
                assert side == (None, code.n - code.k + 1) == expected
            else:
                assert isinstance(side, CapExceeded)
        else:
            assert side == expected


@settings(max_examples=80, deadline=None)
@given(nested_pair(), st.sampled_from(["", "10"]))
def test_css_construct_agrees_with_full_oracle(pair, cap):
    # both read pair_sides: the constructed parameters pass every distance
    # oracle, and css_construct is capped exactly where an oracle skips
    n = pair.c1.n
    with mock.patch.dict(os.environ, {"AQMDS_MAX_ENUM": cap}):
        try:
            params = css_construct(pair)
        except CapExceeded:
            params = None
        claimed = params or AqcParams(q=pair.c1.field.q, n=n, k=pair.quantum_k, dz=n, dx=n,
                                      pure=True, aqmds=True)
        _, log = run_oracles(claimed, pair, "full_oracle")
    skipped = [e for e in log if e.endswith(":skipped(cap)")]
    assert (params is None) == bool(skipped)
    if params is not None:
        assert [e for e in log if "distance" in e and not e.endswith(":pass")] == []
        assert any(e.startswith("distances_exact") for e in log)
        if params.k:
            assert f"purity:{'pass' if params.pure else 'FAIL'}" in log
