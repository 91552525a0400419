"""Dense linear algebra over GF(q).

Matrices store element indices in a numpy uint8 array.  One Gaussian
elimination, `rref`, does every row reduction but the k-subset oracle's:
`rank`, `nullspace` and the code layer read what they need off its RREF
and pivots.  The matrices there are small, so it eliminates on Python row
lists over the field's nested-list tables.  A kernel is read off a
matrix already in RREF by `_kernel`, which `nullspace` and `LinearCode.H`
share, so a code's canonical generator is never eliminated a second time.
`mat_mul` forms every entry product in one table gather and sums them
digit-wise mod p.  The k-subset MDS oracle `first_singular_k_subset` faces
up to C(n, k) square submatrices instead, so it eliminates a chunk of them
at once, in lockstep, with table lookups over the whole stack; it checks
the rank only when the first subset is singular.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import chain, combinations, islice
from typing import Iterator, List, Optional, Tuple

import numpy as np

from .errors import AqmdsError
from .gf import FiniteField

# elements per numpy chunk, for the k-subset oracle here and the codeword scan
_CHUNK_TARGET = 1 << 20


class GfMatrix:
    """Immutable dense matrix over a FiniteField; entries are element indices."""

    def __init__(self, field: FiniteField, entries):
        data = np.asarray(entries, dtype=np.uint8)
        if data.ndim != 2:
            raise AqmdsError(f"expected 2-d entries, got shape {data.shape}")
        if data.size and int(data.max()) >= field.q:
            raise AqmdsError(f"entry {int(data.max())} out of range for {field}")
        self.field = field
        self.data = data
        self.data.setflags(write=False)

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @classmethod
    def zeros(cls, field: FiniteField, rows: int, cols: int) -> "GfMatrix":
        return cls(field, np.zeros((rows, cols), dtype=np.uint8))

    @classmethod
    def identity(cls, field: FiniteField, n: int) -> "GfMatrix":
        return cls(field, np.eye(n, dtype=np.uint8))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GfMatrix)
            and other.field is self.field
            and other.data.shape == self.data.shape
            and other.data.tobytes() == self.data.tobytes()
        )

    def __hash__(self):
        return hash((id(self.field), self.data.tobytes(), self.data.shape))

    def __repr__(self):
        return f"GfMatrix({self.field}, {self.data.tolist()})"


def transpose(M: GfMatrix) -> GfMatrix:
    return GfMatrix(M.field, M.data.T)


def mat_mul(A: GfMatrix, B: GfMatrix) -> GfMatrix:
    """Matrix product over GF(q).

    Every product A[i, l] * B[l, j] comes from one gather of the mul table.
    Addition acts digit-wise mod p, so the sum over l adds the products'
    base-p digits, at most cols * (p-1) a digit, and reduces them once.
    """
    if A.field is not B.field:
        raise AqmdsError("matrices over different fields")
    if A.cols != B.rows:
        raise AqmdsError(f"inner dimensions {A.cols} != {B.rows}")
    f = A.field
    digits = f.digits[f.mul_table[A.data[:, :, None], B.data[None]]]  # (rows, inner, cols, m)
    sums = digits.sum(axis=1, dtype=np.min_scalar_type(A.cols * (f.p - 1))) % f.p
    return GfMatrix(f, (sums @ f.place).astype(np.uint8))


def rref(M: GfMatrix) -> Tuple[GfMatrix, List[int]]:
    """Reduced row echelon form and pivot columns.

    The pivot of each column is the first nonzero entry at or below the
    current row, scanning columns left to right, and every other row is
    cleared in the pivot column.  The rows are Python lists over
    `field._tables`, so a row operation is one comprehension, not a numpy
    gather; at the sizes here that is faster.
    """
    add, mul, neg, inv = M.field._tables
    rows = M.data.tolist()
    pivots: List[int] = []
    for c in range(M.cols):
        r = len(pivots)
        if r == len(rows):
            break
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        times = mul[inv[rows[r][c]]]
        top = rows[r] = [times[b] for b in rows[r]]
        for i, row in enumerate(rows):
            if row[c] and i != r:
                times = mul[neg[row[c]]]
                rows[i] = [add[a][times[b]] for a, b in zip(row, top)]
        pivots.append(c)
    return GfMatrix(M.field, np.array(rows, dtype=np.uint8).reshape(M.data.shape)), pivots


def rank(M: GfMatrix) -> int:
    return len(rref(M)[1])


def nullspace(M: GfMatrix) -> GfMatrix:
    """Basis (as rows, in RREF) of the right kernel {x : M x^T = 0}."""
    R, pivots = rref(M)
    return _kernel(M.field, R.data, pivots)


def _kernel(field: FiniteField, R: np.ndarray, pivots) -> GfMatrix:
    """Basis (as rows, in RREF) of the right kernel of R, a matrix in RREF
    whose row i has its leading 1 in column pivots[i], and whose rows past
    len(pivots) are zero."""
    ncols = R.shape[1]
    free = np.ones(ncols, dtype=bool)
    free[pivots] = False
    free = np.flatnonzero(free)
    basis = np.zeros((len(free), ncols), dtype=np.uint8)
    basis[np.arange(len(free)), free] = 1
    # basis row b, with x = 1 at free column fc, solves row i of R by
    # x[pivots[i]] = -R[i, fc]
    basis[:, pivots] = field.neg_table[R[:len(pivots), free]].T
    # normalize to RREF so the output is canonical
    out, _ = rref(GfMatrix(field, basis))
    return out


def first_singular_k_subset(M: GfMatrix, k: int) -> Optional[Tuple[int, ...]]:
    """Lexicographically first singular k-column subset of M, or None.

    None means every k x k column-submatrix is nonsingular: the standard
    MDS characterization of a rank-k generator matrix.  The C(cols, k)
    subsets are taken in lexicographic order, in chunks of about
    `_CHUNK_TARGET` matrix entries, and each chunk's submatrices are
    eliminated in lockstep.  M must have k independent rows.  Every
    k-subset of a matrix of lower rank is singular, the first, columns
    0..k-1, included, so the rank is computed only when that one is.
    """
    short = f"matrix must have k={k} independent rows"
    if M.rows != k or M.cols < k:  # fewer than k columns: rank below k
        raise AqmdsError(short)
    if k == 0:
        return None  # the empty subset: a 0 x 0 matrix is nonsingular
    f = M.field
    q = f.q
    # entry a * q + b of a flat table is a + b, resp. a * b; it fits uint16
    add, mul = f.add_table.ravel(), f.mul_table.ravel()
    size = max(1, _CHUNK_TARGET // (k * k))
    for subsets in _subset_chunks(M.cols, k, size):
        # a matrix and its transpose are singular together, so row r of A[b]
        # is column subsets[b, r] of M
        A = M.data.T[subsets].astype(np.uint16)
        singular = np.zeros(len(A), dtype=bool)
        batch = np.arange(len(A))
        for c in range(k - 1):
            # the pivot row is the first with a nonzero entry in column c; row c
            # takes its place among the rows left to eliminate.  A pivot entry 0
            # marks A[b] singular, and its factors below are 0 (inv_table[0] is 0).
            p = (A[:, c:, c] != 0).argmax(axis=1) + c
            pivot = A[batch, p, c:]
            A[batch, p, c:] = A[:, c, c:]
            singular |= pivot[:, 0] == 0
            # q * (-A[b, r, c] / pivot[b, 0]) for the rows r below c
            factor = mul.take(f.neg_table[A[:, c + 1:, c]].astype(np.uint16) * q
                              + f.inv_table[pivot[:, :1]]).astype(np.uint16) * q
            A[:, c + 1:, c + 1:] = add.take(
                A[:, c + 1:, c + 1:] * q + mul.take(factor[:, :, None] + pivot[:, None, 1:]))
        singular |= A[:, k - 1, k - 1] == 0
        hits = np.flatnonzero(singular)
        if hits.size:
            first = tuple(int(col) for col in subsets[hits[0]])
            if first == tuple(range(k)) and rank(M) < k:
                raise AqmdsError(short)
            return first
    return None


def _subset_chunks(n: int, k: int, size: int) -> Iterator[np.ndarray]:
    """The k-subsets of range(n) in lexicographic order, `size` subsets a
    chunk, as read-only (<= size, k) index arrays, from one walk.

    The first chunk is cached: it holds every subset of most matrices.
    """
    chunk = _first_chunk(n, k, size)
    yield chunk
    if len(chunk) == size:
        rest = islice(combinations(range(n), k), size, None)
        while len(chunk := _index_array(islice(rest, size), n, k)):
            yield chunk


@lru_cache(maxsize=128)
def _first_chunk(n: int, k: int, size: int) -> np.ndarray:
    return _index_array(islice(combinations(range(n), k), size), n, k)


def _index_array(subsets, n: int, k: int) -> np.ndarray:
    """The subsets as a read-only (-1, k) array of the smallest dtype that
    holds n: one byte while n <= 256."""
    chunk = np.fromiter(chain.from_iterable(subsets), dtype=np.min_scalar_type(n)).reshape(-1, k)
    chunk.setflags(write=False)
    return chunk
