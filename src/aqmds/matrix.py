"""Dense linear algebra over GF(q).

Matrices store element indices in a numpy uint8 array.  One Gaussian
elimination, `rref`, does every row reduction: `rank`, `nullspace`, the
code layer and the k-subset oracle read what they need off its RREF and
pivots.  The matrices there are small, so it eliminates on Python row
lists over the field's nested-list tables.  A kernel is read off a
matrix already in RREF by `_kernel`, which `nullspace` and `LinearCode.H`
share, so a code's canonical generator is never eliminated a second time.
`mat_mul` forms every entry product in one table gather and sums them
digit-wise mod p.  The k-subset MDS oracle `first_singular_k_subset` stops
at the first zero among the square minors of A in the RREF [I | A], level
by level, and raises CapExceeded where a level passes `_MINOR_CAP`.
"""
from __future__ import annotations

from itertools import chain, combinations
from math import comb
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from .errors import AqmdsError, CapExceeded
from .gf import FiniteField

# elements per numpy chunk, for the k-subset oracle here and the codeword scan
_CHUNK_TARGET = 1 << 20
_MINOR_CAP = 1 << 29  # bytes at one level of the k-subset oracle; every length <= 32 passes
_TABLE_CAP = 1 << 24  # entries of the subset tables kept in _TABLES, at most 100 MB
_TABLES: Dict[Tuple[int, int], Tuple[np.ndarray, np.ndarray]] = {}


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
    """The singular k-column subset of M's first zero minor, or None.

    None means every k x k column-submatrix is nonsingular: the standard
    MDS characterization of a rank-k generator matrix.  M must have k
    independent rows.  With M in RREF, [I | A] up to the order of the
    columns, the pivot columns of the rows outside R and the non-pivot
    columns T are singular exactly when the minor of A on R and T is 0
    (MacWilliams-Sloane, Ch. 11, Thm 8).  The minors go by |T| = 1, 2, ...,
    then by R and T in `combinations` order: k * C(n-1, k) products at most.
    """
    R, pivots = rref(M)
    if M.rows != k or len(pivots) < k:
        raise AqmdsError(f"matrix must have k={k} independent rows")
    m = len(free := sorted(set(range(M.cols)) - set(pivots)))
    # bytes at level i: the minors of levels i-1 and i, and 17 a subset-table entry
    # (5 kept, 12 in temporaries); chunks of about _CHUNK_TARGET entries come on top
    need = max((comb(k, i - 1) * comb(m, i - 1) + comb(k, i) * comb(m, i)
                + 17 * i * (comb(k, i) + comb(m, i)) for i in range(1, min(k, m) + 1)), default=0)
    if need > _MINOR_CAP:
        raise CapExceeded(f"the k-subset test of a {k}x{M.cols} matrix over {M.field} needs {need} "
                          f"bytes at one level of minors, more than the cap {_MINOR_CAP}")
    for minors, rows, cols in _minors(M.field, R.data[:, free]):
        if not minors.all():  # the first 0 at [a, b]: pivots of the rows outside rows[a], free[cols[b]]
            a, b = divmod(int(minors.argmin()), len(cols))
            held = [p for r, p in enumerate(pivots) if r not in rows[a]]
            return tuple(sorted(held + [free[c] for c in cols[b]]))
    return None


def _minors(f: FiniteField, A: np.ndarray) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The i x i minors of A for i = 1, 2, ..., a level at a time beside the
    row and column i-subsets that index them, in `combinations` order.  Term j
    of the minor on rows R and columns T, expanded along its first row a chunk
    of rows at a time, is (-1)^j A[R[0], T[j]] times a minor of the level before."""
    k, m = A.shape
    mul, add = f.mul_table.ravel(), f.add_table.ravel()
    yield (minors := A), _subsets(k, 1)[0], _subsets(m, 1)[0]
    # [r, t, j % 2]: q (-1)^j A[r, t], in uint16 so that no index a * q + b wraps on any numpy
    signed = np.array([A, f.neg_table[A]], dtype=np.uint16).transpose(1, 2, 0) * f.q
    for i in range(2, min(k, m) + 1):
        (rows, row_drops), (cols, col_drops) = _subsets(k, i), _subsets(m, i)
        prev, minors = minors, np.empty((len(rows), len(cols)), dtype=np.uint8)
        step = max(1, _CHUNK_TARGET // (len(cols) * i))  # rows a chunk
        for a in range(0, len(rows), step):
            chunk = slice(a, a + step)
            first = rows[chunk, 0]  # ascending: rows are in combinations order
            by_row = signed[first[0]:first[-1] + 1, cols, np.arange(i) % 2]  # the first factors
            terms = mul.take(by_row.take(first - first[0], axis=0)
                             + prev.take(row_drops[chunk, 0], axis=0).take(col_drops, axis=1))
            minor = terms[..., 0]
            for j in range(1, i):
                minor = add.take(minor.astype(np.uint16) * f.q + terms[..., j])
            minors[chunk] = minor
        yield minors, rows, cols


def _subsets(u: int, i: int) -> Tuple[np.ndarray, np.ndarray]:
    """The i-subsets of range(u) in `combinations` order, a read-only (C(u, i), i)
    array, and beside it the index of each without its j-th element, in column j.
    Kept in `_TABLES`, which is emptied before it would pass `_TABLE_CAP` entries."""
    if (u, i) in _TABLES:
        return _TABLES[u, i]
    size = comb(u, i)
    subsets = np.fromiter(chain.from_iterable(combinations(range(u), i)), np.min_scalar_type(u - 1),
                          count=size * i).reshape(size, i)
    # an (i-1)-subset t is number C(u, i-1) - 1 - sum_l C(u-1-t[l], i-1-l) in that order
    binom = np.array([[comb(x, t) for t in range(i)] for x in range(u)], dtype=np.int64)
    drops = np.empty((size, i), dtype=np.min_scalar_type(comb(u, i - 1)))
    for j in range(i):
        drops[:, j] = comb(u, i - 1) - 1 - sum(binom[u - 1 - subsets[:, l], i - 1 - t] for t, l in
                                               enumerate(l for l in range(i) if l != j))
    subsets.flags.writeable = drops.flags.writeable = False
    if sum(table.size for table, _ in _TABLES.values()) + subsets.size > _TABLE_CAP:
        _TABLES.clear()
    if subsets.size <= _TABLE_CAP:
        _TABLES[u, i] = subsets, drops
    return subsets, drops
