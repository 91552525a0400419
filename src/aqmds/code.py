"""Linear codes over GF(q): duals, weight distributions and distances,
shortening/puncturing/extension, full-weight codeword search.

All exact weight computations enumerate codewords, in a fixed "message
order": messages are coefficient vectors (m_0, ..., m_{k-1}) against the
canonical generator rows, ordered lexicographically with m_0 most
significant.  Every "first found" witness refers to this order, so results
are reproducible.

The weight scans visit one word per scalar class {lambda*u}: the messages
whose first nonzero digit is 1, since weight is a class invariant.  They
never form a word.  A canonical word's pivot coordinates are its message
digits, so its weight is the message weight plus its nonzero count on the
other columns, found by comparing a precomputed block of partial sums
against each prefix's offset.  One function, _distributions, holds the
counting rule: A(C) and A(C-perp) come together, from one scan of the one
of smaller dimension, (q^min(k, n-k)-1)/(q-1) words, and one MacWilliams
transform (MacWilliams-Sloane, Ch. 5), each under its own cap.  The
full-weight search forms its candidate words in chunks over lookup tables
and stops at the first hit.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import comb
from typing import Optional, Tuple, Union

import numpy as np

from .errors import AqmdsError, CapExceeded
from .gf import FiniteField
from .matrix import (_CHUNK_TARGET, GfMatrix, _kernel, first_singular_k_subset, mat_mul, rref,
                     transpose)

DEFAULT_ENUM_CAP = 10 ** 7


def enum_cap() -> int:
    """The enumeration cap, AQMDS_MAX_ENUM or else the default, read where
    codewords are enumerated; a malformed value raises AqmdsError."""
    env = os.environ.get("AQMDS_MAX_ENUM")
    if not env:
        return DEFAULT_ENUM_CAP
    try:
        cap = int(env)
    except ValueError:
        cap = 0
    if cap < 1:
        raise AqmdsError(f"AQMDS_MAX_ENUM must be a positive integer, got {env!r}")
    return cap


@dataclass
class WeightReport:
    """Exact weight data for a code: minimum weight and A_0..A_n."""

    min_weight: int
    distribution: np.ndarray


class LinearCode:
    """An [n, k]_q code held as a canonical (RREF) generator matrix.

    Two codes are equal iff their canonical generator matrices coincide.
    Use :func:`from_generator` to build one from an arbitrary matrix.
    """

    def __init__(self, G: GfMatrix, _canonical: bool = False):
        if not _canonical:
            R, pivots = rref(G)
            G = GfMatrix(G.field, R.data[:len(pivots)])
        self.field = G.field
        self.G = G
        self.n = G.cols
        self.k = G.rows
        self._H: Optional[GfMatrix] = None

    @property
    def H(self) -> GfMatrix:
        """Cached parity-check matrix: the kernel of G in RREF, which is the
        canonical generator of the dual.  G is canonical, so it is its own
        RREF, with each row's pivot at its first nonzero entry, and the
        kernel is read off it without another elimination."""
        if self._H is None:
            pivots = np.argmax(self.G.data != 0, axis=1) if self.k else []
            self._H = _kernel(self.field, self.G.data, pivots)
        return self._H

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LinearCode)
            and other.field is self.field
            and other.G == self.G
        )

    def __hash__(self):
        return hash(self.G)

    def __repr__(self):
        return f"LinearCode([{self.n},{self.k}]_{self.field.q})"

    # -- basic operations -----------------------------------------------------

    def dual(self) -> "LinearCode":
        dual = LinearCode(self.H, _canonical=True)
        dual._H = self.G  # the dual's parity check is this code's canonical generator
        return dual

    def codeword(self, message: np.ndarray) -> np.ndarray:
        """Encode one message vector (length k) against the canonical G."""
        return mat_mul(GfMatrix(self.field, [message]), self.G).data[0]

    def min_distance(self) -> int:
        """Exact minimum weight from the weight distribution."""
        return self.weight_distribution().min_weight

    def is_mds(self) -> bool:
        """Every k columns of G independent; equivalent to d = n-k+1.

        A code with 0 < k < n is MDS exactly when its dual is
        (MacWilliams-Sloane, Ch. 11), so when n-k < k the k-subset proof
        runs on H, the dual's generator, which has fewer rows.  The zero
        code is not MDS, and the full space is, by its identity G.
        """
        if self.k == 0:
            return False
        if self.n - self.k < self.k < self.n:
            return first_singular_k_subset(self.H, self.n - self.k) is None
        return first_singular_k_subset(self.G, self.k) is None

    def weight_distribution(self) -> WeightReport:
        if self.k == 0:
            raise AqmdsError("the zero code has no weight distribution")
        dist = _distributions(self)[0]
        if isinstance(dist, CapExceeded):
            raise dist
        return WeightReport(min_weight=_lowest_weight(dist), distribution=dist)

    def full_weight_codeword(self) -> Optional[np.ndarray]:
        """First codeword of Hamming weight n in message order, if any."""
        if self.k == 0:
            return None
        return _find_full_weight(self.field, self.G.data)

    # -- coordinate surgery ---------------------------------------------------

    def shorten(self, pos: int) -> "LinearCode":
        """Restrict to codewords vanishing at pos, then delete the coordinate."""
        if not 0 <= pos < self.n:
            raise AqmdsError(f"position {pos} not in [0, {self.n})")
        # with column pos first, the RREF rows other than its pivot row span
        # exactly the codewords that vanish at pos, and stay in RREF without it
        R, pivots = rref(GfMatrix(self.field, np.hstack(
            [self.G.data[:, [pos]], np.delete(self.G.data, pos, axis=1)])))
        rows = R.data[1:, 1:] if pivots[:1] == [0] else R.data[:, 1:]
        if rows.shape[0] == 0:
            raise AqmdsError("shortening leaves only the zero codeword")
        return LinearCode(GfMatrix(self.field, rows), _canonical=True)

    def puncture(self, pos: int) -> "LinearCode":
        """Delete coordinate pos from all codewords."""
        if not 0 <= pos < self.n:
            raise AqmdsError(f"position {pos} not in [0, {self.n})")
        rows = np.delete(self.G.data, pos, axis=1)
        return from_generator(GfMatrix(self.field, rows))


def from_generator(M: GfMatrix) -> LinearCode:
    """Canonicalize a generator matrix into a LinearCode; rank must be > 0."""
    C = LinearCode(M)
    if C.k == 0:
        raise AqmdsError("generator matrix has rank 0")
    return C


def full_space(field: FiniteField, n: int) -> LinearCode:
    return LinearCode(GfMatrix.identity(field, n), _canonical=True)


def is_subcode(D: LinearCode, C: LinearCode) -> bool:
    """True iff D is a subcode of C (every row of D.G passes C's parity check)."""
    return first_row_outside(D, C) is None


def first_row_outside(D: LinearCode, C: LinearCode) -> Optional[np.ndarray]:
    """First row of D.G failing C's parity check, or None when D is a subcode of C.

    One product D.G C.H^T gives every row's syndrome at once.
    """
    if D.field is not C.field:
        raise AqmdsError("codes over different fields")
    if D.n != C.n:
        raise AqmdsError(f"lengths differ: {D.n} != {C.n}")
    outside = np.flatnonzero(mat_mul(D.G, transpose(C.H)).data.any(axis=1))
    return D.G.data[outside[0]] if outside.size else None


def complement_rows(field: FiniteField, base: np.ndarray, full: np.ndarray) -> np.ndarray:
    """Rows of `full` extending rowspace(base), greedily in row order.

    These are the pivots past `base` among the columns of [base; full]^T:
    a column is a pivot iff it is independent of the columns before it.
    """
    _, pivots = rref(GfMatrix(field, np.vstack([base, full]).T))
    return full[[p - len(base) for p in pivots if p >= len(base)]]


def _lowest_weight(dist: np.ndarray) -> Optional[int]:
    """Smallest positive weight counted in a weight distribution, or None."""
    nonzero = np.flatnonzero(dist[1:])
    return int(nonzero[0]) + 1 if nonzero.size else None


def extend_by_codeword(C: LinearCode, Cprime: LinearCode) -> LinearCode:
    """Length-(n+1) MDS extension of a nested MDS pair C strictly inside C'.

    Picks the first w in C' \\ C (message order) and returns the code with
    generator [[0 | G], [1 | w]]; the result is verified MDS.
    """
    if C.field is not Cprime.field or C.n != Cprime.n:
        raise AqmdsError("codes must share field and length")
    if not is_subcode(C, Cprime):
        raise AqmdsError("C is not a subcode of C'")
    if Cprime.k != C.k + 1:
        raise AqmdsError(f"dim C' = {Cprime.k} != dim C + 1 = {C.k + 1}")
    if not C.is_mds():
        raise AqmdsError(f"C is not MDS [{C.n},{C.k},{C.n - C.k + 1}]")
    if not Cprime.is_mds():
        raise AqmdsError(f"C' is not MDS [{Cprime.n},{Cprime.k},{Cprime.n - Cprime.k + 1}]")
    # if row i is the last row of C'.G outside C, the messages before the
    # unit message e_i combine later rows only and lie in C, so row i is the
    # first word of C' \ C in message order
    outside = np.flatnonzero(mat_mul(Cprime.G, transpose(C.H)).data.any(axis=1))
    w = Cprime.G.data[outside[-1]]
    f = C.field
    top = np.hstack([np.zeros((C.k, 1), dtype=np.uint8), C.G.data])
    bottom = np.hstack([np.array([[1]], dtype=np.uint8), w[None, :]])
    ext = from_generator(GfMatrix(f, np.vstack([top, bottom])))
    if ext.k != C.k + 1 or not ext.is_mds():
        raise AqmdsError("extension did not produce an MDS code")
    return ext


# -- enumeration engine -------------------------------------------------------


def _iter_word_chunks(field: FiniteField, base: np.ndarray, rows: np.ndarray, digits: np.ndarray):
    """Yield, in chunks and in message order, the words base + sum_i m_i rows[i]
    for every message m with all digits m_i drawn from `digits`.

    These are F + sum_i d(m_i) rows[i], with F the first word and
    d = digits - digits[0], so d starts at 0.  The last t rows span a block
    E of b^t <= _CHUNK_TARGET words, grown from [F] one row at a time; the
    words each row adds (1, b-1, b^2-b, ...) are yielded at once, so a caller
    that stops early never waits for a full chunk.  Each later prefix of the
    first k-t digits shifts E.
    """
    add, mul = field.add_table, field.mul_table
    b = len(digits)
    k, w = rows.shape
    t = 0
    while t < k and b ** (t + 1) <= _CHUNK_TARGET:
        t += 1
    deltas = add[digits, field.neg_table[digits[0]]]
    E = base[None, :]
    for row in rows:
        E = add[E, mul[digits[0], row]]
    yield E
    for row in rows[k - t:][::-1]:
        grown = add[mul[deltas[:, None], row[None, :]][:, None, :], E[None, :, :]].reshape(-1, w)
        yield grown[len(E):]
        E = grown
    for pi in range(1, b ** (k - t)):
        offset = np.zeros(w, dtype=np.uint8)
        for i in range(k - t - 1, -1, -1):
            pi, d = divmod(pi, b)
            offset = add[offset, mul[deltas[d], rows[i]]]
        yield add[offset[None, :], E]


def _non_pivot_columns(gen: np.ndarray) -> np.ndarray:
    """The k x (n-k) columns of `gen` off its pivots, once the pivot columns
    (each row's first nonzero) are checked to be the identity."""
    k, n = gen.shape
    pivots = np.argmax(gen != 0, axis=1)
    if (gen[:, pivots] != np.eye(k, dtype=np.uint8)).any():
        raise AqmdsError("the pivot columns of the generator are not the identity")
    others = np.ones(n, dtype=bool)
    others[pivots] = False
    return gen[:, others]


def _iter_weight_blocks(field: FiniteField, gen: np.ndarray):
    """Yield, block by block and in message order, the weights of one word
    per scalar class of rowspace(gen): the (q^k-1)/(q-1) messages whose
    first nonzero digit is 1.

    The pivot columns of `gen` must be the identity, so a word's pivot
    coordinates are its message digits and its weight is the message weight
    plus its nonzero count on the r = n-k other columns, whose rows form A.
    The words led by row l are A[l] plus the span of the rows after it.  A
    coordinate-major block E (r x q^t, suffixes in message order) holds the
    span of the last t < k rows, with message weights wE, and q^t r is at
    most _CHUNK_TARGET.  It is grown from the zero word one row at a time,
    and each row l >= k-t shifts the block as it stands before l joins it.
    Each row l < k-t, plus every combination of the rows between l and the
    block, shifts the whole block.  A word E[:, s] + o is nonzero at j iff
    E[j, s] != -o_j, so no word is ever formed.
    """
    add, mul, neg = field.add_table, field.mul_table, field.neg_table
    q = field.q
    k, n = gen.shape
    A = _non_pivot_columns(gen)
    r = n - k
    t = 0
    while t + 1 < k and q ** (t + 1) * max(r, 1) <= _CHUNK_TARGET:
        t += 1

    def weights(E, wE, shift, base):
        wts = wE + base
        for row, v in zip(E, neg[shift]):
            wts += row != v
        return wts

    digits = np.arange(q, dtype=np.uint8)
    E = np.zeros((r, 1), dtype=np.uint8)
    wE = np.zeros(1, dtype=np.min_scalar_type(n))
    for l in range(k - 1, k - 1 - t, -1):
        yield weights(E, wE, A[l], 1)
        # row l joins as the most significant digit: E becomes [d A[l] + E for d in digits]
        scaled = mul[A[l][:, None], digits]
        E = add[scaled[:, :, None], E[:, None, :]].reshape(r, q * E.shape[1])
        wE = np.add.outer(digits != 0, wE).ravel()
    for l in range(k - 1 - t, -1, -1):
        for tail in product(range(q), repeat=k - 1 - t - l):
            shift = A[l]
            for d, row in zip(tail, A[l + 1:]):
                if d:
                    shift = add[shift, mul[d, row]]
            yield weights(E, wE, shift, 1 + len(tail) - tail.count(0))


def _count_weights(field: FiniteField, gen: np.ndarray) -> np.ndarray:
    """Weight distribution A_0..A_n of rowspace(gen), whose pivot columns
    must be the identity: q-1 words for each representative that
    _iter_weight_blocks yields, plus the zero word."""
    n = gen.shape[1]
    counts = np.zeros(n + 1, dtype=np.int64)
    for wts in _iter_weight_blocks(field, gen):
        counts += np.bincount(wts, minlength=n + 1)
    counts *= field.q - 1
    counts[0] += 1
    return counts


@lru_cache(maxsize=None)
def _krawtchouk(q: int, n: int) -> np.ndarray:
    """The read-only matrix K[w, i] = sum_j (-1)^j (q-1)^(w-j) C(i, j) C(n-i, w-j)
    of Python ints."""
    K = np.array([[sum((-1) ** j * (q - 1) ** (w - j) * comb(i, j) * comb(n - i, w - j)
                        for j in range(w + 1)) for i in range(n + 1)] for w in range(n + 1)],
                 dtype=object)
    K.flags.writeable = False
    return K


def _macwilliams(q: int, dual_counts: np.ndarray, r: int) -> np.ndarray:
    """Weight distribution of C from that of its r-dimensional dual:
    A = q^-r K B (MacWilliams-Sloane, Ch. 5), in exact integers.  A
    remainder means `dual_counts` is no dual's distribution."""
    total = _krawtchouk(q, len(dual_counts) - 1) @ dual_counts  # object dtype: Python ints
    if any(total % q ** r):
        raise AqmdsError(f"MacWilliams transform not divisible by {q}^{r}")
    return (total // q ** r).astype(np.int64)


def _enumerate_scan(field: FiniteField, gen: np.ndarray) -> np.ndarray:
    """Weight distribution A_0..A_n of C = rowspace(gen), whose pivot
    columns must be the identity (a canonical generator), counted directly.
    The cap counts all q^k words and is checked before anything is
    allocated; q^k >= 2^63 is refused even when the cap admits it, since
    the counts are int64."""
    _check_enumerable(field, gen.shape[0])
    return _count_weights(field, gen)


def _distributions(C: LinearCode) -> Tuple[Union[np.ndarray, CapExceeded], ...]:
    """(A(C), A(C-perp)), each replaced by the CapExceeded of its own cap,
    q^k or q^(n-k) words.

    Of C and C-perp, the one of smaller dimension s is counted by
    _enumerate_scan, and the other's distribution is the MacWilliams
    transform of that count.  C-perp is counted from [I_(n-k) | A^T], A the
    non-pivot columns of C's canonical G: it differs from [I_(n-k) | -A^T],
    a generator of C-perp up to a column permutation, by negated columns,
    so it has C-perp's weights and needs no elimination.
    """
    field, k, n = C.field, C.k, C.n
    dual_first = 2 * k > n
    gen = (np.hstack([np.eye(n - k, dtype=np.uint8), _non_pivot_columns(C.G.data).T])
           if dual_first else C.G.data)
    s = gen.shape[0]
    try:
        counted = _enumerate_scan(field, gen)
    except CapExceeded as capped:
        counted = capped
    try:
        _check_enumerable(field, n - s)  # raises too where the smaller count is capped
        other = _macwilliams(field.q, counted, s)
    except CapExceeded as capped:
        other = capped
    return (other, counted) if dual_first else (counted, other)


def _check_enumerable(field: FiniteField, k: int) -> None:
    """Raise CapExceeded unless the q^k words of a k-dimensional code pass
    the cap and fit the int64 weight counts."""
    cap = enum_cap()
    if field.q ** k > cap:
        raise CapExceeded(
            f"enumeration of {field.q}^{k} codewords exceeds cap {cap}; "
            "raise AQMDS_MAX_ENUM or use the MDS k-subset oracle"
        )
    if field.q ** k >= 2 ** 63:
        raise CapExceeded(
            f"{field.q}^{k} codewords overflow the int64 weight counts; "
            "use the MDS k-subset oracle"
        )


def _find_full_weight(field: FiniteField, gen: np.ndarray) -> Optional[np.ndarray]:
    """First full-weight codeword in message order; early exit on hit.

    Requires `gen` in RREF: a full-weight word is then nonzero at every
    pivot column, i.e. every message digit is nonzero, and it is a scalar
    multiple of one with m_0 = 1.  Those come first in message order, so the
    candidates are the (q-1)^(k-1) messages with m_0 = 1 and every digit
    nonzero, in message order.  The hit at 0-based candidate position i is
    returned iff i < cap; absence is proven iff there are at most cap
    candidates; otherwise CapExceeded is raised.
    """
    k, n = gen.shape
    cap = enum_cap()
    candidates = (field.q - 1) ** (k - 1)
    scanned = 0
    for chunk in _iter_word_chunks(field, gen[0], gen[1:], np.arange(1, field.q, dtype=np.uint8)):
        chunk = chunk[: cap - scanned]
        hits = np.flatnonzero(np.count_nonzero(chunk, axis=1) == n)
        if hits.size:
            return chunk[hits[0]].copy()
        scanned += len(chunk)
        if scanned == cap < candidates:
            raise CapExceeded(
                f"no full-weight codeword in the first {cap} of "
                f"({field.q}-1)^{k - 1} candidate words; raise AQMDS_MAX_ENUM"
            )
    return None
