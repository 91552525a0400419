"""Exact arithmetic in prime-power finite fields GF(p^m), q <= 64.

Elements are encoded as integers in [0, q): the base-p digits of the index
are the coefficients of the element in the polynomial basis, low degree
first.  Index 0 is the additive identity and index 1 the multiplicative
identity.  A :class:`FiniteField` carries four dense lookup tables (add,
mul, neg, inv) so that matrix and enumeration code can run entirely on
numpy fancy indexing.  The tables come from the array of every element's
digits, which the field keeps with the place values p^i: addition and
negation act digit-wise mod p, and multiplication by x is GF(p)-linear on
digits, so a*b = sum_i a_i (x^i b) is one contraction.

Polynomials over GF(q) are tuples of element indices, low degree first.
The kernels `_poly_mul` and `_poly_divmod`, over nested-list copies of the
tables, are the only polynomial loops: the irreducibility test's powers
and Euclid steps run on them.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import product
from math import isqrt
from typing import Dict, Sequence, Tuple

import numpy as np

from .errors import AqmdsError, CapExceeded, NotPrimePower

FIELD_CAP = 64

Poly = Tuple[int, ...]


def _factor_prime_power(q: int) -> Tuple[int, int]:
    """Return (p, m) with q = p^m, or raise NotPrimePower.  A q of 2^32 or
    more raises CapExceeded untested: trial division stops below 2^16."""
    if q < 2:
        raise NotPrimePower(f"q must be >= 2, got {q}")
    if q >= 1 << 32:
        raise CapExceeded(f"q={q} is too large to test for a prime power")
    p = next((c for c in range(2, isqrt(q) + 1) if q % c == 0), q)  # least prime factor
    n = q
    m = 0
    while n % p == 0:
        n //= p
        m += 1
    if n != 1:
        raise NotPrimePower(f"{q} is not a prime power")
    return p, m


class FiniteField:
    """Arithmetic context for GF(p^m).

    Use :func:`make_field` instead of constructing directly; fields are
    cached per q and compare by identity.
    """

    def __init__(self, q: int):
        if q > FIELD_CAP:
            raise CapExceeded(f"q={q} exceeds the field cap {FIELD_CAP}")
        p, m = _factor_prime_power(q)
        self.p = p
        self.m = m
        self.q = q
        # a prime field takes X directly: make_field(p) would be this very field
        self.modulus = find_irreducible(make_field(p), m) if m > 1 else (0, 1)

        place = p ** np.arange(m)
        digits = np.arange(q)[:, None] // place % p  # digits[a]: a's base-p digits

        def to_index(d: np.ndarray) -> np.ndarray:
            return ((d % p) @ place).astype(np.uint8)

        # xb[i][b] holds the digits of x^i * b mod the modulus: shift up one
        # place, then replace the x^m term by -(the modulus below its leading 1)
        xb = [digits]
        for _ in range(1, m):
            prev = xb[-1]
            xb.append((np.pad(prev[:, :-1], ((0, 0), (1, 0)))
                       - prev[:, -1:] * self.modulus[:m]) % p)
        self.add_table = to_index(digits[:, None] + digits[None])
        self.neg_table = to_index(-digits)
        self.mul_table = to_index(np.einsum("ai,ibj->abj", digits, np.stack(xb)))
        self.inv_table = np.argmax(self.mul_table == 1, axis=1).astype(np.uint8)
        # nested-list copies for the scalar loops of the polynomial code and
        # for the row operations of matrix.rref
        self._tables = tuple(t.tolist() for t in (self.add_table, self.mul_table,
                                                  self.neg_table, self.inv_table))
        # digits[a] holds a's base-p digits and a = digits[a] @ place, so a sum
        # of many elements is a digit-wise sum mod p (matrix.mat_mul)
        self.digits = digits.astype(np.uint8)
        self.place = place
        for t in (self.add_table, self.neg_table, self.mul_table, self.inv_table,
                  self.digits, self.place):
            t.setflags(write=False)

    # -- element operations ---------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return int(self.add_table[a, b])

    def neg(self, a: int) -> int:
        return int(self.neg_table[a])

    def mul(self, a: int, b: int) -> int:
        return int(self.mul_table[a, b])

    def inv(self, a: int) -> int:
        if a == 0:
            raise AqmdsError("0 has no multiplicative inverse")
        return int(self.inv_table[a])

    def poly_eval(self, f: Sequence[int], x: int) -> int:
        add, mul = self._tables[:2]
        acc = 0
        for c in reversed(f):
            acc = add[mul[acc][x]][c]
        return acc

    def __repr__(self):
        return f"GF({self.q})"


def _monic_polys(q: int, degree: int):
    """Every monic polynomial of the given degree over GF(q), in increasing
    order of its lower coefficients read as a base-q integer, low degree first."""
    for low in product(range(q), repeat=degree):
        yield low[::-1] + (1,)


@lru_cache(maxsize=None)
def make_field(q: int) -> FiniteField:
    """Build (and cache) the field GF(q) with the canonical modulus."""
    return FiniteField(q)


# (q, degree) -> the polynomial find_irreducible chose; it depends on nothing else
_IRREDUCIBLE: Dict[Tuple[int, int], Poly] = {}


def find_irreducible(field: FiniteField, degree: int) -> Poly:
    """Lexicographically smallest monic irreducible of given degree over GF(q).

    Lower-coefficient vectors are ordered as base-q integers, low degree
    first.  Irreducibility is certified by Ben-Or's test (see
    `_poly_is_irreducible`).  The result is memoized per (q, degree).
    """
    if degree < 1:
        raise AqmdsError("degree must be >= 1")
    key = (field.q, degree)
    if key not in _IRREDUCIBLE:
        _IRREDUCIBLE[key] = next(poly for poly in _monic_polys(field.q, degree)
                                 if _poly_is_irreducible(field._tables, poly))
    return _IRREDUCIBLE[key]


def _poly_is_irreducible(tables, poly: Poly) -> bool:
    """Ben-Or's test (Ben-Or 1981; Rabin 1980): a monic f of degree d over
    GF(q) is irreducible iff gcd(x^(q^i) - x, f) = 1 for every i <= d/2.

    The i = 1 condition says f has no root in GF(q), so it is a root scan;
    for d <= 3 it is the whole test.  Each step raises x^(q^(i-1)) mod f to
    the q-th power by square-and-multiply over the bits of q (von zur Gathen
    & Gerhard, Modern Computer Algebra, ch. 14).  `tables` are the field's
    add, mul, neg and inv tables as nested lists, for fast scalar lookups.
    """
    add, mul, neg, inv = tables
    q, d = len(inv), len(poly) - 1
    if d == 1:
        return True
    for x in range(q):
        acc = 0
        for c in reversed(poly):
            acc = add[mul[acc][x]][c]
        if acc == 0:
            return False
    if d <= 3:
        return True
    h = [0, 1]  # x^(q^i) mod f, from i = 0
    for i in range(1, d // 2 + 1):
        power = h
        for bit in bin(q)[3:]:  # the bits below q's leading one, which h stands for
            power = _poly_divmod(_poly_mul(power, power, tables), poly, tables)[1]
            if bit == "1":
                power = _poly_divmod(_poly_mul(power, h, tables), poly, tables)[1]
        h = power
        if i > 1:  # i = 1 was the root scan; gcd(f, h - x) by Euclid
            a, b = list(poly), h + [0, 0]
            b[1] = add[b[1]][neg[1]]
            b = _trim(b)
            while b:
                a, b = b, _poly_divmod(a, b, tables)[1]
            if len(a) > 1:
                return False
    return True


def _trim(f: list) -> list:
    while f and f[-1] == 0:
        f.pop()
    return f


def _poly_mul(a: Sequence[int], b: Sequence[int], tables) -> list:
    """a * b on coefficient lists, low degree first, untrimmed."""
    add, mul = tables[:2]
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        row = mul[c]
        for j, e in enumerate(b):
            out[i + j] = add[out[i + j]][row[e]]
    return out


def _poly_divmod(a: list, b: list, tables) -> Tuple[list, list]:
    """(a div b, a mod b) on coefficient lists, low degree first, with b
    nonzero and trimmed; both results are trimmed, zero being []."""
    add, mul, neg, inv = tables
    a = list(a)
    db = len(b) - 1
    lead_inv = inv[b[-1]]
    quot = [0] * max(len(a) - db, 0)
    while len(a) > db:
        s = len(a) - 1 - db
        c = quot[s] = mul[a[-1]][lead_inv]
        if c:
            scale = mul[neg[c]]
            for i in range(db):
                a[s + i] = add[a[s + i]][scale[b[i]]]
        a.pop()  # its coefficient is now zero
    return _trim(quot), _trim(a)
