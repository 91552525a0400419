"""Exact arithmetic in prime-power finite fields GF(p^m), q <= 64.

Elements are encoded as integers in [0, q): the base-p digits of the index
are the coefficients of the element in the polynomial basis, low degree
first.  Index 0 is the additive identity and index 1 the multiplicative
identity.  A :class:`FiniteField` carries dense lookup tables (add, mul,
inv, neg, exp, log) so that matrix and enumeration code can run entirely
on numpy fancy indexing.

Polynomials over GF(q) are tuples of element indices, low degree first.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Sequence, Tuple

import numpy as np

from .errors import CapExceeded, DivisionByZero, FieldMismatch, NotPrimePower

FIELD_CAP = 64

Poly = Tuple[int, ...]


def _factor_prime_power(q: int) -> Tuple[int, int]:
    """Return (p, m) with q = p^m, or raise NotPrimePower."""
    if q < 2:
        raise NotPrimePower(f"q must be >= 2, got {q}")
    n = q
    p = None
    for cand in range(2, q + 1):
        if cand * cand > n:
            p = n
            break
        if n % cand == 0:
            p = cand
            break
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

        self.add_table = self._build_add_table()
        self.neg_table = np.array(
            [self._digit_neg(a) for a in range(q)], dtype=np.uint8
        )
        self.mul_table = self._build_mul_table()
        self.inv_table = self._build_inv_table()
        self.generator = self._find_generator()
        self.exp_table, self.log_table = self._build_exp_log()

        self.add_table.setflags(write=False)
        self.neg_table.setflags(write=False)
        self.mul_table.setflags(write=False)
        self.inv_table.setflags(write=False)
        self.exp_table.setflags(write=False)
        self.log_table.setflags(write=False)

    # -- construction helpers -------------------------------------------------

    def _digits_to_index(self, digits: Sequence[int]) -> int:
        a = 0
        for d in reversed(digits):
            a = a * self.p + (d % self.p)
        return a

    def _raw_mul(self, a: int, b: int) -> int:
        """Multiply two elements via polynomial-basis arithmetic."""
        p, m = self.p, self.m
        da = _base_digits(a, p, m)
        db = _base_digits(b, p, m)
        prod = [0] * (2 * m - 1) if m > 1 else [0]
        for i, ca in enumerate(da):
            if ca == 0:
                continue
            for j, cb in enumerate(db):
                prod[i + j] = (prod[i + j] + ca * cb) % p
        # reduce modulo the monic modulus
        mod = self.modulus
        for deg in range(len(prod) - 1, m - 1, -1):
            c = prod[deg]
            if c:
                prod[deg] = 0
                for i in range(m):
                    prod[deg - m + i] = (prod[deg - m + i] - c * mod[i]) % p
        return self._digits_to_index(prod[:m])

    def _digit_neg(self, a: int) -> int:
        return self._digits_to_index([(-d) % self.p for d in _base_digits(a, self.p, self.m)])

    def _build_add_table(self) -> np.ndarray:
        q = self.q
        table = np.zeros((q, q), dtype=np.uint8)
        for a in range(q):
            da = _base_digits(a, self.p, self.m)
            for b in range(q):
                db = _base_digits(b, self.p, self.m)
                table[a, b] = self._digits_to_index(
                    [(x + y) % self.p for x, y in zip(da, db)]
                )
        return table

    def _build_mul_table(self) -> np.ndarray:
        q = self.q
        table = np.zeros((q, q), dtype=np.uint8)
        for a in range(1, q):
            for b in range(a, q):
                v = self._raw_mul(a, b)
                table[a, b] = v
                table[b, a] = v
        return table

    def _build_inv_table(self) -> np.ndarray:
        q = self.q
        table = np.zeros(q, dtype=np.uint8)
        for a in range(1, q):
            row = self.mul_table[a]
            table[a] = int(np.nonzero(row == 1)[0][0])
        return table

    def _find_generator(self) -> int:
        order = self.q - 1
        for g in range(1, self.q):
            e = 1
            x = g
            while x != 1:
                x = int(self.mul_table[x, g])
                e += 1
            if e == order:
                return g
        raise AssertionError("multiplicative group has no generator")  # unreachable

    def _build_exp_log(self) -> Tuple[np.ndarray, np.ndarray]:
        order = self.q - 1
        exp = np.zeros(order, dtype=np.uint8)
        log = np.zeros(self.q, dtype=np.int64)
        x = 1
        for i in range(order):
            exp[i] = x
            log[x] = i
            x = int(self.mul_table[x, self.generator])
        return exp, log

    # -- element operations ---------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return int(self.add_table[a, b])

    def sub(self, a: int, b: int) -> int:
        return int(self.add_table[a, self.neg_table[b]])

    def neg(self, a: int) -> int:
        return int(self.neg_table[a])

    def mul(self, a: int, b: int) -> int:
        return int(self.mul_table[a, b])

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("0 has no multiplicative inverse")
        return int(self.inv_table[a])

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            a = self.inv(a)
            e = -e
        if a == 0:
            return 0 if e else 1
        # exp/log shortcut over the cyclic multiplicative group
        return int(self.exp_table[(int(self.log_table[a]) * e) % (self.q - 1)])

    def element(self, index: int) -> "FieldElement":
        return FieldElement(self, index)

    def elements(self) -> range:
        return range(self.q)

    def nonzero_elements(self) -> range:
        return range(1, self.q)

    # -- polynomials over GF(q), tuples of indices, low degree first ----------

    def poly_trim(self, f: Sequence[int]) -> Poly:
        f = list(f)
        while len(f) > 1 and f[-1] == 0:
            f.pop()
        return tuple(f)

    def poly_mul(self, f: Sequence[int], g: Sequence[int]) -> Poly:
        out = [0] * (len(f) + len(g) - 1)
        for i, a in enumerate(f):
            if a == 0:
                continue
            for j, b in enumerate(g):
                out[i + j] = self.add(out[i + j], self.mul(a, b))
        return self.poly_trim(out)

    def poly_divmod(self, f: Sequence[int], g: Sequence[int]) -> Tuple[Poly, Poly]:
        g = self.poly_trim(g)
        if g == (0,):
            raise DivisionByZero("polynomial division by zero")
        rem = list(self.poly_trim(f))
        dg = len(g) - 1
        lead_inv = self.inv(g[-1])
        quot = [0] * max(len(rem) - dg, 1)
        while len(rem) - 1 >= dg and self.poly_trim(rem) != (0,):
            shift = len(rem) - 1 - dg
            c = self.mul(rem[-1], lead_inv)
            if c == 0:
                rem.pop()
                continue
            quot[shift] = c
            for i in range(dg + 1):
                rem[shift + i] = self.sub(rem[shift + i], self.mul(c, g[i]))
            while len(rem) > 1 and rem[-1] == 0:
                rem.pop()
        return self.poly_trim(quot), self.poly_trim(rem)

    def poly_eval(self, f: Sequence[int], x: int) -> int:
        acc = 0
        for c in reversed(f):
            acc = self.add(self.mul(acc, x), c)
        return acc

    def __repr__(self):
        return f"GF({self.q})"


@dataclass(frozen=True)
class FieldElement:
    """Value-type wrapper around an element index, for convenience use.

    All bulk computation works on raw integer indices; this class exists
    for readable scalar arithmetic in demos and tests.
    """

    field: FiniteField
    index: int

    def __post_init__(self):
        if not 0 <= self.index < self.field.q:
            raise ValueError(f"index {self.index} out of range for {self.field}")

    def _check(self, other: "FieldElement") -> None:
        if not isinstance(other, FieldElement) or other.field is not self.field:
            raise FieldMismatch("operands belong to different fields")

    def __add__(self, other):
        self._check(other)
        return FieldElement(self.field, self.field.add(self.index, other.index))

    def __sub__(self, other):
        self._check(other)
        return FieldElement(self.field, self.field.sub(self.index, other.index))

    def __mul__(self, other):
        self._check(other)
        return FieldElement(self.field, self.field.mul(self.index, other.index))

    def __neg__(self):
        return FieldElement(self.field, self.field.neg(self.index))

    def __pow__(self, e: int):
        return FieldElement(self.field, self.field.pow(self.index, e))

    def inverse(self) -> "FieldElement":
        return FieldElement(self.field, self.field.inv(self.index))


def _base_digits(t: int, base: int, count: int) -> Tuple[int, ...]:
    """The `count` lowest base-`base` digits of t, least significant first."""
    digits = []
    for _ in range(count):
        t, d = divmod(t, base)
        digits.append(d)
    return tuple(digits)


def _monic_polys(q: int, degree: int):
    """Every monic polynomial of the given degree over GF(q), in increasing
    order of its lower coefficients read as a base-q integer, low degree first."""
    for t in range(q ** degree):
        yield _base_digits(t, q, degree) + (1,)


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
        raise ValueError("degree must be >= 1")
    key = (field.q, degree)
    if key not in _IRREDUCIBLE:
        tables = tuple(t.tolist() for t in (field.add_table, field.mul_table,
                                             field.neg_table, field.inv_table))
        _IRREDUCIBLE[key] = next(poly for poly in _monic_polys(field.q, degree)
                                 if _poly_is_irreducible(tables, poly))
    return _IRREDUCIBLE[key]


def _poly_is_irreducible(tables, poly: Poly) -> bool:
    """Ben-Or's test (Ben-Or 1981; Rabin 1980): a monic f of degree d over
    GF(q) is irreducible iff gcd(x^(q^i) - x, f) = 1 for every i <= d/2.

    The i = 1 condition says f has no root in GF(q), so it is a root scan;
    for d <= 3 it is the whole test.  `tables` are the field's add, mul,
    neg and inv tables as nested lists, for fast scalar lookups.
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
    # x -> x^q is GF(q)-linear modulo f, so with frob[j] = x^(q*j) mod f,
    # h^q mod f = sum_j h_j frob[j].
    neg_low = [neg[c] for c in poly[:d]]
    frob = []
    cur = [1] + [0] * (d - 1)
    for t in range(q * (d - 1) + 1):
        if t % q == 0:
            frob.append(cur)
        lead = cur[-1]
        cur = [0] + cur[:-1]
        if lead:
            row = mul[lead]
            cur = [add[a][row[b]] for a, b in zip(cur, neg_low)]
    h = frob[1]  # x^q mod f
    for _ in range(2, d // 2 + 1):
        nxt = [0] * d
        for hj, row in zip(h, frob):
            if hj:
                scale = mul[hj]
                nxt = [add[a][scale[b]] for a, b in zip(nxt, row)]
        h = nxt
        # gcd(f, h - x) by Euclid, on coefficient lists without leading zeros
        a, b = list(poly), list(h)
        b[1] = add[b[1]][neg[1]]
        b = _trim(b)
        while b:
            a, b = b, _poly_rem(a, b, tables)
        if len(a) > 1:
            return False
    return True


def _trim(f: list) -> list:
    while f and f[-1] == 0:
        f.pop()
    return f


def _poly_rem(a: list, b: list, tables) -> list:
    """a mod b on coefficient lists (low degree first, b nonzero and trimmed)."""
    add, mul, neg, inv = tables
    a = list(a)
    db = len(b) - 1
    lead_inv = inv[b[-1]]
    while len(a) > db:
        c = mul[a[-1]][lead_inv]
        if c:
            scale = mul[neg[c]]
            s = len(a) - 1 - db
            for i in range(db):
                a[s + i] = add[a[s + i]][scale[b[i]]]
        a.pop()  # its coefficient is now zero
    return _trim(a)


def element_sums(field: FiniteField) -> Tuple[int, int, int]:
    """Sums over all nonzero elements: (sum a, sum a^-1, sum a^2).

    Backs the GH^T = 0 argument for the length-(q+2) nested pair, which
    needs all three sums to vanish in characteristic 2 with q > 2.
    """
    s1 = s_inv = s2 = 0
    for a in field.nonzero_elements():
        s1 = field.add(s1, a)
        s_inv = field.add(s_inv, field.inv(a))
        s2 = field.add(s2, field.mul(a, a))
    return s1, s_inv, s2
