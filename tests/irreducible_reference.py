"""Independent reference for `find_irreducible`: trial division.

This module deliberately does NOT import the package under test.  It builds
GF(q) from scratch in the library's element encoding (the base-p digits of
an element's index are its coefficients in the polynomial basis, low degree
first, modulo the smallest monic irreducible of degree m over GF(p)).  It
then finds the smallest monic irreducible polynomial of a given degree,
with the lower coefficients read as a base-q integer, low degree first, by
dividing each candidate by every monic polynomial of degree <= d/2.

The cost grows like q^(d/2) per candidate: seconds at q=11, d=10.
"""
from __future__ import annotations

from functools import lru_cache
from typing import List, Tuple


def prime_power(q: int) -> Tuple[int, int]:
    """(p, m) with q = p^m; raises ValueError when q is not a prime power."""
    p = next((c for c in range(2, q + 1) if q % c == 0), None)
    if p is None:
        raise ValueError(f"{q} is not a prime power")
    m, n = 0, q
    while n % p == 0:
        n //= p
        m += 1
    if n != 1:
        raise ValueError(f"{q} is not a prime power")
    return p, m


def digits(t: int, base: int, count: int) -> List[int]:
    out = []
    for _ in range(count):
        t, d = divmod(t, base)
        out.append(d)
    return out


class Field:
    """GF(q) as add/mul/neg tables over element indices."""

    def __init__(self, q: int):
        p, m = prime_power(q)
        self.q = q
        if m == 1:
            self.modulus = (0, 1)
            self.add = [[(a + b) % p for b in range(q)] for a in range(q)]
            self.mul = [[a * b % p for b in range(q)] for a in range(q)]
        else:
            base = make_field(p)
            self.modulus = smallest_irreducible(p, m)
            index = {tuple(digits(a, p, m)): a for a in range(q)}
            self.add = [[index[tuple((x + y) % p for x, y in zip(digits(a, p, m), digits(b, p, m)))]
                         for b in range(q)] for a in range(q)]
            self.mul = [[index[tuple(poly_rem(base, poly_mul(base, digits(a, p, m), digits(b, p, m)),
                                              list(self.modulus)))]
                         for b in range(q)] for a in range(q)]
        self.neg = [row.index(0) for row in self.add]


@lru_cache(maxsize=None)
def make_field(q: int) -> Field:
    return Field(q)


def poly_mul(f: Field, a: List[int], b: List[int]) -> List[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = f.add[out[i + j]][f.mul[x][y]]
    return out


def poly_rem(f: Field, a: List[int], g: List[int]) -> List[int]:
    """a mod g for a monic g, low degree first; the result has len(g) - 1 entries."""
    a = list(a)
    dg = len(g) - 1
    for top in range(len(a) - 1, dg - 1, -1):
        c = f.neg[a[top]]
        if c:
            for i in range(dg + 1):
                a[top - dg + i] = f.add[a[top - dg + i]][f.mul[c][g[i]]]
    return (a + [0] * dg)[:dg]


def is_irreducible(f: Field, poly: List[int]) -> bool:
    d = len(poly) - 1
    for e in range(1, d // 2 + 1):
        for t in range(f.q ** e):
            if not any(poly_rem(f, poly, digits(t, f.q, e) + [1])):
                return False
    return True


def smallest_irreducible(q: int, degree: int) -> Tuple[int, ...]:
    """Lexicographically smallest monic irreducible of the given degree over GF(q)."""
    f = make_field(q)
    for t in range(q ** degree):
        poly = digits(t, q, degree) + [1]
        if is_irreducible(f, poly):
            return tuple(poly)
    raise AssertionError("no irreducible polynomial found")  # unreachable
