#!/usr/bin/env python3
"""Tour of the finite-field layer.

Fields are built from their order q = p^m; elements are integer indices
whose base-p digits are polynomial-basis coefficients.  All arithmetic
runs on four dense lookup tables: add, mul, neg and inv.
"""
from aqmds import make_field, find_irreducible

f4 = make_field(4)
print(f"GF(4): p={f4.p}, m={f4.m}, modulus coefficients (low degree first) {f4.modulus}")
w = 2  # the index of x, a root of the modulus x^2 + x + 1
print(f"  omega = x is index {w}, omega^2 = x + 1 is index {f4.mul(w, w)}")
print(f"  omega + omega^2 = {f4.add(w, f4.mul(w, w))}   (1 + omega + omega^2 = 0)")

f5 = make_field(5)
print(f"\nGF(5): inverse of 3 is {f5.inv(3)}  (3*2 = 6 = 1 mod 5)")

f9 = make_field(9)
print(f"\nGF(9) index arithmetic: 5+7 -> {f9.add(5, 7)}, 5*7 -> {f9.mul(5, 7)}, "
      f"5^-1 -> {f9.inv(5)}, -5 -> {f9.neg(5)}")

print("\nsmallest monic irreducible polynomials (coefficients low degree first):")
for q, deg in [(2, 2), (4, 2), (5, 1), (5, 3)]:
    print(f"  over GF({q}), degree {deg}: {find_irreducible(make_field(q), deg)}")
