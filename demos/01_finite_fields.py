#!/usr/bin/env python3
"""Tour of the finite-field layer.

Fields are built from their order q = p^m; elements are integer indices
whose base-p digits are polynomial-basis coefficients.  All arithmetic
runs on dense lookup tables.
"""
from aqmds import make_field, find_irreducible
from aqmds.gf import element_sums

f4 = make_field(4)
print(f"GF(4): p={f4.p}, m={f4.m}, modulus coefficients (low degree first) {f4.modulus}")
print(f"  generator: {f4.generator}")
w = f4.generator
print(f"  omega + omega^2 = {f4.add(w, f4.mul(w, w))}   (1 + omega + omega^2 = 0)")

f5 = make_field(5)
print(f"\nGF(5): inverse of 3 is {f5.inv(3)}  (3*2 = 6 = 1 mod 5)")

f9 = make_field(9)
print(f"\nGF(9) index arithmetic: 5+7 -> {f9.add(5, 7)}, 5*7 -> {f9.mul(5, 7)}, "
      f"5^-1 -> {f9.inv(5)}")

print("\nsmallest monic irreducible polynomials (coefficients low degree first):")
for q, deg in [(2, 2), (4, 2), (5, 1), (5, 3)]:
    print(f"  over GF({q}), degree {deg}: {find_irreducible(make_field(q), deg)}")

print("\nelement sums (sum a, sum 1/a, sum a^2) over nonzero elements:")
for q in (2, 4, 8, 16):
    print(f"  GF({q}): {element_sums(make_field(q))}")
print("vanishing sums for q = 2^m > 2 back the length-(q+2) pair construction")
