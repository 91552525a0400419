#!/usr/bin/env python3
"""From nested classical pairs to asymmetric quantum parameters.

The CSS construction takes codes C1, C2 with dual(C1) inside C2 and
yields an [[n, k1+k2-n, dz/dx]] quantum code; dz and dx are the max/min
of the two set-difference weights, computed here by exact enumeration.
"""
from aqmds import (
    css_construct,
    from_full_weight,
    full_space,
    grs,
    make_field,
    make_pair,
    q_plus_2_high,
    q_plus_2_low,
)

f5 = make_field(5)

# nested GRS pair: dual(GRS_{5,2}) and GRS_{5,3}
pair = make_pair(grs(f5, 5, 2).dual(), grs(f5, 5, 3))
print("nested GRS pair:", css_construct(pair))

# any MDS code against the full space gives d_x = 1
pair = make_pair(grs(f5, 5, 2), full_space(f5, 5))
print("code vs full space:", css_construct(pair))

# a code against its own dual gives quantum dimension 0 (pure by convention)
C = grs(f5, 5, 2)
print("code vs its dual:  ", css_construct(make_pair(C.dual(), C)))

# the d_x = 2 family: split off a full-weight codeword
print("full-weight split: ", from_full_weight(grs(f5, 5, 3)))

# the length-(q+2) pair over GF(8)
f8 = make_field(8)
pair = make_pair(q_plus_2_low(f8).dual(), q_plus_2_high(f8))
print("length q+2, GF(8): ", css_construct(pair))
