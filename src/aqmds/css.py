"""Asymmetric CSS construction from a nested classical pair.

Given linear codes C1, C2 with dual(C1) contained in C2, the derived
quantum parameters are

    n, k = k1 + k2 - n,
    d_z  = max(wt(C2 \\ C1^perp), wt(C1 \\ C2^perp)),
    d_x  = min of the same two set-difference weights,

with purity meaning {d_z, d_x} equals the pair of classical minimum
distances, and the AQMDS flag marking equality in the quantum Singleton
bound k <= n - d_x - d_z + 2.

One function, pair_sides, computes these numbers for a pair: for each
side, its set-difference weight and its classical minimum distance, from
the distributions of C1, C2 and their duals that code._distributions
gives (the counting rule is described there).  At k = 0, C1^perp = C2, so
no word lies outside and d_z, d_x are the two classical distances, pure
by convention; where a count there exceeds the cap, an MDS proof gives
the distance n - k + 1 instead.  _quantum_distances turns two exact sides
into (d_z, d_x, purity) for css_construct and the catalog's oracles alike.

Each fact is proven once.  A NestedPair proves dual(C1) subseteq C2 when
it is made, so holding one is the nesting proof.  The MDS verdicts behind
the k = 0 distances are the codes' own, which LinearCode.is_mds keeps, so
in the catalog's oracles they are those of mds_dual_c1 and mds_c2.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

from .code import LinearCode, _distributions, _lowest_weight, rows_outside
from .errors import AqmdsError, CapExceeded
from .matrix import GfMatrix


@dataclass(frozen=True)
class AqcParams:
    """Verified parameters [[n, k, dz/dx]]_q of a CSS asymmetric quantum code."""

    q: int
    n: int
    k: int
    dz: int
    dx: int
    pure: bool
    aqmds: bool

    def __str__(self):
        flags = [name for name, on in (("pure", self.pure), ("AQMDS", self.aqmds)) if on]
        return " ".join([f"[[{self.n},{self.k},{self.dz}/{self.dx}]]_{self.q}", *flags])


@dataclass(frozen=True)
class NestedPair:
    """A classical pair (C1, C2) with dual(C1) inside C2.

    The nesting is proven when the pair is made, so no unproven pair
    exists: the AqmdsError names the first row of dual(C1)'s canonical
    generator outside C2.  The reverse inclusion dual(C2) subseteq C1
    follows, since taking duals reverses inclusion.  A zero C1 or C2 is
    refused first, as it has no minimum distance.
    """

    c1: LinearCode
    c2: LinearCode

    def __post_init__(self):
        for name, code in (("C1", self.c1), ("C2", self.c2)):
            if code.k == 0:
                raise AqmdsError(f"{name} is the zero code, which has no minimum distance")
        outside = rows_outside(self.c1.dual(), self.c2)
        if outside.size:
            witness = self.c1.dual().G.data[outside[0]].tolist()
            raise AqmdsError(f"dual(C1) not contained in C2; witness row {witness}")

    @property
    def quantum_k(self) -> int:
        return self.c1.k + self.c2.k - self.c1.n


def make_pair(C1: LinearCode, C2: LinearCode) -> NestedPair:
    """The nested pair (C1, C2); raises AqmdsError unless both are nonzero
    and dual(C1) subseteq C2."""
    return NestedPair(C1, C2)


Side = Union[Tuple[Optional[int], int], CapExceeded]


def pair_sides(pair: NestedPair) -> Tuple[Side, Side]:
    """The C2 side and then the C1 side of the pair: (min weight of the
    side's code outside the other's dual, or None, min distance of the
    side's code), or the CapExceeded in place of the side's code's
    distribution (code._distributions; C2 is counted first).

    The pair proves dual(C1) subseteq C2 and dual(C2) subseteq C1, so the
    words of a side's code orthogonal to the other code are exactly
    dual(other), no larger than the code, and the weights outside it are
    A(code) - A(dual(other)).  At k = 0 dual(other) is the code itself, so
    no word lies outside, C1's distributions are C2's swapped, and a capped
    distance is n-k+1 of the side's code when it is proven MDS.
    """
    k = pair.quantum_k
    c2 = _distributions(pair.c2)
    c1 = c2[::-1] if k == 0 else _distributions(pair.c1)
    sides = []
    for code, (dist, _), (_, inside) in ((pair.c2, c2, c1), (pair.c1, c1, c2)):
        if isinstance(dist, CapExceeded):
            proven = k == 0 and code.is_mds()
            sides.append((None, code.n - code.k + 1) if proven else dist)
        else:
            sides.append((_lowest_weight(dist - inside) if k else None, _lowest_weight(dist)))
    return sides[0], sides[1]


def _quantum_distances(k: int, sides: Tuple[Side, Side]) -> Optional[Tuple[int, int, bool]]:
    """(dz, dx, pure) of a pair of quantum dimension k from its two sides:
    the larger and the smaller of the outside weights, or at k = 0 of the
    classical distances, and whether they are the classical distances.
    None when a side is capped or, for k > 0, has no outside weight."""
    if any(isinstance(side, CapExceeded) for side in sides):
        return None
    (wt2, d2), (wt1, d1) = sides
    a, b = (wt2, wt1) if k else (d2, d1)
    return None if None in (a, b) else (max(a, b), min(a, b), {a, b} == {d1, d2})


def css_construct(pair: NestedPair) -> AqcParams:
    """Exact quantum parameters of the pair from pair_sides, raising the
    first side's CapExceeded; k = k1 + k2 - n >= 0, as the pair proves
    dual(C1) subseteq C2."""
    sides = pair_sides(pair)
    for side in sides:
        if isinstance(side, CapExceeded):
            raise side
    n, k = pair.c1.n, pair.quantum_k
    dz, dx, pure = _quantum_distances(k, sides)
    return AqcParams(q=pair.c1.field.q, n=n, k=k, dz=dz, dx=dx, pure=pure,
                     aqmds=(k == n - dx - dz + 2))


def pair_from_full_weight(C: LinearCode) -> NestedPair:
    """The CSS pair realizing the full-weight-codeword construction:
    C1 = dual of the line spanned by the first full-weight codeword, C2 = C."""
    if C.k < 2:
        raise AqmdsError(f"need k >= 2, got k={C.k}")
    u = C.full_weight_codeword()
    if u is None:
        raise AqmdsError(f"[{C.n},{C.k}]_{C.field.q} has no full-weight codeword")
    line = LinearCode(GfMatrix(C.field, u[None, :]))
    return make_pair(line.dual(), C)


def from_full_weight(C: LinearCode) -> AqcParams:
    """Quantum code [[n, k-1, d_z/2]] from a code with a full-weight codeword."""
    return css_construct(pair_from_full_weight(C))
