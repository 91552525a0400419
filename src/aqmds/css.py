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
at most one exact weight count of each of C1 and C2 and the MacWilliams
identity; at k = 0, where C1 = C2^perp, from one count.
css_construct and the catalog's full_oracle distance oracles both read
it.  At k = 0, C1^perp = C2, so no word lies outside and d_z, d_x are the
two classical distances, pure by convention; where a count there exceeds
the cap, an MDS proof gives the distance n - k + 1 instead.

Each fact is proven once.  A NestedPair proves dual(C1) subseteq C2 when
it is made, so holding one is the nesting proof.  The MDS verdicts behind
the k = 0 distances come from the caller's `is_mds`, which the catalog's
oracles take from the run's CodeStore.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple, Union

import numpy as np

from .code import (LinearCode, _check_enumerable, _enumerate_scan, _lowest_weight, _macwilliams,
                   first_row_outside)
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
        witness = first_row_outside(self.c1.dual(), self.c2)
        if witness is not None:
            raise AqmdsError(f"dual(C1) not contained in C2; witness row {witness.tolist()}")

    @property
    def quantum_k(self) -> int:
        return self.c1.k + self.c2.k - self.c1.n


def make_pair(C1: LinearCode, C2: LinearCode) -> NestedPair:
    """The nested pair (C1, C2); raises AqmdsError unless both are nonzero
    and dual(C1) subseteq C2."""
    return NestedPair(C1, C2)


Side = Union[Tuple[Optional[int], int], CapExceeded]


def pair_sides(pair: NestedPair,
               is_mds: Callable[[LinearCode], bool] = LinearCode.is_mds) -> Tuple[Side, Side]:
    """The C2 side and then the C1 side of the pair: (min weight of the
    side's code outside the other's dual, or None, min distance of the
    side's code), or the CapExceeded that the count of the side's code raised.

    Each of C2 and C1 is counted at most once, each under its own cap and
    before any dual is counted.  The pair proves dual(C1) subseteq C2
    and dual(C2) subseteq C1, so the words of a side's code orthogonal to
    the other code are exactly dual(other), and the weights outside it are
    A(code) - A(dual(other)).  A(dual(other)) is the MacWilliams transform
    of A(other), or a count of dual(other) where other's count is capped:
    q^(n - dim other) <= q^(dim code), which passed its cap.

    At k = 0 dual(other) is the code itself, so no word lies outside, and a
    capped distance is n-k+1 of the side's code when `is_mds` proves it MDS.
    There C1 = dual(C2): where both pass their caps, A(C1) is the
    MacWilliams transform of A(C2), and only C2 is counted.
    """
    codes = (pair.c2, pair.c1)
    counts = [_count(pair.c2)]
    counts.append(_count(pair.c1, counts[0] if pair.quantum_k == 0 else None))
    sides = []
    for code, dist, other, other_dist in zip(codes, counts, codes[::-1], counts[::-1]):
        if isinstance(dist, CapExceeded):
            proven = pair.quantum_k == 0 and is_mds(code)
            sides.append((None, code.n - code.k + 1) if proven else dist)
        elif pair.quantum_k == 0:
            sides.append((None, _lowest_weight(dist)))
        else:
            inside = (_enumerate_scan(other.field, other.H.data) if isinstance(other_dist, CapExceeded)
                      else _macwilliams(other.field.q, other_dist, other.k))
            sides.append((_lowest_weight(dist - inside), _lowest_weight(dist)))
    return sides[0], sides[1]


def css_construct(pair: NestedPair) -> AqcParams:
    """Exact quantum parameters of the pair from pair_sides, raising the
    first side's CapExceeded; k = k1 + k2 - n >= 0, as the pair proves
    dual(C1) subseteq C2."""
    sides = pair_sides(pair)
    for side in sides:
        if isinstance(side, CapExceeded):
            raise side
    (wt2, d2), (wt1, d1) = sides
    n, k = pair.c1.n, pair.quantum_k
    a, b = (wt2, wt1) if k else (d2, d1)
    dz, dx = max(a, b), min(a, b)
    return AqcParams(q=pair.c1.field.q, n=n, k=k, dz=dz, dx=dx, pure={dz, dx} == {d1, d2},
                     aqmds=(k == n - dx - dz + 2))


def _count(code: LinearCode, dual_count: Union[np.ndarray, CapExceeded, None] = None
           ) -> Union[np.ndarray, CapExceeded]:
    """The weight distribution of `code`, or the CapExceeded its count raised.

    Given the distribution of dual(code), the cap is checked just the same,
    and the distribution is its MacWilliams transform instead of a count.
    """
    try:
        if not isinstance(dual_count, np.ndarray):
            return _enumerate_scan(code.field, code.G.data)
        _check_enumerable(code.field, code.k)
        return _macwilliams(code.field.q, dual_count, code.n - code.k)
    except CapExceeded as capped:
        return capped


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
