"""Asymmetric CSS construction from a nested classical pair.

Given linear codes C1, C2 with dual(C1) contained in C2, the derived
quantum parameters are

    n, k = k1 + k2 - n,
    d_z  = max(wt(C2 \\ C1^perp), wt(C1 \\ C2^perp)),
    d_x  = min of the same two set-difference weights,

with purity meaning {d_z, d_x} equals the pair of classical minimum
distances, and the AQMDS flag marking equality in the quantum Singleton
bound k <= n - d_x - d_z + 2.  Set-difference weights are computed by
exact enumeration; each enumeration pass also yields the classical
minimum distance of the enumerated code, so one pass per side suffices.

Each fact is proven once.  A NestedPair proves dual(C1) subseteq C2 when
it is made, so holding one is the nesting proof.  Where a distance falls
back on the MDS oracle, the verdict comes from the caller's `is_mds`,
which the catalog's oracles take from the run's CodeStore.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from .code import LinearCode, _lowest_weight, _scan_outside, first_row_outside
from .errors import CapExceeded, DimensionTooSmall, NoFullWeightWord, NotNested
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
        flags = []
        if self.pure:
            flags.append("pure")
        if self.aqmds:
            flags.append("AQMDS")
        tail = " " + " ".join(flags) if flags else ""
        return f"[[{self.n},{self.k},{self.dz}/{self.dx}]]_{self.q}{tail}"


@dataclass(frozen=True)
class NestedPair:
    """A classical pair (C1, C2) with dual(C1) inside C2.

    The nesting is proven when the pair is made, so no unproven pair
    exists: NotNested names the first row of dual(C1)'s canonical
    generator outside C2.  The reverse inclusion dual(C2) subseteq C1
    follows, since taking duals reverses inclusion.
    """

    c1: LinearCode
    c2: LinearCode

    def __post_init__(self):
        witness = first_row_outside(self.c1.dual(), self.c2)
        if witness is not None:
            raise NotNested(f"dual(C1) not contained in C2; witness row {witness.tolist()}")

    @property
    def quantum_k(self) -> int:
        return self.c1.k + self.c2.k - self.c1.n


def make_pair(C1: LinearCode, C2: LinearCode) -> NestedPair:
    """The nested pair (C1, C2); raises NotNested unless dual(C1) subseteq C2."""
    return NestedPair(C1, C2)


def _mds_backed_distance(C: LinearCode,
                         is_mds: Callable[[LinearCode], bool] = LinearCode.is_mds) -> int:
    """Exact distance by enumeration or, where the scan raises CapExceeded
    (before it allocates anything), n-k+1 when `is_mds(C)` proves C MDS."""
    try:
        return C.min_distance()
    except CapExceeded:
        if is_mds(C):
            return C.n - C.k + 1
        raise


def css_construct(pair: NestedPair) -> AqcParams:
    """Exact quantum parameters of the pair, by brute-force enumeration;
    k = k1 + k2 - n >= 0, as the pair proves dual(C1) subseteq C2."""
    C1, C2 = pair.c1, pair.c2
    f = C1.field
    n = C1.n
    k = pair.quantum_k

    if k == 0:
        # C1^perp = C2: distances of the code and its dual, pure by convention
        d1 = _mds_backed_distance(C1)
        d2 = _mds_backed_distance(C2)
        dz, dx = max(d1, d2), min(d1, d2)
        return AqcParams(
            q=f.q, n=n, k=0, dz=dz, dx=dx, pure=True,
            aqmds=(0 == n - dx - dz + 2),
        )

    wt2, d2 = _side_scan(C2, C1)
    wt1, d1 = _side_scan(C1, C2)
    dz, dx = max(wt2, wt1), min(wt2, wt1)
    pure = {dz, dx} == {d1, d2}
    return AqcParams(
        q=f.q, n=n, k=k, dz=dz, dx=dx, pure=pure,
        aqmds=(k == n - dx - dz + 2),
    )


def _side_scan(code: LinearCode, other: LinearCode) -> Tuple[Optional[int], int]:
    """(min weight of code \\ dual(other), min distance of code) for one side
    of a nested pair, from a single enumeration pass over `code`; the first
    is None when code lies inside dual(other)."""
    dist, dist_outside, _ = _scan_outside(code, other.G.data)
    return _lowest_weight(dist_outside), _lowest_weight(dist)


def pair_from_full_weight(C: LinearCode) -> NestedPair:
    """The CSS pair realizing the full-weight-codeword construction:
    C1 = dual of the line spanned by the first full-weight codeword, C2 = C."""
    if C.k < 2:
        raise DimensionTooSmall(f"need k >= 2, got k={C.k}")
    u = C.full_weight_codeword()
    if u is None:
        raise NoFullWeightWord(f"[{C.n},{C.k}]_{C.field.q} has no full-weight codeword")
    line = LinearCode(GfMatrix(C.field, u[None, :]))
    return make_pair(line.dual(), C)


def from_full_weight(C: LinearCode) -> AqcParams:
    """Quantum code [[n, k-1, d_z/2]] from a code with a full-weight codeword."""
    return css_construct(pair_from_full_weight(C))
