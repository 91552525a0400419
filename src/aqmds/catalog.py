"""Classification catalog of pure CSS AQMDS parameters for a given q.

The admissible parameter tuples [[n, j, dz/dx]]_q form seven overlapping
classification cases, each one predicate on (q, n, k, j) in one table.
The enumerator scans the tuples of the conjecture-bounded length range
(n <= q+1 for odd q, n <= q+2 for even q) and emits one certificate per
tuple that a case reaches; exists and the family check test a single
tuple against the table.  A certificate carries a
replayable construction recipe plus the log of verification oracles that
were run on the rebuilt pair.  One function decides whether a
certificate is true: make_certificate sets `verified` from its checks,
and verify raises the first one that fails.

Family tags:
    PROP5  d_x = 1: an MDS code against the full space
    PROP6  j = 0: a code against its own dual
    TH7    nested GRS pair, length <= q
    TH8    irreducible-polynomial subcode inside the extended GRS code,
           length q+1, j >= 2
    COR10  length q+1, j = 1, even q: shorten/puncture of the length-(q+2)
           dimension-3 code
    TH11   length q+2, dz = dx = 4 nested pair
    TH12   full-weight-codeword construction, d_x = 2
"""
from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from .code import LinearCode, from_generator, full_space
from .css import (AqcParams, NestedPair, _quantum_distances, make_pair, pair_from_full_weight,
                  pair_sides)
from .errors import AqmdsError, CapExceeded, NotPrimePower, VerificationFailed
from .gf import FIELD_CAP, FiniteField, _factor_prime_power, find_irreducible, make_field
from .matrix import GfMatrix
from .construct import (
    default_alpha,
    extended_grs,
    grs,
    grs_subcode_irreducible,
    ones,
    q_plus_2_high,
    q_plus_2_low,
)

FAMILY_TAGS = ("PROP5", "PROP6", "TH7", "TH8", "COR10", "TH11", "TH12")
VERIFY_LEVELS = ("closed_form", "full_oracle")


def _check_level(verify_level: str) -> None:
    if verify_level not in VERIFY_LEVELS:
        raise AqmdsError(f"verify_level must be one of {VERIFY_LEVELS}")


@dataclass
class Certificate:
    """Replayable construction recipe plus verified quantum parameters."""

    params: AqcParams
    family: List[str]
    recipe: Dict
    verified: bool
    oracle_log: List[str]


@dataclass
class CatalogQuery:
    q: int
    n: Optional[int] = None
    j: Optional[int] = None
    dz: Optional[int] = None
    dx: Optional[int] = None
    dx_min: Optional[int] = None
    verify_level: str = "closed_form"

    def __post_init__(self):
        _check_level(self.verify_level)
        for name in ("n", "j", "dz", "dx"):
            val = getattr(self, name)
            if val is not None and not 0 <= val <= self.q + 2:
                raise AqmdsError(f"filter {name}={val} outside [0, q+2]")


@dataclass
class ExistsResult:
    exists: bool
    certificate: Optional[Certificate]
    reason: str


def length_bound(q: int) -> int:
    """Conjecture-conditional maximum length: q+1 for odd q, q+2 for even q."""
    return q + 2 if q % 2 == 0 else q + 1


# -- the seven classification cases -------------------------------------------


# (tag, predicate on (q, n, k, j)) per case, in classification order, which
# picks the recipe of a tuple that several cases reach.  k is the classical
# dimension parameter: the case encodes [[n, j, dz/dx]] with
# {dz, dx} = {n-k-j+1, k+1}.  A predicate may assume 1 <= k <= n-1 and
# 0 <= j <= n-k; q is a prime power, so q % 2 == 0 means q = 2^m.
_CASES: Tuple[Tuple[str, Callable[[int, int, int, int], bool]], ...] = (
    # case 1, trivial MDS pairs, all PROP5/6
    ("PROP5", lambda q, n, k, j: k in (1, n - 1) and j in (0, n - k)),
    ("TH12", lambda q, n, k, j: q == 2 and n % 2 == 0 and k == 1 and j == n - 2),  # case 2
    ("TH12", lambda q, n, k, j: q >= 3 and k == 1 and j == n - 2),  # case 3
    ("TH7", lambda q, n, k, j: q >= 3 and n <= q),  # case 4
    ("TH8", lambda q, n, k, j: q >= 3 and n == q + 1 and j != 1),  # case 5
    ("COR10", lambda q, n, k, j: (q % 2 == 0 and q >= 4 and n == q + 1
                                  and j == 1 and k in (2, q - 2))),  # case 6
    # case 7, by TH12 at k = 1, by TH11, and by TH12 at k = q-1
    ("TH12", lambda q, n, k, j: (q % 2 == 0 and q >= 4 and n == q + 2
                                 and k == 1 and j in (2, q - 2))),
    ("TH11", lambda q, n, k, j: (q % 2 == 0 and q >= 4 and n == q + 2
                                 and k == 3 and j in (0, q - 4, q - 1))),
    ("TH12", lambda q, n, k, j: (q % 2 == 0 and q >= 4 and n == q + 2
                                 and k == q - 1 and j in (0, 3))),
)


def _tuple_of(n: int, k: int, j: int) -> Tuple[int, int, int, int]:
    a, b = n - k - j + 1, k + 1
    return (n, j, max(a, b), min(a, b))


def _cases_reaching(q: int, n: int, j: int, dz: int, dx: int) -> List[Tuple[str, int, int, int]]:
    """Every case (tag, n, k, j) that reaches the tuple (n, j, dz, dx), dz >= dx,
    over GF(q), in classification order: the tuple's certificate carries the
    first one's recipe.  k is dx-1 or dz-1, smaller first, as within a case."""
    if dz < dx or j != n - dz - dx + 2:  # neither candidate k gives back this tuple
        return []
    ks = [k for k in sorted({dx - 1, dz - 1}) if 1 <= k <= n - 1 and 0 <= j <= n - k]
    return [
        # j = 0 pairs a code with its dual, and dx = 1 pairs one with the full space
        ("PROP6" if j == 0 else "PROP5" if j == n - k else tag, n, k, j)
        for tag, holds in _CASES for k in ks if holds(q, n, k, j)
    ]


# -- recipes ------------------------------------------------------------------


def _mds_source(q: int, n: int, k: int) -> Dict:
    """Canonical construction recipe for an MDS [n, k, n-k+1]_q code."""
    if not 1 <= k <= n:
        raise AqmdsError(f"no MDS code with k={k}, n={n}")
    if k == n:
        return {"type": "full", "n": n}
    if k == 1:
        return {"type": "repetition", "n": n}
    if k == n - 1:
        return {"type": "repetition_dual", "n": n}
    if n <= q:
        return {"type": "grs", "n": n, "k": k,
                "alpha": list(default_alpha(make_field(q), n)), "v": list(ones(n))}
    if n == q + 1:
        return {"type": "extended_grs", "k": k,
                "alpha": list(default_alpha(make_field(q), q)), "v": list(ones(q + 1))}
    if n == q + 2 and q % 2 == 0 and k == 3:
        return {"type": "qplus2_low", "v": list(ones(q + 2))}
    if n == q + 2 and q % 2 == 0 and k == q - 1:
        return {"type": "qplus2_high", "v": list(ones(q + 2))}
    raise AqmdsError(f"no known MDS construction for [{n},{k}]_{q}")


def _designated_recipe(q: int, tag: str, n: int, k: int, j: int) -> Dict:
    """Construction recipe for the (tag, k, j) realization of a tuple, tag
    one of FAMILY_TAGS."""
    f = make_field(q)
    base = {"q": q, "n": n, "j": j, "alpha_convention": "zero_last"}
    if tag == "PROP6":
        return {**base, "construction": "PROP6", "k": k, "code": _mds_source(q, n, k)}
    if tag == "PROP5":
        # C1 is an MDS code of dimension j, C2 the full space
        return {**base, "construction": "PROP5", "k": j, "code": _mds_source(q, n, j)}
    if tag == "TH7":
        return {**base, "construction": "TH7", "k": k,
                "alpha": list(default_alpha(f, n)), "v": list(ones(n))}
    if tag == "TH8":
        kk = k + j  # dimension of the ambient extended GRS code
        return {**base, "construction": "TH8", "k": kk, "r": kk - j,
                "alpha": list(default_alpha(f, q)), "v": list(ones(q + 1)),
                "irreducible": list(find_irreducible(f, j))}  # degree j = k - r
    if tag == "COR10":
        return {**base, "construction": "COR10", "k": k, "v": list(ones(q + 2))}
    if tag == "TH11":
        return {**base, "construction": "TH11", "k": 3, "v": list(ones(q + 2))}
    # TH12, the one tag left: C2 is the [n, j+1] MDS source, n-1 for cases
    # 2/3, the length-(q+2) dimension-3 or dimension-(q-1) code for case 7
    return {**base, "construction": "TH12", "k": k, "source": _mds_source(q, n, j + 1)}


def _length(n: int) -> int:
    """A length a recipe supplies, rejected before anything is allocated when
    it is below 1 or exceeds q+2 for every accepted q."""
    if n < 1:
        raise AqmdsError(f"length {n} is not positive")
    if n > FIELD_CAP + 2:
        raise CapExceeded(f"length {n} exceeds {FIELD_CAP + 2}, the longest code of any field")
    return n


class CodeStore:
    """The codes and MDS verdicts of one run, shared by its certificates.

    A run is one enumerate_catalog call, one `aqmds verify` of a file, or
    one call of any other public function, which makes a fresh store.  A
    code is keyed by its builder and the repr of the builder's arguments:
    unlike ==, repr tells 1, 1.0 and True apart, so a recipe gets the code
    its own arguments build.  A verdict is keyed by the code's matrices, never
    by the recipe that claims it.  A code with 0 < k < n is MDS exactly
    when its dual is, so the proof LinearCode.is_mds runs on C's canonical
    G is filed under both that G and C's H, the canonical G of dual(C).
    Shared codes are never changed in place; their matrices are read-only.
    """

    def __init__(self):
        self._codes: Dict[Tuple, LinearCode] = {}
        self._mds: Dict[GfMatrix, bool] = {}

    def code(self, build: Callable[..., LinearCode], *args) -> LinearCode:
        """build(*args), built once per run."""
        key = (build, repr(args))
        if key not in self._codes:
            self._codes[key] = build(*args)
        return self._codes[key]

    def is_mds(self, C: LinearCode) -> bool:
        """C.is_mds(), proven once per run for each code and its dual."""
        verdict = self._mds.get(C.G)
        if verdict is None:
            verdict = self._mds[C.G] = C.is_mds()
            if 0 < C.k < C.n:
                self._mds[C.H] = verdict
        return verdict


def _repetition(f: FiniteField, n: int) -> LinearCode:
    return from_generator(GfMatrix(f, np.ones((1, n), dtype=np.uint8)))


def _build_source(f: FiniteField, src: Dict, store: CodeStore) -> LinearCode:
    kind = src.get("type")
    if kind == "full":
        return store.code(full_space, f, _length(src["n"]))
    if kind in ("repetition", "repetition_dual"):
        rep = store.code(_repetition, f, _length(src["n"]))
        return rep if kind == "repetition" else rep.dual()
    if kind == "grs":
        return store.code(grs, f, src["n"], src["k"], src["alpha"], src["v"])
    if kind == "extended_grs":
        return store.code(extended_grs, f, src["k"], src["alpha"], src["v"])
    if kind == "qplus2_low":
        return store.code(q_plus_2_low, f, src["v"])
    if kind == "qplus2_high":
        return store.code(q_plus_2_high, f, src["v"])
    raise AqmdsError(f"unknown source type {kind!r}")


def _integers(d: Dict, names: Tuple[str, ...], what: str):
    """Refuse a number of `d` that is not an int: a float or a bool compares
    equal to the int it stands for, so it would pass a check and be echoed."""
    for name in names:
        if name in d and type(d[name]) is not int:
            raise AqmdsError(f"{what} {name} must be an integer, got {d[name]!r}")


def _arrays(d: Dict):
    """Refuse an `alpha` or `v` of `d` that is not an array: a builder reads
    None as its default, which the recipe would then not state."""
    for name in ("alpha", "v"):
        if name in d and type(d[name]) is not list:
            raise AqmdsError(f"recipe {name} must be an array, got {d[name]!r}")


def build_pair_from_recipe(recipe: Dict, *, store: Optional[CodeStore] = None) -> NestedPair:
    """Rebuild the classical nested pair described by a certificate recipe,
    taking the codes the run already built from `store`.

    Each construction reads `q` and: PROP5 `code`, `n`; PROP6 `code`; TH7
    `n`, `k`, `j`, `alpha`, `v`; TH8 `k`, `r`, `irreducible`, `alpha`, `v`;
    COR10 and TH11 `v`; TH12 `source`.  An unread `k` stays unchecked: its
    edit rebuilds the same pair, and old css records, which must verify,
    carry a TH12 `k` of 3 and a COR10 `k` of 1.
    """
    store = store or CodeStore()
    try:
        for part in (recipe, recipe.get("code"), recipe.get("source")):
            _integers(part or {}, ("q", "n", "k", "j", "r"), "recipe")
            _arrays(part or {})
        q = recipe["q"]
        construction = recipe["construction"]
        f = make_field(q)
        if construction == "PROP5":
            code = _build_source(f, recipe["code"], store)
            return make_pair(code, store.code(full_space, f, _length(recipe["n"])))
        if construction == "PROP6":
            code = _build_source(f, recipe["code"], store)
            return make_pair(code.dual(), code)
        if construction == "TH7":
            n, k, alpha, v = recipe["n"], recipe["k"], recipe["alpha"], recipe["v"]
            # the arguments a grs source passes, so the two share a code
            c_low = store.code(grs, f, n, k, alpha, v)
            c_high = store.code(grs, f, n, k + recipe["j"], alpha, v)
            return make_pair(c_low.dual(), c_high)
        if construction == "TH8":
            k, alpha, v = recipe["k"], recipe["alpha"], recipe["v"]
            sub = store.code(grs_subcode_irreducible, f, k, recipe["r"], recipe["irreducible"], alpha, v)
            # the arguments an extended_grs source passes, so the two share a code
            return make_pair(sub.dual(), store.code(extended_grs, f, k, alpha, v))
        if construction == "COR10":
            d = store.code(q_plus_2_low, f, recipe["v"])
            shortened = d.shorten(d.n - 1)
            punctured = d.puncture(d.n - 1)
            return make_pair(shortened.dual(), punctured)
        if construction == "TH11":
            low = store.code(q_plus_2_low, f, recipe["v"])
            high = store.code(q_plus_2_high, f, recipe["v"])
            return make_pair(low.dual(), high)
        if construction == "TH12":
            return pair_from_full_weight(_build_source(f, recipe["source"], store))
        raise AqmdsError(f"unknown construction {construction!r}")
    except (AttributeError, KeyError, TypeError) as exc:  # a part of the wrong shape
        raise AqmdsError(f"malformed recipe: {exc}") from exc


# -- verification oracles -----------------------------------------------------


def run_oracles(claimed: AqcParams, pair: NestedPair, level: str,
                *, store: Optional[CodeStore] = None):
    """Run verification oracles against the rebuilt pair.

    Returns (verified, oracle_log).  Oracles that would exceed the
    enumeration cap are marked skipped, never silently passed.  `nesting`
    records the proof that made the pair.  Every MDS verdict, those behind
    the j = 0 distances included, comes from `store`, which proves each
    code and its dual once between them.
    """
    store = store or CodeStore()
    log: List[str] = []

    def record(name: str, passed: bool):
        log.append(f"{name}:{'pass' if passed else 'FAIL'}")

    record("nesting", True)  # a NestedPair proves its nesting when it is made
    # for j = 0, dual(C1) = C2: the store proves their one matrix once
    record("mds_dual_c1", store.is_mds(pair.c1.dual()))
    record("mds_c2", store.is_mds(pair.c2))
    record("dimensions", pair.quantum_k == claimed.k)
    record("singleton_equality",
           claimed.k == claimed.n - claimed.dx - claimed.dz + 2)

    if level == "full_oracle":
        # at j = 0, C1 = dual(C2): the one proof of mds_dual_c1 and mds_c2
        # is already filed for both codes
        sides = pair_sides(pair, store.is_mds)
        if claimed.k:
            for name, side in zip(("distance_c2_side", "distance_c1_side"), sides):
                if isinstance(side, CapExceeded):
                    log.append(f"{name}:skipped(cap)")
                else:
                    record(name, side[0] in (claimed.dz, claimed.dx))
        found = _quantum_distances(claimed.k, sides)
        if found:
            record("distances_exact", found[:2] == (claimed.dz, claimed.dx))
            if claimed.k:
                record("purity", found[2])
        elif not claimed.k:
            log.append("distances_exact:skipped(cap)")
    return not any(e.endswith(":FAIL") for e in log), log


def _family_holds(claimed: AqcParams, family: List[str], construction: str) -> bool:
    """Whether `family` holds the construction and otherwise only tags of
    the cases that reach the claimed tuple."""
    others = set(family) - {construction}
    dz, dx = max(claimed.dz, claimed.dx), min(claimed.dz, claimed.dx)
    return construction in family and (not others or others <= {
        tag for tag, *_ in _cases_reaching(claimed.q, claimed.n, claimed.k, dz, dx)})


def _failed_checks(claimed: AqcParams, family: List[str], recipe: Dict, level: str,
                   store: CodeStore) -> Tuple[List[str], List[str]]:
    """Check a claimed header against the pair rebuilt from `recipe`.

    In order: the header (q, n, pure, aqmds) against the pair, the recipe's
    n and j, which not every construction reads, against the pair's length
    and quantum dimension, the header's family, the oracles of run_oracles,
    and, once those pass, the ordered (dz, dx) against the
    distances n-k1+1 and n-k2+1 of the two proven MDS codes, which are the
    quantum distances for every j, even where the distance oracles skipped.
    Returns the names of the failed checks in that order, and the oracle
    log, which is empty when the header already fails.
    """
    pair = build_pair_from_recipe(recipe, store=store)
    c1, c2 = pair.c1, pair.c2
    checks = {"header_q": claimed.q == c1.field.q, "header_n": claimed.n == c1.n,
              "header_pure": claimed.pure is True, "header_aqmds": claimed.aqmds is True,
              "recipe_n": recipe.get("n") == c1.n, "recipe_j": recipe.get("j") == pair.quantum_k}
    failed = [name for name, ok in checks.items() if not ok]
    if not failed and not _family_holds(claimed, family, recipe["construction"]):
        failed.append("header_family")
    if failed:
        return failed, []
    verified, log = run_oracles(claimed, pair, level, store=store)
    if not verified:
        return [e.split(":")[0] for e in log if e.endswith(":FAIL")], log
    d1, d2 = c1.n - c1.k + 1, c2.n - c2.k + 1
    if (claimed.dz, claimed.dx) != (max(d1, d2), min(d1, d2)):
        return ["mds_distances"], log
    return [], log


def make_certificate(
    q: int,
    n: int,
    j: int,
    dz: int,
    dx: int,
    tags: Iterable[str],
    recipe: Dict,
    verify_level: str = "closed_form",
    *,
    store: Optional[CodeStore] = None,
) -> Certificate:
    """Certificate of the claim [[n, j, dz/dx]]_q, pure and AQMDS, for the
    pair `recipe` builds; `verified` when every check of verify passes at
    `verify_level`."""
    _check_level(verify_level)
    claimed = AqcParams(q=q, n=n, k=j, dz=dz, dx=dx, pure=True, aqmds=True)
    family = sorted(tags, key=FAMILY_TAGS.index)
    failed, log = _failed_checks(claimed, family, recipe, verify_level, store or CodeStore())
    return Certificate(
        params=claimed,
        family=family,
        recipe=recipe,
        verified=not failed,
        oracle_log=log,
    )


def _certify(q: int, cases: List[Tuple[str, int, int, int]], verify_level: str,
             *, store: Optional[CodeStore] = None) -> Certificate:
    """make_certificate for the tuple that the (tag, n, k, j) cases reach,
    tagged with all of them, with the first one's recipe."""
    tag, n, k, j = cases[0]
    _, _, dz, dx = _tuple_of(n, k, j)
    return make_certificate(q, n, j, dz, dx, {tag for tag, *_ in cases},
                            _designated_recipe(q, tag, n, k, j), verify_level, store=store)


# -- public operations --------------------------------------------------------


def enumerate_catalog(query: CatalogQuery) -> List[Certificate]:
    """All admissible pure CSS AQMDS tuples for q, one certificate each.

    Each distinct tuple of the (n, k, j) grid is looked up in the case
    table once.  A tuple that several cases reach carries all their tags;
    its recipe comes from the first case in classification order.  Output is
    sorted by (n, j, dz, dx) and deterministic across runs.  The
    certificates share one CodeStore: each code is built once, and each
    code and its dual are proven MDS once between them.
    """
    q = query.q
    make_field(q)  # a q that is no prime power or over the cap is refused before any work
    grid = {_tuple_of(n, k, j) for n in range(2, length_bound(q) + 1) if query.n in (None, n)
            for k in range(1, n) for j in range(n - k + 1) if query.j in (None, j)}
    out = []
    store = CodeStore()
    for (n, j, dz, dx) in sorted(grid):
        if query.dz is not None and query.dx is not None:
            if {dz, dx} != {query.dz, query.dx}:
                continue
        elif query.dz is not None and query.dz not in (dz, dx):
            continue
        elif query.dx is not None and query.dx not in (dz, dx):
            continue
        if query.dx_min is not None and dx < query.dx_min:
            continue
        cases = _cases_reaching(q, n, j, dz, dx)
        if cases:
            out.append(_certify(q, cases, query.verify_level, store=store))
    return out


def exists(
    q: int,
    n: int,
    j: int,
    dz: int,
    dx: int,
    verify_level: str = "closed_form",
) -> ExistsResult:
    """Decide whether a pure CSS AQMDS [[n, j, dz/dx]]_q exists; {dz, dx} is
    treated as unordered.  Positive answers carry a constructive certificate
    unless building it exceeds a cap: AQMDS_MAX_ENUM bounds TH12's
    full-weight search, and oracles over it are logged skipped(cap)."""
    _check_level(verify_level)
    try:
        _factor_prime_power(q)  # CapExceeded from 2^32 on: no "no" for a q never tested
    except NotPrimePower:
        return ExistsResult(False, None, f"{q} is not a prime power")
    if min(dz, dx) < 1 or j < 0 or n < 1:
        return ExistsResult(False, None, "parameters out of range")
    dz, dx = max(dz, dx), min(dz, dx)
    # nontrivial MDS ingredients (distance outside {1, 2, n}) cap the length;
    # repetition codes, their duals, and the full space exist at any length
    if min(dz, dx) >= 3:
        if q % 2 == 1 and n > q + 1:
            return ExistsResult(False, None, "length exceeds q+1 for odd q")
        if n > q + 2:
            return ExistsResult(False, None, "length exceeds q+2")
    if j != n - dz - dx + 2:
        return ExistsResult(
            False, None,
            f"not quantum-Singleton-tight: j={j} != n-dz-dx+2={n - dz - dx + 2}",
        )
    cases = _cases_reaching(q, n, j, dz, dx)
    if not cases:
        if n == q + 1 and j == 1 and dx >= 2:
            reason = "j=1 at length q+1 requires even q and {dz,dx}={3,q-1}"
        else:
            reason = "parameters fall outside the classification"
        return ExistsResult(False, None, reason)
    try:
        cert = _certify(q, cases, verify_level)
    except CapExceeded as exc:
        return ExistsResult(True, None, f"exists; certificate construction skipped: {exc}")
    return ExistsResult(True, cert, "admitted by the classification")


def verify(cert: Certificate, *, store: Optional[CodeStore] = None) -> Certificate:
    """Rebuild the pair from the recipe and rerun every check at full_oracle.

    The checks are those of make_certificate: the header must agree with
    the rebuilt pair (field size and length), claim a pure AQMDS code, as
    every certificate made here does, and name the recipe's construction
    in a family of tags that reach the tuple; the recipe's n and j must be
    the pair's length and quantum dimension; the oracles must pass; and the
    claimed ordered (dz, dx) must equal the ordered distances of the two
    MDS codes ("mds_distances").  Returns a refreshed certificate; raises
    VerificationFailed naming the first failing header field, oracle or
    that check.  Idempotent on valid certificates.  Certificates verified
    through one `store` share its codes and MDS verdicts.
    """
    failed, log = _failed_checks(cert.params, cert.family, cert.recipe, "full_oracle",
                                 store or CodeStore())
    if failed:
        raise VerificationFailed(failed[0])
    return replace(cert, family=list(cert.family), verified=True, oracle_log=log)


# -- serialization ------------------------------------------------------------


def certificate_to_dict(cert: Certificate) -> Dict:
    p = cert.params
    return {
        "q": p.q,
        "n": p.n,
        "j": p.k,
        "dz": p.dz,
        "dx": p.dx,
        "pure": p.pure,
        "aqmds": p.aqmds,
        "family": list(cert.family),
        "recipe": cert.recipe,
        "verified": cert.verified,
        "oracle_log": list(cert.oracle_log),
    }


def certificate_from_dict(d: Dict) -> Certificate:
    try:
        _integers(d, ("q", "n", "j", "dz", "dx"), "certificate")
        family = d["family"]
        if not (type(family) is list and family and all(type(t) is str for t in family)
                and set(family) <= set(FAMILY_TAGS) and len(set(family)) == len(family)):
            raise AqmdsError(f"certificate family must be a non-empty list of distinct"
                             f" tags of {FAMILY_TAGS}, got {family!r}")
        recipe, verified, log = d["recipe"], d["verified"], d["oracle_log"]
        # checked, not coerced: "false" is truthy, a string splits into characters
        for name, value, ok, rule in (
                ("recipe", recipe, type(recipe) is dict, "an object"),
                ("verified", verified, type(verified) is bool, "true or false"),
                ("oracle_log", log, type(log) is list and all(type(e) is str for e in log),
                 "a list of strings")):
            if not ok:
                raise AqmdsError(f"malformed certificate: {name} must be {rule}, got {value!r}")
        params = AqcParams(
            q=d["q"], n=d["n"], k=d["j"], dz=d["dz"], dx=d["dx"],
            pure=d["pure"], aqmds=d["aqmds"],
        )
        return Certificate(
            params=params,
            family=list(family),
            recipe=dict(recipe),
            verified=verified,
            oracle_log=list(log),
        )
    except (KeyError, TypeError) as exc:
        raise AqmdsError(f"malformed certificate: {exc}") from exc


def certificates_to_json(certs: List[Certificate]) -> str:
    return json.dumps([certificate_to_dict(c) for c in certs], indent=2)
