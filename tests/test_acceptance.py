"""Acceptance suite: nine end-to-end criteria, one pass/fail line each.

Several criteria enumerate code spaces above the default 10^7-codeword
cap (largest: 9^9 ~ 3.9e8 words); those calls run with AQMDS_MAX_ENUM
raised to BIG_CAP, the one way to set the cap.
"""
import json
import os
import random
import subprocess
import sys
from unittest import mock

import numpy as np

from aqmds.catalog import CatalogQuery, enumerate_catalog, exists, verify
from aqmds.code import extend_by_codeword, from_generator, is_subcode
from aqmds.construct import (
    GrsSpec,
    extended_grs,
    grs,
    grs_subcode_irreducible,
    ones,
    q_plus_2_high,
    q_plus_2_low,
    _q_plus_2_check_matrix,
)
from aqmds.css import css_construct, from_full_weight, make_pair
from aqmds.gf import find_irreducible, make_field
from aqmds.matrix import GfMatrix, first_singular_k_subset, mat_mul, transpose

import th14_expansion

BIG_CAP = 5 * 10 ** 8  # covers the largest acceptance-side enumeration, 9^9


def big_cap():
    """Context in which AQMDS_MAX_ENUM is BIG_CAP."""
    return mock.patch.dict(os.environ, {"AQMDS_MAX_ENUM": str(BIG_CAP)})


def report(num: int, desc: str, ok: bool, detail: str = ""):
    tail = f" ({detail})" if detail else ""
    print(f"\nacceptance criterion {num} [{desc}]: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {num} failed: {desc} {detail}"


def test_criterion_1_nested_grs_sweep():
    checked = 0
    ok = True
    for q in (3, 4, 5, 7, 8, 9):
        f = make_field(q)
        for n in range(3, q + 1):
            for k in range(1, n - 1):
                for j in range(1, n - k):
                    if q ** (k + j) > 10 ** 6:
                        break
                    pair = make_pair(grs(GrsSpec(f, n, k)).dual(),
                                     grs(GrsSpec(f, n, k + j)))
                    with big_cap():
                        p = css_construct(pair)
                    good = (p.k == j
                            and {p.dz, p.dx} == {n - k - j + 1, k + 1}
                            and p.pure
                            and p.k == p.n - p.dx - p.dz + 2)
                    ok = ok and good
                    checked += 1
    report(1, "nested GRS sweep", ok and checked > 100, f"{checked} instances exact")


def test_criterion_2_subcode_sweep():
    checked = 0
    ok = True
    for q in (4, 5, 7, 8, 9):
        f = make_field(q)
        for k in range(3, q + 1):
            for j in range(2, k):
                if q ** (k + j) > 10 ** 6:
                    break
                sub = grs_subcode_irreducible(f, k, k - j, find_irreducible(f, j))
                amb = extended_grs(f, k)
                if not is_subcode(sub, amb):
                    ok = False
                with big_cap():
                    p = css_construct(make_pair(sub.dual(), amb))
                good = (p.k == j and {p.dz, p.dx} == {q - k + 2, k - j + 1})
                ok = ok and good
                checked += 1
    report(2, "irreducible-subcode sweep", ok and checked >= 10,
           f"{checked} instances exact")


def test_criterion_3_length_q_plus_2():
    ok = True
    for q in (4, 8, 16):
        f = make_field(q)
        low, high = q_plus_2_low(f), q_plus_2_high(f)
        H = _q_plus_2_check_matrix(f, ones(q + 2))
        if np.any(mat_mul(low.G, transpose(H)).data):
            ok = False
        pair = make_pair(low.dual(), high)
        if q in (4, 8):
            p = css_construct(pair)  # 8^7 codewords per side at most
            ok = ok and (p.n, p.k, p.dz, p.dx) == (q + 2, q - 4, 4, 4)
        else:
            # q = 16: MDS oracles + nesting only; enumeration capped
            ok = ok and low.is_mds() and high.is_mds()
            ok = ok and is_subcode(low, high)
            ok = ok and pair.quantum_k == q - 4
            ok = ok and pair.quantum_k == (q + 2) - 4 - 4 + 2
    report(3, "length q+2 pair, q in {4,8,16}", ok)


def test_criterion_4_j1_at_length_q_plus_1():
    ok = True
    positives = 0
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16):
        for dx in range(2, (q + 2) // 2 + 1):
            dz = q + 2 - dx  # quantum-Singleton-tight at j = 1
            r = exists(q, q + 1, 1, dz, dx)
            expected = q in (4, 8, 16) and {dz, dx} == {3, q - 1}
            if r.exists != expected:
                ok = False
            if r.exists:
                positives += 1
                cert = r.certificate
                if cert.recipe.get("construction") != "COR10":
                    ok = False
                if not verify(cert).verified:
                    ok = False
    report(4, "j=1 at length q+1 exclusivity", ok and positives == 3,
           f"{positives} positive certificates replayed")


def test_criterion_5_shorten_puncture_extend_round_trip():
    rng = random.Random(2024)
    passed = 0
    for _ in range(100):
        q = rng.choice([3, 4, 5, 7, 8, 9])
        f = make_field(q)
        n = rng.randrange(3, q + 1)
        k = rng.randrange(2, n)
        pts = list(range(q))
        rng.shuffle(pts)
        v = tuple(rng.randrange(1, q) for _ in range(n))
        D = grs(GrsSpec(f, n, k, tuple(pts[:n]), v))
        S = D.shorten(n - 1)
        P = D.puncture(n - 1)
        if not is_subcode(S, P):
            continue
        E = extend_by_codeword(S, P)
        if not ((E.n, E.k) == (n, k) and E.is_mds()):
            continue
        if E.shorten(0) == S:  # new coordinate sits first in the block matrix
            passed += 1
    report(5, "shorten/puncture/extend round trip", passed == 100, f"{passed}/100")


def _dichotomy_code_pool():
    """MDS codes from the criterion 1-3 families with q^k <= 10^5."""
    pool = []
    for q in (3, 4, 5, 7, 8, 9):
        f = make_field(q)
        for n in range(2, q + 1):
            for k in range(1, n + 1):
                if q ** k <= 10 ** 5:
                    pool.append(grs(GrsSpec(f, n, k)))
                if q ** (n - k) <= 10 ** 5 and k < n:
                    pool.append(grs(GrsSpec(f, n, k)).dual())
    for q in (4, 5, 7, 8, 9):
        f = make_field(q)
        for k in range(3, q + 1):
            if q ** k <= 10 ** 5:
                pool.append(extended_grs(f, k))
            for r in range(1, k - 1):
                if q ** r <= 10 ** 5:
                    pool.append(grs_subcode_irreducible(f, k, r, find_irreducible(f, k - r)))
    for q in (4, 8, 16):
        f = make_field(q)
        if q ** 3 <= 10 ** 5:
            pool.append(q_plus_2_low(f))
        if q ** (q - 1) <= 10 ** 5:
            pool.append(q_plus_2_high(f))
    return pool


def test_criterion_6_full_weight_dichotomy():
    ok = True
    # exceptional family 1: duals of odd-length binary repetition codes
    f2 = make_field(2)
    for n in (3, 5, 7, 9):
        C = from_generator(GfMatrix(f2, np.ones((1, n), dtype=np.uint8))).dual()
        if C.full_weight_codeword() is not None:
            ok = False
    # exceptional family 2: a [5,2,4]_4 simplex code
    f4 = make_field(4)
    simplex = from_generator(GfMatrix(f4, [[1, 0, 1, 1, 1], [0, 1, 1, 2, 3]]))
    if simplex.full_weight_codeword() is not None:
        ok = False
    # every other MDS code from the criterion 1-3 families has a witness,
    # except those sharing the simplex parameters [q+1, 2, q]
    checked = 0
    for C in _dichotomy_code_pool():
        u = C.full_weight_codeword()
        simplex_shaped = C.n == C.field.q + 1 and C.k == 2
        if simplex_shaped:
            if u is not None:
                ok = False
        else:
            if u is None or np.count_nonzero(u) != C.n:
                ok = False
        checked += 1
    report(6, "full-weight codeword dichotomy", ok and checked > 100,
           f"{checked} codes checked")


def test_criterion_7_dx_2_family_spot_checks():
    ok = True
    for n in (4, 6, 8):  # [[n, n-2, 2/2]]_2, even length
        C = from_generator(GfMatrix(make_field(2), np.ones((1, n), dtype=np.uint8))).dual()
        p = from_full_weight(C)
        ok = ok and (p.n, p.k, p.dz, p.dx) == (n, n - 2, 2, 2) and p.aqmds
    for q in (3, 4, 5):  # [[n, n-2, 2/2]]_q for short lengths
        f = make_field(q)
        for n in range(3, q + 1):
            p = from_full_weight(grs(GrsSpec(f, n, n - 1)))
            ok = ok and (p.n, p.k, p.dz, p.dx) == (n, n - 2, 2, 2) and p.aqmds
    for q in (4, 8):  # [[q+2, 2, q/2]] and [[q+2, q-2, 4/2]]
        f = make_field(q)
        with big_cap():
            p_low = from_full_weight(q_plus_2_low(f))
        ok = ok and (p_low.n, p_low.k, p_low.dz, p_low.dx) == (q + 2, 2, q, 2)
        ok = ok and p_low.aqmds
        with big_cap():
            p_high = from_full_weight(q_plus_2_high(f))
        ok = ok and (p_high.n, p_high.k, p_high.dz, p_high.dx) == (q + 2, q - 2, 4, 2)
        ok = ok and p_high.aqmds
    report(7, "d_x = 2 family spot checks", ok)


def test_criterion_8_mds_oracle_agreement():
    rng = random.Random(99)
    codes = list(_dichotomy_code_pool())
    for _ in range(150):  # add deliberately arbitrary (often non-MDS) codes
        q = rng.choice([2, 3, 4, 5, 7])
        n = rng.randrange(2, 8)
        k = rng.randrange(1, n + 1)
        f = make_field(q)
        data = [[rng.randrange(q) for _ in range(n)] for _ in range(k)]
        M = GfMatrix(f, data)
        try:
            codes.append(from_generator(M))
        except Exception:
            continue
    checked = 0
    ok = True
    for C in codes:
        if C.field.q ** C.k > 10 ** 5:
            continue
        enum_says = C.min_distance() == C.n - C.k + 1
        oracle_says = first_singular_k_subset(C.G, C.k) is None
        if enum_says != oracle_says:
            ok = False
        checked += 1
    report(8, "two independent MDS oracles agree", ok and checked >= 300,
           f"{checked} codes compared")


def test_criterion_9_catalog_determinism_and_golden_count():
    cmd = [sys.executable, "-m", "aqmds.cli", "enumerate", "--q", "5", "--format", "json"]
    run1 = subprocess.run(cmd, capture_output=True, check=True).stdout
    run2 = subprocess.run(cmd, capture_output=True, check=True).stdout
    deterministic = run1 == run2 and len(run1) > 0
    certs4 = enumerate_catalog(CatalogQuery(q=4))
    frozen_ok = len(certs4) == th14_expansion.GOLDEN_COUNT_Q4
    script_ok = len(th14_expansion.expand(4)) == th14_expansion.GOLDEN_COUNT_Q4
    tuples_match = ({(c.params.n, c.params.k, c.params.dz, c.params.dx) for c in certs4}
                    == th14_expansion.expand(4))
    report(9, "catalog determinism + frozen golden count",
           deterministic and frozen_ok and script_ok and tuples_match,
           f"q=4 count {len(certs4)}")
