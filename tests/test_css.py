"""Asymmetric CSS construction: pairs, quantum parameters, full-weight path."""
import random

import numpy as np
import pytest

from aqmds.catalog import build_pair_from_recipe, exists
from aqmds.code import from_generator, full_space
from aqmds.construct import GrsSpec, grs, q_plus_2_high, q_plus_2_low
from aqmds.css import (
    NestedPair,
    css_construct,
    from_full_weight,
    make_pair,
    pair_from_full_weight,
)
from aqmds.errors import AqmdsError, CapExceeded
from aqmds.gf import make_field
from aqmds.matrix import GfMatrix

from test_code import random_code, simplex_5_2_gf4


class TestMakePair:
    def test_nested_grs_pair(self):
        f = make_field(5)
        pair = make_pair(grs(GrsSpec(f, 5, 2)).dual(), grs(GrsSpec(f, 5, 3)))
        assert pair.quantum_k == 1

    def test_not_nested(self):
        f = make_field(5)
        with pytest.raises(AqmdsError, match=r"dual\(C1\) not contained in C2"):
            make_pair(grs(GrsSpec(f, 5, 3)).dual(), grs(GrsSpec(f, 5, 2)))
        # the pair type itself proves the nesting: no unproven pair can be made
        with pytest.raises(AqmdsError, match=r"witness row \[1, 0, 0, 1, 3\]"):
            NestedPair(grs(GrsSpec(f, 5, 3)).dual(), grs(GrsSpec(f, 5, 2)))

    @pytest.mark.parametrize("zero_side", ["C1", "C2"])
    def test_zero_code_refused(self, zero_side):
        # (zero, full space) and (full space, zero) are nested k = 0 pairs, but
        # the zero code has no minimum distance
        full = full_space(make_field(3), 3)
        c1, c2 = (full.dual(), full) if zero_side == "C1" else (full, full.dual())
        with pytest.raises(AqmdsError, match=f"^{zero_side} is the zero code"):
            make_pair(c1, c2)

    def test_binary_even_weight_pair(self):
        f = make_field(2)
        rep = from_generator(GfMatrix(f, np.ones((1, 4), dtype=np.uint8)))
        even = rep.dual()
        pair = make_pair(even, even)  # dual(even) = <1111> has even weight
        assert pair.quantum_k == 2

    def test_length_mismatch(self):
        f = make_field(5)
        with pytest.raises(AqmdsError, match="lengths differ: 5 != 4"):
            make_pair(grs(GrsSpec(f, 5, 2)), grs(GrsSpec(f, 4, 2)))


class TestCssConstruct:
    def test_nested_grs_5_1_3_3(self):
        f = make_field(5)
        p = css_construct(make_pair(grs(GrsSpec(f, 5, 2)).dual(), grs(GrsSpec(f, 5, 3))))
        assert (p.n, p.k, p.dz, p.dx) == (5, 1, 3, 3)
        assert p.pure and p.aqmds
        assert str(p) == "[[5,1,3/3]]_5 pure AQMDS"

    def test_code_against_full_space(self):
        f = make_field(5)
        C = grs(GrsSpec(f, 5, 2))
        p = css_construct(make_pair(C, full_space(f, 5)))
        assert (p.n, p.k, p.dz, p.dx) == (5, 2, 4, 1)
        assert p.pure and p.aqmds

    def test_zero_dimensional_pure_by_convention(self):
        f = make_field(5)
        C = grs(GrsSpec(f, 5, 2))
        p = css_construct(make_pair(C.dual(), C))
        assert (p.n, p.k) == (5, 0)
        assert {p.dz, p.dx} == {4, 3}
        assert p.pure and p.aqmds

    def test_zero_dimensional_distances_over_the_cap(self, monkeypatch):
        # 9^5 words exceed the cap, so the distances of the self-dual
        # [10,5]_9 code come from its MDS proof, and equal the scanned ones
        pair = build_pair_from_recipe(exists(9, 10, 0, 6, 6).certificate.recipe)
        scanned = css_construct(pair)
        monkeypatch.setenv("AQMDS_MAX_ENUM", "1000")
        assert css_construct(pair) == scanned
        assert str(scanned) == "[[10,0,6/6]]_9 pure AQMDS"
        # [I | I] over GF(3) has weight-2 words: 3^7 words, and no MDS proof
        C = from_generator(GfMatrix(make_field(3), np.hstack([np.eye(7, dtype=np.uint8)] * 2)))
        with pytest.raises(CapExceeded):
            css_construct(make_pair(C.dual(), C))

    def test_dz_at_least_dx(self):
        rng = random.Random(41)
        for _ in range(20):
            q = rng.choice([2, 3, 4, 5])
            n = rng.randrange(2, 7)
            k2 = rng.randrange(1, n + 1)
            C2 = random_code(rng, q, n, k2)
            # C1 = dual of a random subcode of C2 -> dual(C1) inside C2
            rows = C2.G.data[: rng.randrange(1, k2 + 1)]
            C1 = from_generator(GfMatrix(C2.field, rows)).dual()
            if C1.k == 0:  # rows span C2 = the full space: a pair refuses it
                continue
            p = css_construct(make_pair(C1, C2))
            assert p.dz >= p.dx
            # quantum Singleton bound with <=, not just equality
            assert p.k <= p.n - p.dx - p.dz + 2


class TestFromFullWeight:
    def test_grs_5_3_gf5(self):
        f = make_field(5)
        p = from_full_weight(grs(GrsSpec(f, 5, 3)))
        assert (p.n, p.k, p.dz, p.dx) == (5, 2, 3, 2)
        assert p.aqmds

    def test_length_q_plus_2_low_gf4(self):
        p = from_full_weight(q_plus_2_low(make_field(4)))
        assert (p.n, p.k, p.dz, p.dx) == (6, 2, 4, 2)
        assert p.aqmds

    def test_simplex_has_no_witness(self):
        with pytest.raises(AqmdsError, match=r"\[5,2\]_4 has no full-weight codeword"):
            from_full_weight(simplex_5_2_gf4())

    def test_dimension_too_small(self):
        f = make_field(5)
        with pytest.raises(AqmdsError, match="need k >= 2, got k=1"):
            from_full_weight(grs(GrsSpec(f, 5, 1)))

    def test_pair_shape(self):
        f = make_field(7)
        C = grs(GrsSpec(f, 6, 3))
        pair = pair_from_full_weight(C)
        assert pair.c2 == C
        assert pair.c1.k == C.n - 1  # dual of the witness line
        assert pair.quantum_k == C.k - 1


class TestClosedForms:
    def test_nested_grs_formula_spot(self):
        # {dz, dx} = {n-k-j+1, k+1} on a small sample of the sweep range
        for (q, n, k, j) in [(4, 4, 1, 2), (5, 5, 2, 2), (7, 6, 2, 3), (8, 7, 3, 2)]:
            f = make_field(q)
            p = css_construct(
                make_pair(grs(GrsSpec(f, n, k)).dual(), grs(GrsSpec(f, n, k + j))))
            assert p.k == j
            assert {p.dz, p.dx} == {n - k - j + 1, k + 1}
            assert p.pure and p.aqmds

    def test_length_q_plus_2_pair_gf4(self):
        # quantum dimension q-4 = 0 at q = 4
        f = make_field(4)
        p = css_construct(make_pair(q_plus_2_low(f).dual(), q_plus_2_high(f)))
        assert (p.n, p.k, p.dz, p.dx) == (6, 0, 4, 4)
        assert p.pure and p.aqmds
