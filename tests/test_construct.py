"""MDS builders: GRS, extended GRS, irreducible subcode, length q+2 pair."""
import random

import numpy as np
import pytest

from aqmds.code import from_generator, is_subcode
from aqmds.construct import (
    GrsSpec,
    default_alpha,
    extended_grs,
    grs,
    grs_subcode_irreducible,
    ones,
    q_plus_2_high,
    q_plus_2_low,
    _q_plus_2_check_matrix,
)
from aqmds.errors import AqmdsError
from aqmds.gf import _poly_mul, find_irreducible, make_field
from aqmds.matrix import GfMatrix, mat_mul, transpose


class TestDefaults:
    def test_zero_placed_last(self):
        f = make_field(5)
        assert default_alpha(f, 5) == (1, 2, 3, 4, 0)
        assert default_alpha(f, 3) == (1, 2, 3)

    def test_ones(self):
        assert ones(4) == (1, 1, 1, 1)


class TestGrs:
    def test_constant_polynomials_repetition(self):
        f = make_field(5)
        C = grs(GrsSpec(f, 5, 1))
        assert (C.n, C.k) == (5, 1) and C.min_distance() == 5

    def test_4_2_gf5(self):
        f = make_field(5)
        C = grs(GrsSpec(f, 4, 2))
        assert (C.n, C.k) == (4, 2) and C.min_distance() == 3
        assert C.is_mds()

    def test_nesting_chain_gf7(self):
        f = make_field(7)
        assert is_subcode(grs(GrsSpec(f, 7, 3)), grs(GrsSpec(f, 7, 4)))

    def test_invalid_specs(self):
        f = make_field(5)
        with pytest.raises(AqmdsError, match="n=6 must satisfy 1 <= n <= q=5"):
            GrsSpec(f, 6, 2)  # n > q
        with pytest.raises(AqmdsError, match="k=5 must satisfy 1 <= k <= n=4"):
            GrsSpec(f, 4, 5)  # k > n
        with pytest.raises(AqmdsError, match="alpha must be n pairwise distinct elements"):
            GrsSpec(f, 3, 2, alpha=(1, 1, 2))  # duplicate points
        with pytest.raises(AqmdsError, match="v must be n nonzero field elements"):
            GrsSpec(f, 3, 2, v=(1, 0, 1))  # zero multiplier

    def test_custom_alpha_v_still_mds(self):
        rng = random.Random(5)
        for q in (5, 7, 8):
            f = make_field(q)
            pts = list(range(q))
            for _ in range(5):
                rng.shuffle(pts)
                n = rng.randrange(2, q + 1)
                k = rng.randrange(1, n + 1)
                v = tuple(rng.randrange(1, q) for _ in range(n))
                C = grs(GrsSpec(f, n, k, tuple(pts[:n]), v))
                assert C.is_mds()


class TestExtendedGrs:
    def test_gf4_k3(self):
        C = extended_grs(make_field(4), 3)
        assert (C.n, C.k) == (5, 3) and C.min_distance() == 3

    def test_gf5_k1_full_weight_family(self):
        C = extended_grs(make_field(5), 1)
        assert (C.n, C.k) == (6, 1) and C.min_distance() == 6

    def test_gf8_k7(self):
        C = extended_grs(make_field(8), 7)
        assert (C.n, C.k) == (9, 7)
        assert C.is_mds()  # [9,7,3]_8

    @pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9])
    def test_advertised_parameters(self, q):
        f = make_field(q)
        for k in range(1, q + 1):
            C = extended_grs(f, k)
            assert (C.n, C.k) == (q + 1, k)
            assert C.is_mds()

    def test_alpha_out_of_field_range(self):
        # -1 must not wrap around to the last element as a table index
        f = make_field(5)
        with pytest.raises(AqmdsError, match="alpha entries out of field range"):
            extended_grs(f, 2, alpha=(-1, 0, 1, 2, 3))
        with pytest.raises(AqmdsError, match="alpha entries out of field range"):
            grs_subcode_irreducible(f, 4, 2, find_irreducible(f, 2), alpha=(0, 1, 2, 3, 5))


class TestGrsSubcodeIrreducible:
    def test_gf4_k3_r1(self):
        f = make_field(4)
        C = grs_subcode_irreducible(f, 3, 1, find_irreducible(f, 2))
        assert (C.n, C.k) == (5, 1) and C.min_distance() == 5
        assert is_subcode(C, extended_grs(f, 3))

    def test_gf5_k4_r2(self):
        f = make_field(5)
        C = grs_subcode_irreducible(f, 4, 2, find_irreducible(f, 2))
        assert (C.n, C.k) == (6, 2) and C.min_distance() == 5
        E = extended_grs(f, 4)
        assert (E.n, E.k) == (6, 4) and is_subcode(C, E)

    def test_r_out_of_range(self):
        with pytest.raises(AqmdsError, match="r=2 must satisfy 1 <= r <= k-2 = 1"):
            grs_subcode_irreducible(make_field(4), 3, 2, (1, 1))

    @pytest.mark.parametrize("poly", [(1, 0, 1), (2, 0, 1), (3, 1, 1)])
    def test_builds_the_polynomial_given(self, poly):
        # three irreducible quadratics over GF(7), each with its own nested
        # subcode, which holds the evaluations of poly itself
        f = make_field(7)
        C = grs_subcode_irreducible(f, 4, 2, poly)
        assert (C.n, C.k) == (8, 2) and C.is_mds()
        assert is_subcode(C, extended_grs(f, 4))
        word = [f.poly_eval(poly, a) for a in default_alpha(f, 7)] + [0]
        assert is_subcode(from_generator(GfMatrix(f, [word])), C)

    @pytest.mark.parametrize("poly", [
        [1.0, 0, 1], [1, 0, 1.0], [True, 0, 1], [1, 0, True], [7, 0, 1], [-1, 0, 1],
        [1, 0, 2], [1, 1], [1, 0, 0, 1], [], [3, 0, 1], [6, 0, 1], [2, 0, 3, 0, 1],
    ], ids=["float", "float-lead", "bool", "bool-lead", "7", "-1", "non-monic", "degree-1",
            "degree-3", "empty", "root-2", "root-1", "reducible-no-root"])
    def test_malformed_polynomial_refused(self, poly):
        # [2, 0, 3, 0, 1] = (x^2+1)(x^2+2) has no root in GF(7); it is tried at
        # k - r = 4, every other at 2
        f = make_field(7)
        k = 6 if len(poly) == 5 else 4
        with pytest.raises(AqmdsError, match="poly must be a monic irreducible of degree k-r"):
            grs_subcode_irreducible(f, k, 2, poly)

    @pytest.mark.parametrize("q", [4, 5, 7, 9])
    def test_subcode_relation_all_valid_k_r(self, q):
        f = make_field(q)
        for k in range(3, q + 1):
            for r in range(1, k - 1):
                C = grs_subcode_irreducible(f, k, r, find_irreducible(f, k - r))
                assert (C.n, C.k) == (q + 1, r)
                assert C.is_mds()
                assert is_subcode(C, extended_grs(f, k))

    @pytest.mark.parametrize("q", [4, 5, 7, 8, 9])
    def test_span_of_multiples_of_p(self, q):
        # the code is the span of the words of x^i p(x), i < r: v_j g(alpha_j)
        # at the q points, then v_q times g's x^(k-1) coefficient
        f = make_field(q)
        rng = random.Random(q)
        for k in range(3, q + 1):
            for r in range(1, k - 1):
                alpha = tuple(rng.sample(range(q), q))
                v = tuple(rng.randrange(1, q) for _ in range(q + 1))
                p = find_irreducible(f, k - r)
                C = grs_subcode_irreducible(f, k, r, p, alpha, v)
                rows = []
                for i in range(r):
                    g = _poly_mul((0,) * i + (1,), p, f._tables)
                    word = []
                    for a, vj in zip(alpha, v):
                        acc = 0
                        for c in reversed(g):
                            acc = f.add(f.mul(acc, a), c)
                        word.append(f.mul(vj, acc))
                    top = g[k - 1] if len(g) >= k else 0
                    rows.append(word + [f.mul(v[q], top)])
                assert C == from_generator(GfMatrix(f, rows))


class TestLengthQPlus2:
    def test_gf4_high(self):
        C = q_plus_2_high(make_field(4))
        assert (C.n, C.k) == (6, 3) and C.min_distance() == 4

    def test_gf8_high(self):
        C = q_plus_2_high(make_field(8))
        assert (C.n, C.k) == (10, 7) and C.is_mds()

    def test_gf8_low(self):
        C = q_plus_2_low(make_field(8))
        assert (C.n, C.k) == (10, 3) and C.min_distance() == 8

    def test_odd_characteristic_rejected(self):
        with pytest.raises(AqmdsError, match="requires characteristic 2, got p=5"):
            q_plus_2_high(make_field(5))
        with pytest.raises(AqmdsError, match="requires characteristic 2, got p=3"):
            q_plus_2_low(make_field(3))

    def test_gf2_rejected(self):
        with pytest.raises(AqmdsError, match=r"requires q = 2\^m with m >= 2"):
            q_plus_2_low(make_field(2))

    def test_pair_orthogonal_gf4(self):
        f = make_field(4)
        G = q_plus_2_low(f).G
        H = _q_plus_2_check_matrix(f, ones(6))
        assert not np.any(mat_mul(G, transpose(H)).data)

    def test_low_weight_distribution_gf4_even_weights(self):
        rep = q_plus_2_low(make_field(4)).weight_distribution()
        dist = rep.distribution.tolist()
        assert dist[0] == 1 and dist[4] > 0 and dist[6] > 0
        assert all(dist[i] == 0 for i in range(1, 7) if i % 2 == 1)

    @pytest.mark.parametrize("q", [4, 8, 16, 32, 64])
    def test_nesting(self, q):
        f = make_field(q)
        low, high = q_plus_2_low(f), q_plus_2_high(f)
        assert is_subcode(low, high)
        H = _q_plus_2_check_matrix(f, ones(q + 2))
        assert not np.any(mat_mul(low.G, transpose(H)).data)

    @pytest.mark.parametrize("q", [4, 8, 16])
    def test_shared_v_custom(self, q):
        rng = random.Random(q)
        f = make_field(q)
        v = tuple(rng.randrange(1, q) for _ in range(q + 2))
        low, high = q_plus_2_low(f, v), q_plus_2_high(f, v)
        assert is_subcode(low, high)
        assert low.is_mds() and high.is_mds()


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16])
def test_every_builder_mds_with_advertised_parameters(q):
    f = make_field(q)
    cap = 10 ** 5
    seen = []
    for k in range(1, q + 1):
        for n in range(max(k, 2), q + 1):
            seen.append((grs(GrsSpec(f, n, k)), n, k))
    for k in range(1, q + 1):
        seen.append((extended_grs(f, k), q + 1, k))
    if q % 2 == 0 and q >= 4:
        seen.append((q_plus_2_low(f), q + 2, 3))
        seen.append((q_plus_2_high(f), q + 2, q - 1))
    for C, n, k in seen:
        assert (C.n, C.k) == (n, k)
        assert C.is_mds()
        if q ** k <= cap:
            assert C.min_distance() == n - k + 1
