"""Finite-field layer: construction, arithmetic, irreducibles, polynomial kernels."""
import random

import numpy as np
import pytest

import aqmds.gf as gf
from aqmds.errors import AqmdsError, CapExceeded, NotPrimePower
from aqmds.gf import FIELD_CAP, FiniteField, find_irreducible, make_field

import irreducible_reference

SMALL_Q = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16]
LARGE_Q = [25, 27, 32, 49, 64]


def primitive_powers(f):
    """g^0, ..., g^(q-2) by the mul table, for the smallest g of order q - 1."""
    for g in range(1, f.q):
        powers = [1]
        while f.mul(powers[-1], g) != 1 and len(powers) < f.q:
            powers.append(f.mul(powers[-1], g))
        if len(powers) == f.q - 1:
            return powers
    raise AssertionError(f"GF({f.q}) has no element of order q - 1")


def element_sums(f):
    """(sum a, sum a^-1, sum a^2) over the nonzero elements, by the tables."""
    sums = [0, 0, 0]
    for a in range(1, f.q):
        for i, x in enumerate((a, f.inv(a), f.mul(a, a))):
            sums[i] = f.add(sums[i], x)
    return tuple(sums)


class TestMakeField:
    def test_prime_field_gf2(self):
        f = make_field(2)
        assert (f.p, f.m) == (2, 1)
        assert f.modulus == (0, 1)  # the polynomial X

    def test_gf4_modulus_unique_quadratic(self):
        # x^2 + x + 1 is the only monic irreducible quadratic over GF(2)
        assert make_field(4).modulus == (1, 1, 1)

    def test_not_prime_power(self):
        with pytest.raises(NotPrimePower):
            make_field(6)

    def test_prime_power_test_bounded(self):
        # 2^32 is a prime power and 2^61 - 1 a prime: neither is trial-divided,
        # and neither is called "not a prime power"
        for q in (1 << 32, (1 << 61) - 1):
            with pytest.raises(CapExceeded):
                gf._factor_prime_power(q)
        assert gf._factor_prime_power(4294967291) == (4294967291, 1)

    def test_field_cap(self):
        with pytest.raises(CapExceeded):
            make_field(128)
        assert make_field(FIELD_CAP).q == 64

    def test_deterministic_tables(self):
        a, b = FiniteField(9), FiniteField(9)
        assert a.modulus == b.modulus
        assert np.array_equal(a.add_table, b.add_table)
        assert np.array_equal(a.mul_table, b.mul_table)

    @pytest.mark.parametrize("q", SMALL_Q + LARGE_Q)
    def test_modulus_monic_right_degree(self, q):
        f = make_field(q)
        assert len(f.modulus) == f.m + 1
        assert f.modulus[-1] == 1


class TestArithmetic:
    def test_gf4_cubic_roots_of_unity(self):
        # omega + omega^2 = 1 because 1 + omega + omega^2 = 0; omega is x,
        # index 2, and omega^2 = x + 1 is index 3
        f = make_field(4)
        w = 2
        assert f.mul(w, w) == 3
        assert f.add(w, f.mul(w, w)) == 1

    def test_gf5_inverse(self):
        assert make_field(5).inv(3) == 2

    def test_gf8_all_inverses(self):
        f = make_field(8)
        for a in range(1, 8):
            assert f.mul(a, f.inv(a)) == 1

    def test_inv_zero(self):
        with pytest.raises(AqmdsError, match="0 has no multiplicative inverse"):
            make_field(5).inv(0)

    @pytest.mark.parametrize("q", [q for q in SMALL_Q if q <= 16])
    def test_associativity_distributivity_exhaustive(self, q):
        f = make_field(q)
        for a in range(q):
            for b in range(q):
                ab = f.add(a, b)
                for c in range(q):
                    assert f.add(ab, c) == f.add(a, f.add(b, c))
                    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))

    @pytest.mark.parametrize("q", LARGE_Q)
    def test_associativity_distributivity_sampled(self, q):
        f = make_field(q)
        rng = random.Random(q)
        for _ in range(1000):
            a, b, c = (rng.randrange(q) for _ in range(3))
            assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
            assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))

    @pytest.mark.parametrize("q", [2, 4, 8, 16, 32, 64])
    def test_frobenius_char_two(self, q):
        f = make_field(q)
        for a in range(q):
            for b in range(q):
                lhs = f.mul(f.add(a, b), f.add(a, b))
                rhs = f.add(f.mul(a, a), f.mul(b, b))
                assert lhs == rhs

    @pytest.mark.parametrize("q", SMALL_Q + LARGE_Q)
    def test_multiplicative_group_cyclic(self, q):
        assert sorted(primitive_powers(make_field(q))) == list(range(1, q))

    @pytest.mark.parametrize("q", SMALL_Q)
    def test_exp_log_tables(self, q):
        # with exp/log tables of a primitive element, built here from the mul
        # table, a product is the power at the sum of the logarithms
        f = make_field(q)
        exp = primitive_powers(f)
        log = {x: i for i, x in enumerate(exp)}
        for a in range(1, q):
            for b in range(1, q):
                assert f.mul(a, b) == exp[(log[a] + log[b]) % (q - 1)]


class TestFindIrreducible:
    def test_gf2_degree2(self):
        assert find_irreducible(make_field(2), 2) == (1, 1, 1)

    def test_gf4_degree2_has_no_root(self):
        f = make_field(4)
        poly = find_irreducible(f, 2)
        assert len(poly) == 3 and poly[-1] == 1
        assert all(f.poly_eval(poly, x) != 0 for x in range(4))

    def test_gf5_degree1(self):
        assert find_irreducible(make_field(5), 1) == (0, 1)

    @pytest.mark.parametrize("q,deg", [(3, 2), (4, 3), (5, 2), (7, 2), (8, 2), (9, 3)])
    def test_no_roots_general(self, q, deg):
        f = make_field(q)
        poly = find_irreducible(f, deg)
        assert len(poly) == deg + 1 and poly[-1] == 1
        assert all(f.poly_eval(poly, x) != 0 for x in range(q))

    def test_degree4_no_low_degree_factor(self):
        f = make_field(3)
        poly = find_irreducible(f, 4)
        # no monic factor of degree 1 or 2 divides it
        for d in (1, 2):
            for t in range(f.q ** d):
                coeffs, tt = [], t
                for _ in range(d):
                    coeffs.append(tt % f.q)
                    tt //= f.q
                divisor = tuple(coeffs) + (1,)
                _, rem = gf._poly_divmod(poly, divisor, f._tables)
                assert rem != []

    @pytest.mark.parametrize("q", SMALL_Q)
    def test_matches_trial_division(self, q):
        # every degree whose trial division needs at most 10^4 divisors a candidate
        f = make_field(q)
        d = 1
        while q ** (d // 2) <= 10 ** 4:
            assert find_irreducible(f, d) == irreducible_reference.smallest_irreducible(q, d), d
            d += 1

    @pytest.mark.parametrize("deg, poly", [
        (8, (4, 1, 0, 0, 0, 0, 0, 0, 1)),
        (9, (5, 1, 0, 0, 0, 0, 0, 0, 0, 1)),
        (10, (3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1)),
    ])
    def test_q11_high_degree_pinned(self, deg, poly):
        # found by trial division, which takes seconds per degree here
        assert find_irreducible(make_field(11), deg) == poly

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
    def test_rootless_reducibles_rejected(self, q):
        # none of these has a root, so only the steps i >= 2 of Ben-Or's test
        # can reject them: two distinct irreducible quadratics (degree 4), a
        # quadratic times a cubic (degree 5), an irreducible cubic squared (6)
        f, ref = make_field(q), irreducible_reference.make_field(q)
        quadratics = [p for p in gf._monic_polys(q, 2)
                      if irreducible_reference.is_irreducible(ref, list(p))]
        cubic = find_irreducible(f, 3)
        products = [(quadratics[0], cubic), (cubic, cubic)]
        if len(quadratics) > 1:  # GF(2) has a single irreducible quadratic
            products.append((quadratics[0], quadratics[1]))
        for a, b in products:
            poly = tuple(gf._poly_mul(a, b, f._tables))
            assert all(f.poly_eval(poly, x) != 0 for x in range(q)), poly
            assert not gf._poly_is_irreducible(f._tables, poly), poly
        assert gf._poly_is_irreducible(f._tables, quadratics[0])
        assert gf._poly_is_irreducible(f._tables, cubic)

    def test_q32_degree8_pinned(self):
        # found by Ben-Or's test with a Frobenius matrix in place of squaring,
        # an independent implementation; trial division is out of reach here
        assert find_irreducible(make_field(32), 8) == (2, 1, 0, 1, 0, 0, 0, 0, 1)

    def test_memoized_per_q_and_degree(self, monkeypatch):
        f = make_field(13)
        first = find_irreducible(f, 6)
        monkeypatch.setattr(gf, "_poly_is_irreducible", None)  # a second search would fail
        assert find_irreducible(f, 6) == first
        assert find_irreducible(FiniteField(13), 6) == first


# make_field(q).modulus for every prime power q <= FIELD_CAP, as chosen by
# trial division; the element encoding, hence every table, depends on it
MODULI = {
    2: (0, 1), 3: (0, 1), 4: (1, 1, 1), 5: (0, 1), 7: (0, 1), 8: (1, 1, 0, 1),
    9: (1, 0, 1), 11: (0, 1), 13: (0, 1), 16: (1, 1, 0, 0, 1), 17: (0, 1), 19: (0, 1),
    23: (0, 1), 25: (2, 0, 1), 27: (1, 2, 0, 1), 29: (0, 1), 31: (0, 1),
    32: (1, 0, 1, 0, 0, 1), 37: (0, 1), 41: (0, 1), 43: (0, 1), 47: (0, 1),
    49: (1, 0, 1), 53: (0, 1), 59: (0, 1), 61: (0, 1), 64: (1, 1, 0, 0, 0, 0, 1),
}


def test_moduli_cover_every_field():
    for q in range(2, FIELD_CAP + 1):
        if q not in MODULI:
            with pytest.raises(NotPrimePower):
                make_field(q)


@pytest.mark.parametrize("q", sorted(MODULI))
def test_modulus_pinned(q):
    assert make_field(q).modulus == MODULI[q]
    assert irreducible_reference.make_field(q).modulus == MODULI[q]


@pytest.mark.parametrize("q", sorted(MODULI))
def test_tables_match_reference(q):
    f, ref = make_field(q), irreducible_reference.make_field(q)
    assert f.add_table.tolist() == ref.add
    assert f.mul_table.tolist() == ref.mul
    assert f.neg_table.tolist() == ref.neg
    for name in ("add_table", "mul_table", "neg_table", "inv_table"):
        assert getattr(f, name).dtype == np.uint8, name
    assert f.inv_table[0] == 0
    assert all(ref.mul[a][f.inv_table[a]] == 1 for a in range(1, q))


class TestElementSums:
    def test_gf4(self):
        assert element_sums(make_field(4)) == (0, 0, 0)

    def test_gf2(self):
        assert element_sums(make_field(2)) == (1, 1, 1)

    def test_gf8(self):
        assert element_sums(make_field(8)) == (0, 0, 0)

    @pytest.mark.parametrize("q", [4, 8, 16, 32])
    def test_char_two_sums_vanish_above_two(self, q):
        # backs the parity-check identity of the length-(q+2) pair
        assert element_sums(make_field(q)) == (0, 0, 0)


class TestPolynomials:
    @pytest.mark.parametrize("q", [2, 4, 7, 9, 16, 27])
    def test_divmod_roundtrip(self, q):
        f = make_field(q)
        rng = random.Random(q)
        for _ in range(50):
            a = [rng.randrange(q) for _ in range(5)]
            b = gf._trim([rng.randrange(q) for _ in range(3)])
            if not b:
                continue
            quot, rem = gf._poly_divmod(a, b, f._tables)
            assert len(rem) < len(b)
            recon = gf._poly_mul(quot, b, f._tables)
            recon += [0] * (max(len(a), len(rem)) - len(recon))
            for i, r in enumerate(rem):
                recon[i] = f.add(recon[i], r)
            assert gf._trim(recon) == gf._trim(list(a))

    def test_poly_eval_horner(self):
        f = make_field(5)
        # f(x) = 1 + 2x + 3x^2 at x=2 -> 1 + 4 + 12 = 17 = 2 mod 5
        assert f.poly_eval((1, 2, 3), 2) == 2
