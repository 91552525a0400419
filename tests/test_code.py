"""Linear-code layer: canonical form, duals, distances, surgery, searches."""
import gc
import hashlib
import inspect
import itertools
import math
import random
from unittest import mock

import numpy as np
import pytest

import aqmds.code
import aqmds.css
from aqmds.code import (
    LinearCode,
    enum_cap,
    extend_by_codeword,
    from_generator,
    full_space,
    is_subcode,
    rows_outside,
)
from aqmds.catalog import enumerate_catalog, exists, make_certificate, run_oracles, verify
from aqmds.construct import grs, q_plus_2_low
from aqmds.css import css_construct, from_full_weight, make_pair, pair_from_full_weight, pair_sides
from aqmds.errors import AqmdsError, CapExceeded
from aqmds.gf import make_field
from aqmds.matrix import GfMatrix


def simplex_5_2_gf4() -> LinearCode:
    """The [5,2,4]_4 code with one generator column per projective point."""
    f = make_field(4)
    return from_generator(GfMatrix(f, [[1, 0, 1, 1, 1], [0, 1, 1, 2, 3]]))


def random_code(rng, q, n, k) -> LinearCode:
    f = make_field(q)
    while True:
        C = LinearCode(GfMatrix(f, [[rng.randrange(q) for _ in range(n)] for _ in range(k)]))
        if C.k:
            return C


class TestFromGenerator:
    def test_repetition(self):
        f = make_field(3)
        C = from_generator(GfMatrix(f, [[1, 1, 1, 1]]))
        assert (C.n, C.k) == (4, 1)

    def test_duplicate_rows_collapse(self):
        f = make_field(5)
        C = from_generator(GfMatrix(f, [[1, 2, 3], [1, 2, 3]]))
        assert C.k == 1

    def test_grs_rows(self):
        f = make_field(5)
        C = grs(f, 5, 2)
        assert (C.n, C.k) == (5, 2)

    def test_zero_rejected(self):
        with pytest.raises(AqmdsError, match="generator matrix has rank 0"):
            from_generator(GfMatrix.zeros(make_field(3), 2, 4))

    def test_canonical_equality(self):
        f = make_field(5)
        a = from_generator(GfMatrix(f, [[1, 2, 3, 4]]))
        b = from_generator(GfMatrix(f, [[2, 4, 1, 3]]))  # scalar multiple
        assert a == b


class TestDual:
    def test_repetition_dual(self):
        f = make_field(7)
        C = from_generator(GfMatrix(f, np.ones((1, 6), dtype=np.uint8)))
        D = C.dual()
        assert (D.n, D.k) == (6, 5)
        assert D.min_distance() == 2

    def test_involution_random(self):
        rng = random.Random(17)
        for _ in range(50):
            q = rng.choice([2, 3, 4, 5, 7])
            n = rng.randrange(2, 8)
            k = rng.randrange(1, n + 1)
            C = random_code(rng, q, n, k)
            assert C.dual().dual() == C

    def test_dual_of_grs_distance(self):
        f = make_field(5)
        D = grs(f, 5, 2).dual()
        assert D.min_distance() == 3  # dual of MDS is MDS: [5,3,3]


class TestDualLink:
    """dual() builds the dual once, by one kernel of the canonical G, and the
    two codes hold each other."""

    @staticmethod
    def kernel_calls():
        return mock.patch.object(aqmds.code, "_kernel", wraps=aqmds.code._kernel)

    def test_dual_of_the_length_0_space_is_the_0_0_code(self):
        D = full_space(make_field(5), 0).dual()
        assert (D.n, D.k) == (0, 0)
        assert D.dual().dual() is D

    def test_th7_certificate_takes_one_kernel(self):
        # C1's dual is built; C2 is tested on its own canonical G
        with self.kernel_calls() as kernel:
            cert = exists(7, 6, 1, 4, 3).certificate
        assert cert.family == ["TH7"] and cert.verified
        assert kernel.call_count == 1

    def test_full_weight_pair_keeps_its_line(self):
        with self.kernel_calls() as kernel:
            pair = pair_from_full_weight(grs(make_field(7), 7, 3))
        assert kernel.call_count == 1
        gc.collect()  # the line is held by its dual, C1, and survives
        with self.kernel_calls() as kernel:
            line = pair.c1.dual()
        assert kernel.call_count == 0
        assert line.k == 1 and line.dual() is pair.c1


class TestMinDistance:
    def test_repetition(self):
        f = make_field(5)
        assert grs(f, 5, 1).min_distance() == 5

    def test_dual_repetition(self):
        f = make_field(3)
        C = from_generator(GfMatrix(f, np.ones((1, 5), dtype=np.uint8))).dual()
        assert C.min_distance() == 2

    def test_grs_6_3_gf7(self):
        f = make_field(7)
        assert grs(f, 6, 3).min_distance() == 4

    def test_cap_exceeded(self, monkeypatch):
        C = full_space(make_field(5), 11)  # 5^11 > 10^7
        with pytest.raises(CapExceeded):
            C.min_distance()
        monkeypatch.setenv("AQMDS_MAX_ENUM", str(5 ** 11))
        assert C.min_distance() == 1

    def test_counts_past_int64_are_refused(self, monkeypatch):
        # the counts are int64, so no cap admits 2^63 words or more
        monkeypatch.setenv("AQMDS_MAX_ENUM", str(10 ** 20))
        with pytest.raises(CapExceeded, match="64\\^11 codewords overflow the int64 weight counts"):
            full_space(make_field(64), 11).weight_distribution()  # 2^66 words
        with pytest.raises(CapExceeded, match="2\\^63 codewords overflow"):
            full_space(make_field(2), 63).weight_distribution()
        assert full_space(make_field(2), 62).weight_distribution().distribution[31] == math.comb(62, 31)

    def test_pair_side_past_int64_is_refused_and_the_other_side_counted(self, monkeypatch):
        # the full space is refused; the [11,2] side takes the weights of the
        # full space's dual {0} from a count, never from a transform of 64^11 words
        monkeypatch.setenv("AQMDS_MAX_ENUM", str(10 ** 20))
        f = make_field(64)
        overflow = "64^11 codewords overflow the int64 weight counts; use the MDS k-subset oracle"
        full, line = full_space(f, 11), grs(f, 11, 2)
        c2_side, c1_side = pair_sides(make_pair(full, line))
        assert c2_side == (10, 10) and isinstance(c1_side, CapExceeded) and str(c1_side) == overflow
        # mirrored, the [11,9] side counts the zero code dual(C2)
        c2_side, c1_side = pair_sides(make_pair(line.dual(), full))
        assert isinstance(c2_side, CapExceeded) and str(c2_side) == overflow and c1_side == (3, 3)


# every public entry point that enumerates codewords, each past a cap of 10
# words: the first three raise, the certificate paths log the skipped oracles
CAPPED_CALLS = {
    "min_distance": lambda: full_space(make_field(2), 5).min_distance(),
    # [I_5 | 0] over GF(3): no full-weight word among its 2^4 candidates
    "full_weight_codeword": lambda: from_generator(
        GfMatrix(make_field(3), np.eye(5, 6, dtype=np.uint8))).full_weight_codeword(),
    "css_construct": lambda: css_construct(
        make_pair(grs(make_field(5), 5, 2).dual(), grs(make_field(5), 5, 3))),
}
LOGGED_CALLS = {
    "verify": lambda: verify(exists(5, 5, 1, 3, 3).certificate).oracle_log,
    "exists": lambda: exists(5, 5, 1, 3, 3, verify_level="full_oracle").certificate.oracle_log,
}


@pytest.mark.parametrize("entry", [*CAPPED_CALLS, *LOGGED_CALLS])
def test_env_cap_override(monkeypatch, entry):
    monkeypatch.setenv("AQMDS_MAX_ENUM", "10")
    assert enum_cap() == 10
    if entry in CAPPED_CALLS:
        with pytest.raises(CapExceeded):
            CAPPED_CALLS[entry]()
    else:
        log = LOGGED_CALLS[entry]()
        assert "distance_c2_side:skipped(cap)" in log
        assert "distance_c1_side:skipped(cap)" in log


def test_extension_reads_no_cap(monkeypatch):
    # the witness is one syndrome product, not a scan: 5^2 words exceed the cap
    f = make_field(5)
    C, Cp = grs(f, 4, 1), grs(f, 4, 2)
    uncapped = extend_by_codeword(C, Cp)
    monkeypatch.setenv("AQMDS_MAX_ENUM", "10")
    assert extend_by_codeword(C, Cp) == uncapped


def test_malformed_env_cap_raises_at_first_enumeration(monkeypatch):
    monkeypatch.setenv("AQMDS_MAX_ENUM", "x")
    # no oracle at closed_form enumerates codewords, so none reads the cap
    assert exists(5, 5, 1, 3, 3).certificate.verified
    with pytest.raises(AqmdsError, match="AQMDS_MAX_ENUM must be a positive integer, got 'x'"):
        full_space(make_field(2), 3).min_distance()


def test_no_public_function_takes_a_cap():
    # AQMDS_MAX_ENUM is the one setting of the enumeration cap
    functions = [LinearCode.min_distance, LinearCode.weight_distribution,
                 LinearCode.full_weight_codeword, extend_by_codeword, css_construct,
                 pair_from_full_weight, from_full_weight, make_certificate,
                 enumerate_catalog, exists, verify, run_oracles]
    assert [f.__name__ for f in functions if "cap" in inspect.signature(f).parameters] == []


class TestIsMds:
    def test_grs_true(self):
        f = make_field(7)
        assert grs(f, 6, 3).is_mds()

    def test_weight_two_word_false(self):
        f = make_field(3)
        C = from_generator(GfMatrix(f, [[1, 0, 1, 0], [0, 1, 0, 1]]))
        assert not C.is_mds()

    def test_length_q_plus_2_low_gf8(self):
        assert q_plus_2_low(make_field(8)).is_mds()


def weight_outside(C: LinearCode, D: LinearCode):
    """min { wt(u) : u in C, u not in D } for a subcode D of C, or None when
    D = C: the outside weight of the C2 side of the CSS pair (dual(D), C)."""
    return pair_sides(make_pair(D.dual(), C))[0][0]


class TestWeightOfDifference:
    def test_full_space_vs_repetition_gf2(self):
        f = make_field(2)
        C = full_space(f, 2)
        D = from_generator(GfMatrix(f, [[1, 1]]))
        assert weight_outside(C, D) == 1

    def test_nested_grs_gf5(self):
        f = make_field(5)
        C = grs(f, 5, 3)
        D = grs(f, 5, 2)
        assert weight_outside(C, D) == 3

    def test_dual_repetition_vs_all_ones(self):
        f = make_field(2)
        C = from_generator(GfMatrix(f, np.ones((1, 4), dtype=np.uint8))).dual()
        D = from_generator(GfMatrix(f, np.ones((1, 4), dtype=np.uint8)))
        assert weight_outside(C, D) == 2

    def test_not_strict_subcode(self):
        # no word of C lies outside D when D is C; a D containing C makes no pair
        f = make_field(5)
        C = grs(f, 5, 2)
        assert weight_outside(C, C) is None
        with pytest.raises(AqmdsError, match="dual\\(C1\\) not contained in C2"):
            weight_outside(C, grs(f, 5, 3))


class TestIsSubcode:
    def test_grs_chain(self):
        f = make_field(5)
        assert is_subcode(grs(f, 5, 2), grs(f, 5, 3))

    def test_dimension_blocks(self):
        f = make_field(5)
        assert not is_subcode(grs(f, 5, 3), grs(f, 5, 2))

    def test_reflexive(self):
        f = make_field(5)
        C = grs(f, 5, 2)
        assert is_subcode(C, C)


class TestRowsOutside:
    def test_indices_in_row_order(self):
        f = make_field(3)
        C = from_generator(GfMatrix(f, [[1, 0, 0, 0], [0, 1, 0, 0]]))
        D = from_generator(GfMatrix(f, [[1, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]))
        assert list(rows_outside(D, C)) == [0, 2]
        assert list(rows_outside(C, D)) == [0]
        assert list(rows_outside(grs(make_field(5), 5, 3), grs(make_field(5), 5, 2))) == [0, 1, 2]
        assert list(rows_outside(grs(make_field(5), 5, 2), grs(make_field(5), 5, 3))) == []

    def test_every_row_is_outside_the_zero_code(self):
        f = make_field(3)
        C = grs(f, 3, 2)
        assert list(rows_outside(C, full_space(f, 3).dual())) == [0, 1]
        assert list(rows_outside(full_space(f, 3).dual(), C)) == []

    def test_length_and_field_are_checked(self):
        with pytest.raises(AqmdsError, match="lengths differ: 4 != 5"):
            rows_outside(grs(make_field(5), 4, 2), grs(make_field(5), 5, 2))
        with pytest.raises(AqmdsError, match="codes over different fields"):
            rows_outside(grs(make_field(5), 4, 2), grs(make_field(7), 4, 2))


class TestShortenPuncture:
    def test_shorten_length_q_plus_2_gf4(self):
        D = q_plus_2_low(make_field(4))  # [6,3,4]
        S = D.shorten(D.n - 1)
        assert (S.n, S.k) == (5, 2)
        assert S.is_mds() and S.min_distance() == 4

    def test_puncture_length_q_plus_2_gf4(self):
        D = q_plus_2_low(make_field(4))
        P = D.puncture(D.n - 1)
        assert (P.n, P.k) == (5, 3)
        assert P.is_mds() and P.min_distance() == 3

    def test_puncture_repetition(self):
        f = make_field(7)
        C = from_generator(GfMatrix(f, np.ones((1, 6), dtype=np.uint8)))
        P = C.puncture(0)
        assert (P.n, P.k) == (5, 1) and P.min_distance() == 5

    def test_position_out_of_range(self):
        C = q_plus_2_low(make_field(4))
        with pytest.raises(AqmdsError, match=r"position 6 not in \[0, 6\)"):
            C.shorten(6)
        with pytest.raises(AqmdsError, match=r"position -1 not in \[0, 6\)"):
            C.puncture(-1)

    def test_shorten_to_zero_rejected(self):
        f = make_field(2)
        C = from_generator(GfMatrix(f, [[1, 1]]))
        with pytest.raises(AqmdsError, match="shortening leaves only the zero codeword"):
            C.shorten(0)

    def test_shortened_q_plus_2_generators_pinned(self):
        # catalogs hold no matrices, so only this pin tells a shortening from
        # another code with the same parameters
        digest = hashlib.sha256()
        for q in (4, 8, 16, 32, 64):
            D = q_plus_2_low(make_field(q))
            for pos in range(q + 2):
                digest.update(D.shorten(pos).G.data.tobytes())
        assert digest.hexdigest() == \
            "4b54df364982862172e10f7c8964a42bf1befe91b8df840f9988aad9f83a35a3"


class TestExtendByCodeword:
    def test_grs_pair_gf5(self):
        f = make_field(5)
        C = grs(f, 4, 1)
        Cp = grs(f, 4, 2)
        E = extend_by_codeword(C, Cp)
        assert (E.n, E.k) == (5, 2)
        assert E.is_mds() and E.min_distance() == 4

    def test_parity_extension_gf2(self):
        f = make_field(2)
        C = from_generator(GfMatrix(f, [[1, 1]]))
        Cp = full_space(f, 2)
        E = extend_by_codeword(C, Cp)
        assert (E.n, E.k) == (3, 2)
        assert E.min_distance() == 2

    def test_round_trip_through_shorten_puncture(self):
        D = q_plus_2_low(make_field(4))  # [6,3,4]
        S, P = D.shorten(D.n - 1), D.puncture(D.n - 1)
        E = extend_by_codeword(S, P)
        assert (E.n, E.k) == (6, 3)
        assert E.is_mds() and E.min_distance() == 4

    def test_precondition_failures(self):
        f = make_field(5)
        with pytest.raises(AqmdsError, match=r"dim C' = 3 != dim C \+ 1 = 2"):
            extend_by_codeword(grs(f, 4, 1), grs(f, 4, 3))
        with pytest.raises(AqmdsError, match="C is not a subcode of C'"):
            extend_by_codeword(grs(f, 4, 2), grs(f, 4, 1))
        non_mds = from_generator(GfMatrix(f, [[1, 0, 1, 0], [0, 1, 0, 1]]))
        bigger = from_generator(
            GfMatrix(f, [[1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 0]]))
        with pytest.raises(AqmdsError, match=r"C is not MDS \[4,2,3\]"):
            extend_by_codeword(non_mds, bigger)

    def test_non_mds_extension_named_with_its_singleton_distance(self):
        # C = the [4,1,4] repetition code is MDS; C' adds e_0, a weight-1 word
        f = make_field(5)
        C = grs(f, 4, 1)
        Cp = from_generator(GfMatrix(f, [[1, 1, 1, 1], [1, 0, 0, 0]]))
        with pytest.raises(AqmdsError, match=r"C' is not MDS \[4,2,3\]"):
            extend_by_codeword(C, Cp)


class TestFullWeightCodeword:
    def test_dual_odd_binary_repetition_empty(self):
        f = make_field(2)
        C = from_generator(GfMatrix(f, np.ones((1, 5), dtype=np.uint8))).dual()
        assert (C.n, C.k) == (5, 4)
        assert C.full_weight_codeword() is None

    def test_simplex_empty(self):
        assert simplex_5_2_gf4().full_weight_codeword() is None

    def test_grs_4_2_gf5_hit(self):
        f = make_field(5)
        C = grs(f, 4, 2)
        u = C.full_weight_codeword()
        assert u is not None and np.count_nonzero(u) == 4

    @pytest.mark.parametrize("q,n,k", [(3, 3, 2), (4, 4, 3), (5, 5, 2), (7, 6, 3)])
    def test_first_in_message_order(self, q, n, k):
        # independent oracle: iterate messages lexicographically (first digit
        # most significant) and take the first full-weight encoding
        C = grs(make_field(q), n, k)
        expected = None
        for msg in itertools.product(range(q), repeat=C.k):
            word = C.codeword(np.array(msg, dtype=np.uint8))
            if np.count_nonzero(word) == C.n:
                expected = word
                break
        got = C.full_weight_codeword()
        assert expected is not None
        assert np.array_equal(got, expected)

    def test_scan_budget_raises(self, monkeypatch):
        monkeypatch.setenv("AQMDS_MAX_ENUM", "1")
        f = make_field(2)
        # [9,8,2]_2 dual repetition: no full-weight word; absence needs the
        # full (q-1)^k = 1 candidate, which fits any budget
        C = from_generator(GfMatrix(f, np.ones((1, 9), dtype=np.uint8))).dual()
        assert C.full_weight_codeword() is None


class TestEnumeratorWork:
    """Words the scan's weight blocks and the full-weight search's word
    chunks yield, counted by wrapping the generator that yields them."""

    @staticmethod
    def _count(monkeypatch, name):
        sizes = []
        inner = getattr(aqmds.code, name)

        def counting(*args):
            for chunk in inner(*args):
                sizes.append(len(chunk))
                yield chunk

        monkeypatch.setattr(aqmds.code, name, counting)
        return sizes

    @pytest.fixture
    def yielded(self, monkeypatch):
        return self._count(monkeypatch, "_iter_word_chunks")

    @pytest.fixture
    def weighed(self, monkeypatch):
        return self._count(monkeypatch, "_iter_weight_blocks")

    def test_scan_visits_one_word_per_scalar_class(self, weighed):
        # 2k > n: the count is of the [7,2] dual, transformed by MacWilliams
        grs(make_field(7), 7, 5).weight_distribution()
        assert sum(weighed) == (7 ** 2 - 1) // 6  # 8, not the 2,801 classes of C

    @pytest.mark.parametrize("q, n, k", [(7, 7, 3), (8, 8, 4)])
    def test_low_rate_scan_visits_every_class_of_the_code(self, weighed, q, n, k):
        grs(make_field(q), n, k).weight_distribution()
        assert sum(weighed) == (q ** k - 1) // (q - 1)

    def test_full_space_visits_no_word(self, weighed):
        # the dual of GF(q)^n is {0}
        assert full_space(make_field(7), 8).weight_distribution().distribution[8] == 6 ** 8
        assert weighed == []

    def test_pair_counts_each_code_once(self, weighed, monkeypatch):
        # C2 = [7,5] through its [7,2] dual and C1 = [7,4] through its [7,3]
        # dual; each code's distribution and its dual's come from one count
        # and one transform
        f = make_field(7)
        pair = make_pair(grs(f, 7, 3).dual(), grs(f, 7, 5))
        transformed = []
        transform = aqmds.code._macwilliams

        def transforming(*args):
            transformed.append(args)
            return transform(*args)

        monkeypatch.setattr(aqmds.code, "_macwilliams", transforming)
        assert pair_sides(pair) == ((3, 3), (4, 4))
        assert sum(weighed) == (7 ** 2 - 1) // 6 + (7 ** 3 - 1) // 6  # 65, not 130
        assert len(transformed) == 2

    def test_full_weight_search_looks_before_it_builds(self, yielded):
        assert grs(make_field(16), 16, 6).full_weight_codeword() is not None
        assert sum(yielded) < 100  # a whole first chunk is 15^5 = 759,375 words


class TestScanPreconditions:
    def test_non_canonical_generator_is_refused(self):
        f = make_field(3)
        for gen in ([[1, 1, 0], [1, 0, 1]],  # both rows lead in column 0
                    [[2, 1, 0]],  # pivot entry 2, not 1
                    [[1, 1, 0], [0, 1, 2]],  # column 1 is a pivot, not a unit column
                    [[1, 0, 2], [0, 0, 0]]):  # a zero row
            with pytest.raises(AqmdsError, match="the pivot columns of the generator are not the identity"):
                aqmds.code._enumerate_scan(f, np.array(gen, dtype=np.uint8))

    def test_pivot_identity_suffices(self):
        # rows out of echelon order still have unit pivot columns: the counts
        # are those of the canonical generator
        f = make_field(3)
        gen = np.array([[0, 1, 0, 2], [1, 0, 1, 1]], dtype=np.uint8)
        C = from_generator(GfMatrix(f, gen))
        dist = aqmds.code._enumerate_scan(f, gen)
        assert dist.tolist() == aqmds.code._enumerate_scan(C.field, C.G.data).tolist() == [1, 0, 2, 4, 2]

    def test_cap_is_decided_before_the_checks_are_read(self, monkeypatch):
        # the C1 side is capped, so neither C1 nor its checks, the words of
        # dual(C2), are counted; the C2 side counts C2 and the zero dual(C1)
        monkeypatch.setenv("AQMDS_MAX_ENUM", "1000")
        f = make_field(7)
        counted, transformed = [], []
        count, transform = aqmds.code._count_weights, aqmds.code._macwilliams

        def counting(field, gen):
            counted.append(gen.shape)
            return count(field, gen)

        def transforming(*args):
            transformed.append(args)
            return transform(*args)

        monkeypatch.setattr(aqmds.code, "_count_weights", counting)
        monkeypatch.setattr(aqmds.code, "_macwilliams", transforming)
        C2 = grs(f, 7, 3)
        c2_side, c1_side = pair_sides(make_pair(full_space(f, 7), C2))
        assert isinstance(c1_side, CapExceeded) and "7^7 codewords exceeds cap 1000" in str(c1_side)
        assert c2_side == (5, 5)
        assert counted == [(3, 7), (0, 7)] and transformed == []


class TestWeightDistribution:
    def test_repetition_gf2(self):
        f = make_field(2)
        C = from_generator(GfMatrix(f, [[1, 1, 1]]))
        rep = C.weight_distribution()
        assert rep.distribution.tolist() == [1, 0, 0, 1]
        assert rep.min_weight == 3

    def test_simplex_distribution(self):
        rep = simplex_5_2_gf4().weight_distribution()
        dist = rep.distribution.tolist()
        assert dist[0] == 1 and dist[4] == 15
        assert sum(dist) == 16
        assert all(v == 0 for i, v in enumerate(dist) if i not in (0, 4))

    def test_counts_sum_to_q_pow_k(self):
        rng = random.Random(23)
        for _ in range(10):
            q = rng.choice([2, 3, 4, 5])
            n = rng.randrange(2, 7)
            k = rng.randrange(1, n + 1)
            C = random_code(rng, q, n, k)
            rep = C.weight_distribution()
            assert int(rep.distribution.sum()) == q ** C.k
            assert rep.distribution[0] == 1

    @pytest.mark.parametrize("q, n", [(2, 1), (7, 8), (16, 10), (64, 10)])
    def test_transform_of_the_zero_code_is_the_full_space(self, q, n):
        zero = np.zeros(n + 1, dtype=np.int64)
        zero[0] = 1
        full = [math.comb(n, w) * (q - 1) ** w for w in range(n + 1)]
        assert aqmds.code._macwilliams(q, zero, 0).tolist() == full

    def test_transform_of_no_dual_distribution_is_refused(self):
        # [1, 1] over GF(3) sums to 2, not to |C-perp| = 3
        with pytest.raises(AqmdsError, match="MacWilliams transform not divisible by 3\\^1"):
            aqmds.code._macwilliams(3, np.array([1, 1]), 1)


class TestInvariants:
    def test_singleton_bound(self):
        rng = random.Random(29)
        for _ in range(40):
            q = rng.choice([2, 3, 4, 5, 7])
            n = rng.randrange(2, 8)
            k = rng.randrange(1, n + 1)
            C = random_code(rng, q, n, k)
            assert C.min_distance() <= C.n - C.k + 1

    def test_mds_duality(self):
        for q in (3, 4, 5, 7, 9):
            f = make_field(q)
            for k in range(1, q):
                C = grs(f, q, k)
                assert C.is_mds()
                if k < q:
                    assert C.dual().is_mds()

    def test_oracle_agreement(self):
        rng = random.Random(31)
        for _ in range(40):
            q = rng.choice([2, 3, 4, 5])
            n = rng.randrange(2, 8)
            k = rng.randrange(1, n)
            C = random_code(rng, q, n, k)
            assert (C.min_distance() == C.n - C.k + 1) == C.is_mds()
