"""Classification catalog: enumeration, existence decisions, certificates."""
import hashlib
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from aqmds.catalog import (
    CatalogQuery,
    CodeStore,
    ExistsResult,
    FAMILY_TAGS,
    build_pair_from_recipe,
    certificate_from_dict,
    certificate_to_dict,
    certificates_to_json,
    enumerate_catalog,
    exists,
    length_bound,
    make_certificate,
    run_oracles,
    verify,
    _cases_reaching,
    _designated_recipe,
    _tuple_of,
)
from aqmds.cli import main
from aqmds.code import LinearCode, from_generator, full_space
from aqmds.construct import grs
from aqmds.css import AqcParams, css_construct, make_pair
from aqmds.errors import AqmdsError, CapExceeded, NotPrimePower, VerificationFailed
from aqmds.gf import FIELD_CAP, make_field
from aqmds.matrix import GfMatrix

import th14_expansion

# a PROP6 record on the [3,3]_3 full space, whose pair has a zero C1
ZERO_CODE_RECORD = {
    "q": 3, "n": 3, "j": 0, "dz": 4, "dx": 1, "pure": True, "aqmds": True, "family": ["PROP6"],
    "recipe": {"q": 3, "n": 3, "j": 0, "alpha_convention": "zero_last", "construction": "PROP6",
               "k": 3, "code": {"type": "full", "n": 3}},
    "verified": True, "oracle_log": [],
}

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

GOLDEN_COUNT_Q4 = th14_expansion.GOLDEN_COUNT_Q4  # frozen: 29


class TestEnumerate:
    def test_q_over_field_cap_refused_before_expansion(self):
        # q = 1009 is prime: its ~10^8 TH7 triples are never expanded
        with pytest.raises(CapExceeded, match="q=1009 exceeds the field cap 64"):
            enumerate_catalog(CatalogQuery(q=1009))

    def test_q4_n5_j1_only_cor10_tuple(self):
        certs = enumerate_catalog(CatalogQuery(q=4, n=5, j=1))
        tuples = {(c.params.n, c.params.k, c.params.dz, c.params.dx) for c in certs}
        # j=1 at n=q+1 exists only as {dz,dx} = {3, q-1} = {3,3}, plus the
        # dx=1 trivial family which also has j = 1 at this length
        with_dx2 = {t for t in tuples if t[3] >= 2}
        assert with_dx2 == {(5, 1, 3, 3)}
        cor10 = [c for c in certs if "COR10" in c.family]
        assert len(cor10) == 1 and cor10[0].params.dx == 3

    def test_q5_n6_j1_dx2_empty(self):
        certs = enumerate_catalog(CatalogQuery(q=5, n=6, j=1, dx_min=2))
        assert certs == []

    def test_q4_count_matches_frozen_golden(self):
        certs = enumerate_catalog(CatalogQuery(q=4))
        assert len(certs) == GOLDEN_COUNT_Q4

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 13])
    def test_matches_independent_expansion(self, q):
        certs = enumerate_catalog(CatalogQuery(q=q))
        assert all(c.verified for c in certs)
        got = {(c.params.n, c.params.k, c.params.dz, c.params.dx) for c in certs}
        assert got == th14_expansion.expand(q)

    def test_sorted_and_deduplicated(self):
        certs = enumerate_catalog(CatalogQuery(q=5))
        keys = [(c.params.n, c.params.k, c.params.dz, c.params.dx) for c in certs]
        assert keys == sorted(keys)
        assert len(keys) == len(set(keys))

    def test_family_tags_valid(self):
        for c in enumerate_catalog(CatalogQuery(q=4)):
            assert c.family and all(t in FAMILY_TAGS for t in c.family)

    def test_non_prime_power_rejected(self):
        with pytest.raises(NotPrimePower):
            enumerate_catalog(CatalogQuery(q=6))

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
    def test_length_bound(self, q):
        for c in enumerate_catalog(CatalogQuery(q=q)):
            assert c.params.n <= length_bound(q)

    @pytest.mark.parametrize("q", [4, 5, 7, 8, 9])
    def test_case6_exclusivity(self, q):
        certs = enumerate_catalog(CatalogQuery(q=q, n=q + 1, j=1, dx_min=2))
        if q in (4, 8):
            assert {(c.params.dz, c.params.dx) for c in certs} == {(max(3, q - 1), min(3, q - 1))}
        else:
            assert certs == []

    def test_unordered_distance_filters(self):
        a = enumerate_catalog(CatalogQuery(q=5, dz=4, dx=2))
        b = enumerate_catalog(CatalogQuery(q=5, dz=2, dx=4))
        assert [certificate_to_dict(c) for c in a] == [certificate_to_dict(c) for c in b]
        assert a  # [[5,1,4/2]] and relatives exist

    @pytest.mark.parametrize("bound", [{"dz": 4}, {"dx": 3}])
    def test_one_distance_filter_matches_either_distance(self, bound):
        # a lone dz or dx keeps every tuple with that distance on either side
        (value,) = bound.values()
        full = enumerate_catalog(CatalogQuery(q=7))
        expected = [certificate_to_dict(c) for c in full if value in (c.params.dz, c.params.dx)]
        got = [certificate_to_dict(c) for c in enumerate_catalog(CatalogQuery(q=7, **bound))]
        assert got == expected
        assert 0 < len(got) < len(full)


class TestExists:
    def test_th11_tuple_q8(self):
        r = exists(8, 10, 4, 4, 4)
        assert r.exists and r.certificate is not None
        assert "TH11" in r.certificate.family
        assert r.certificate.verified

    def test_odd_q_length_bound(self):
        r = exists(5, 7, 1, 3, 3)
        assert not r.exists
        assert r.reason == "length exceeds q+1 for odd q"

    @pytest.mark.parametrize("args", [
        (7, 0, 1, 1, 1), (7, 5, -1, 3, 3), (7, 5, 3, 3, 0), (7, 5, 3, 0, 3)])
    def test_parameters_out_of_range(self, args):
        assert exists(*args) == ExistsResult(False, None, "parameters out of range")

    def test_even_q_length_bound(self):
        assert exists(8, 11, 1, 6, 6) == ExistsResult(False, None, "length exceeds q+2")

    def test_j1_at_q_plus_1_needs_cor10_shape(self):
        r = exists(4, 5, 1, 4, 2)
        assert not r.exists
        assert "{dz,dx}={3,q-1}" in r.reason

    def test_non_prime_power(self):
        r = exists(6, 5, 1, 3, 3)
        assert not r.exists and "prime power" in r.reason

    def test_largest_testable_prime(self):
        # the largest prime below 2^32, where the prime-power test stops
        r = exists(4294967291, 5, 1, 3, 3)
        assert r.exists and r.certificate is None
        assert r.reason.startswith("exists; certificate construction skipped")

    def test_largest_testable_prime_at_its_own_length(self):
        # a TH7 tuple of length 4294967291: the cases are tested at its two
        # candidate k, never expanded over the length
        r = exists(4294967291, 4294967291, 1, 2147483646, 2147483646)
        assert (r.exists, r.certificate) == (True, None)
        assert r.reason == ("exists; certificate construction skipped:"
                            " q=4294967291 exceeds the field cap 64")

    @pytest.mark.parametrize("q, n, j, dz, dx", [
        (37, 38, 2, 19, 19), (61, 62, 2, 31, 31), (64, 64, 2, 32, 32)])
    def test_mds_codes_past_the_minor_cap_certified(self, q, n, j, dz, dx):
        # codes of dimension about n/2 at q >= 37 have more minors than the cap
        # admits; the Cauchy test proves them before the cap is checked
        cert = exists(q, n, j, dz, dx).certificate
        assert cert is not None and cert.verified
        assert cert.family == sorted({tag for tag, *_ in _cases_reaching(q, n, j, dz, dx)},
                                     key=FAMILY_TAGS.index)

    def test_unordered_query(self):
        assert exists(16, 17, 1, 15, 3).exists
        assert exists(16, 17, 1, 3, 15).exists

    def test_positive_matches_enumeration(self):
        for q in (3, 4, 5):
            admitted = th14_expansion.expand(q)
            for n in range(2, length_bound(q) + 1):
                for dz in range(1, n + 1):
                    for dx in range(1, dz + 1):
                        j = n - dz - dx + 2
                        if j < 0:
                            continue
                        r = exists(q, n, j, dz, dx, verify_level="closed_form")
                        assert r.exists == ((n, j, dz, dx) in admitted), (q, n, j, dz, dx)


PRIME_POWERS_TO_64 = [q for q in range(2, 65) if th14_expansion.is_prime_power(q)]


@pytest.fixture(scope="module")
def table_rows():
    """{(q, n): {tuple: its cases}} for every prime power q <= 64 and n in
    1..q+2, the tuples found the way enumerate_catalog scans the (n, k, j) grid."""
    rows = {}
    for q in PRIME_POWERS_TO_64:
        for n in range(1, q + 3):
            grid = {_tuple_of(n, k, j) for k in range(1, n) for j in range(n - k + 1)}
            rows[q, n] = {t: cases for t in grid if (cases := _cases_reaching(q, *t))}
    return rows


class TestCaseTable:
    def test_tags_and_recipe_case_unchanged(self, table_rows):
        # sha256 of each tuple's sorted tags and first case, as the case
        # expansion that the table replaced gave them
        h = hashlib.sha256()
        for (q, n), rows in table_rows.items():
            h.update(repr((q, n, sorted((t, sorted({c[0] for c in cases}), cases[0])
                                        for t, cases in rows.items()))).encode())
        assert h.hexdigest() == "15cdf62623bbee4f4b865d317f2cf812ab8207f1f09433d4eccd03f056605ed6"

    @pytest.mark.parametrize("q", PRIME_POWERS_TO_64)
    def test_admits_the_independent_expansion(self, table_rows, q):
        admitted = set()
        for n in range(2, length_bound(q) + 1):
            admitted.update(table_rows[q, n])
        assert admitted == th14_expansion.expand(q)

    @pytest.mark.parametrize("q", [q for q in PRIME_POWERS_TO_64 if q <= 23])
    def test_every_case_reaching_a_tuple_builds_it(self, table_rows, q):
        # a certificate builds only its first case; each other (tag, k) that
        # its family claims must build a pair of the same (n, j, dz, dx)
        store = CodeStore()
        for n in range(2, length_bound(q) + 1):
            for t, cases in table_rows[q, n].items():
                tags = {tag for tag, *_ in cases}
                for tag, _, k, j in cases[1:]:
                    cert = make_certificate(q, *t, tags, _designated_recipe(q, tag, n, k, j),
                                            "full_oracle", store=store)
                    assert cert.verified, (t, tag, k, cert.oracle_log)

    def test_expansion_shares_no_code_with_the_package(self):
        tests = pathlib.Path(__file__).resolve().parent
        assert "aqmds" not in (tests / "th14_expansion.py").read_text()
        assert not any("th14_expansion" in f.read_text() for f in SRC.rglob("*.py"))


class TestCertificates:
    def test_schema_keys_and_order(self):
        cert = exists(5, 5, 1, 3, 3).certificate
        d = certificate_to_dict(cert)
        assert list(d) == ["q", "n", "j", "dz", "dx", "pure", "aqmds",
                           "family", "recipe", "verified", "oracle_log"]

    def test_json_round_trip(self):
        cert = exists(4, 6, 0, 4, 4).certificate
        d = json.loads(json.dumps(certificate_to_dict(cert)))
        back = certificate_from_dict(d)
        assert certificate_to_dict(back) == certificate_to_dict(cert)

    def test_recipe_rebuilds_pair(self):
        cert = exists(5, 5, 1, 3, 3).certificate
        pair = build_pair_from_recipe(cert.recipe)
        p = css_construct(pair)
        assert (p.n, p.k, p.dz, p.dx) == (5, 1, 3, 3)

    def test_unknown_source_type(self):
        d = certificate_to_dict(exists(7, 6, 0, 4, 4).certificate)
        d["recipe"]["code"]["type"] = "bogus"
        with pytest.raises(AqmdsError, match="unknown source type 'bogus'"):
            verify(certificate_from_dict(d))

    def test_malformed_recipe(self):
        with pytest.raises(AqmdsError, match="unknown construction 'NOPE'"):
            build_pair_from_recipe({"q": 5, "construction": "NOPE"})
        with pytest.raises(AqmdsError, match="malformed recipe: 'construction'"):
            build_pair_from_recipe({"q": 5})

    def test_determinism_bytes(self):
        a = certificates_to_json(enumerate_catalog(CatalogQuery(q=5)))
        b = certificates_to_json(enumerate_catalog(CatalogQuery(q=5)))
        assert a == b

    def test_unknown_verify_level_refused(self):
        # "full" is neither level: it ran closed_form and reported verified,
        # answered a "no" that builds nothing, and a "yes" with no certificate
        for args in ((7, 5, 1, 3, 3), (7, 9, 1, 3, 3), (4294967291, 5, 1, 3, 3)):
            with pytest.raises(AqmdsError, match="verify_level must be one of"):
                exists(*args, verify_level="full")
        cert = exists(7, 5, 1, 3, 3).certificate
        with pytest.raises(AqmdsError, match="verify_level must be one of"):
            make_certificate(7, 5, 1, 3, 3, cert.family, cert.recipe, "full")

    def test_capped_j0_distances_are_skipped(self, monkeypatch):
        # a non-MDS [4,2]_3 code against its dual: both sides over the cap,
        # and neither code is proven MDS, so no distance stands in
        C = from_generator(GfMatrix(make_field(3), [[1, 0, 0, 0], [0, 1, 0, 0]]))
        monkeypatch.setenv("AQMDS_MAX_ENUM", "2")
        claimed = AqcParams(q=3, n=4, k=0, dz=3, dx=3, pure=True, aqmds=True)
        verified, log = run_oracles(claimed, make_pair(C.dual(), C), "full_oracle")
        assert not verified
        assert log == ["nesting:pass", "mds_dual_c1:FAIL", "mds_c2:FAIL", "dimensions:pass",
                       "singleton_equality:pass", "distances_exact:skipped(cap)"]

    def test_cap_skips_are_marked_not_passed(self, monkeypatch):
        cert = exists(8, 10, 4, 4, 4).certificate
        monkeypatch.setenv("AQMDS_MAX_ENUM", "100")
        _, log = run_oracles(cert.params, build_pair_from_recipe(cert.recipe), "full_oracle")
        assert any(entry.endswith("skipped(cap)") for entry in log)
        assert not any("distance" in entry and entry.endswith("pass") for entry in log)


def count_k_subset_calls(monkeypatch) -> list:
    """Record the k of every k-subset oracle call into the returned list."""
    calls = []
    for name, mod in list(sys.modules.items()):
        fn = getattr(mod, "first_singular_k_subset", None)
        if name.startswith("aqmds") and fn is not None:
            def counted(M, k, _fn=fn):
                calls.append(k)
                return _fn(M, k)
            monkeypatch.setattr(mod, "first_singular_k_subset", counted)
    return calls


class TestOracles:
    def test_two_k_subset_calls_per_certificate(self, monkeypatch):
        # the builders do not re-prove MDS: mds_dual_c1 and mds_c2 are the only
        # k-subset oracle calls on a closed_form certificate.  One call serves
        # both for PROP6, where C1 = C2.dual(), so that dual(C1) is C2.  TH12's
        # [[3,1,2/2]]_9 makes two: the full-weight word of rep-perp is (1, 1, 1)
        # in characteristic 3, so dual(C1) = line and C2 = rep.dual() have
        # the matrices of rep and rep-perp, but C2 is not line.dual(), so
        # line and C2 are proven once each
        calls = count_k_subset_calls(monkeypatch)
        seen = set()
        for q in (4, 5, 8, 9):
            picked = {}
            for c in enumerate_catalog(CatalogQuery(q=q)):
                picked.setdefault(c.recipe["construction"], c)
            for construction, c in picked.items():
                p = c.params
                calls.clear()
                make_certificate(q, p.n, p.k, p.dz, p.dx, c.family, c.recipe)
                assert len(calls) == (1 if construction == "PROP6" else 2), (q, construction)
            seen.update(picked)
        assert seen == set(FAMILY_TAGS)

    def test_j0_full_oracle_proves_each_code_once(self, monkeypatch):
        # q^k over the cap: the distances come from the codes' MDS verdicts.
        # C1 = C2.dual(), so dual(C1) is C2, and the one proof that
        # mds_dual_c1 made serves mds_c2 and both distances
        calls = count_k_subset_calls(monkeypatch)
        monkeypatch.setenv("AQMDS_MAX_ENUM", "1000")
        r = exists(9, 10, 0, 6, 6, verify_level="full_oracle")
        assert r.certificate.verified
        assert r.certificate.oracle_log == [
            "nesting:pass", "mds_dual_c1:pass", "mds_c2:pass", "dimensions:pass",
            "singleton_equality:pass", "distances_exact:pass"]
        assert len(calls) == 1

    def test_non_mds_sides_fail(self):
        # [4,2]_3 with two zero columns; its dual is non-MDS too
        f = make_field(3)
        C = from_generator(GfMatrix(f, np.array([[1, 0, 0, 0], [0, 1, 0, 0]], dtype=np.uint8)))
        claimed = AqcParams(q=3, n=4, k=0, dz=3, dx=3, pure=True, aqmds=True)
        verified, log = run_oracles(claimed, make_pair(C.dual(), C), "closed_form")
        assert not verified
        assert "mds_dual_c1:FAIL" in log and "mds_c2:FAIL" in log
        claimed = AqcParams(q=3, n=4, k=2, dz=2, dx=2, pure=True, aqmds=True)
        verified, log = run_oracles(claimed, make_pair(C, full_space(f, 4)), "closed_form")
        assert not verified
        assert "mds_dual_c1:FAIL" in log and "mds_c2:pass" in log

    def test_full_space_c1_is_nested(self):
        # dual(C1) is the zero code, a subcode of every C2
        f = make_field(5)
        claimed = AqcParams(q=5, n=4, k=2, dz=3, dx=1, pure=True, aqmds=True)
        _, log = run_oracles(claimed, make_pair(full_space(f, 4), grs(f, 4, 2)),
                             "closed_form")
        assert log[0] == "nesting:pass"


@pytest.fixture(scope="module")
def q8_records():
    """The first record of each construction in the q=8 catalog, as a dict."""
    records = {}
    for cert in enumerate_catalog(CatalogQuery(q=8)):
        records.setdefault(cert.recipe["construction"], certificate_to_dict(cert))
    assert set(records) == set(FAMILY_TAGS)
    return records


class TestVerify:
    def test_round_trip(self):
        cert = exists(5, 5, 1, 3, 3).certificate
        refreshed = verify(cert)
        assert refreshed.verified
        assert "purity:pass" in refreshed.oracle_log
        # idempotent
        again = verify(refreshed)
        assert again.oracle_log == refreshed.oracle_log

    def test_tampered_dz_detected(self):
        cert = exists(5, 5, 1, 3, 3).certificate
        d = certificate_to_dict(cert)
        d["dz"] += 1
        with pytest.raises(VerificationFailed) as exc:
            verify(certificate_from_dict(d))
        assert "singleton_equality" in str(exc.value)

    @pytest.mark.parametrize("edit, field", [
        ({"q": 5}, "q"),
        ({"n": 6, "dz": 4}, "n"),  # keeps the Singleton equality
        ({"pure": False}, "pure"),
        ({"aqmds": False}, "aqmds"),
    ])
    def test_tampered_header_rejected(self, edit, field, monkeypatch):
        # a cap of 10 skips the distance oracles: the header check needs none
        d = certificate_to_dict(exists(7, 5, 1, 3, 3).certificate)
        monkeypatch.setenv("AQMDS_MAX_ENUM", "10")
        with pytest.raises(VerificationFailed) as exc:
            verify(certificate_from_dict({**d, **edit}))
        assert str(exc.value) == f"header_{field}"

    @pytest.mark.parametrize("field", ["n", "j"])
    @pytest.mark.parametrize("construction", FAMILY_TAGS)
    def test_tampered_recipe_field_rejected(self, construction, field, q8_records):
        # only PROP5's and TH7's builds read n, and only TH7's reads j: every
        # other edit is caught by comparing the field with the rebuilt pair
        d = q8_records[construction]
        recipe = {**d["recipe"], field: d["recipe"][field] + 1}
        with pytest.raises(AqmdsError) as exc:
            verify(certificate_from_dict({**d, "recipe": recipe}))
        if (construction, field) not in {("PROP5", "n"), ("TH7", "n"), ("TH7", "j")}:
            assert type(exc.value) is VerificationFailed
            assert str(exc.value) == f"recipe_{field}"

    @pytest.mark.parametrize("delta", [-1, 1])
    @pytest.mark.parametrize("construction", ["PROP5", "PROP6", "TH12", "COR10", "TH11"])
    def test_unread_recipe_k_changes_nothing(self, construction, delta, q8_records):
        # these rebuilds never read k: the edited recipe builds the same pair
        # and verifies to the same record, so the edit carries no false claim
        d = q8_records[construction]
        recipe = {**d["recipe"], "k": d["recipe"]["k"] + delta}
        pair, edited = build_pair_from_recipe(d["recipe"]), build_pair_from_recipe(recipe)
        assert (edited.c1, edited.c2) == (pair.c1, pair.c2)
        refreshed = certificate_to_dict(verify(certificate_from_dict({**d, "recipe": recipe})))
        assert refreshed == {**certificate_to_dict(verify(certificate_from_dict(d))), "recipe": recipe}

    @pytest.mark.parametrize("field, mistyped", [
        ("verified", lambda d: "false"),  # a non-empty string is truthy
        ("oracle_log", lambda d: " ".join(d["oracle_log"])),  # it would split into characters
        ("recipe", lambda d: [list(item) for item in d["recipe"].items()]),  # it would become a dict
    ], ids=["verified", "oracle_log", "recipe"])
    def test_mistyped_field_refused(self, field, mistyped):
        d = certificate_to_dict(exists(7, 5, 1, 3, 3).certificate)
        assert d["recipe"]["construction"] == "TH7"
        with pytest.raises(AqmdsError) as exc:
            certificate_from_dict({**d, field: mistyped(d)})
        assert type(exc.value) is AqmdsError
        assert str(exc.value).startswith(f"malformed certificate: {field} must be")

    def test_recipe_must_name_its_points(self, tmp_path):
        # a builder reads None as its defaults: an alpha or v of null or []
        # must be refused, never built from the defaults and echoed as given
        firsts = {}
        for cert in enumerate_catalog(CatalogQuery(q=8)):
            recipe = cert.recipe
            part = recipe.get("code") or recipe.get("source") or {}
            if {"alpha", "v"} & (set(recipe) | set(part)):
                firsts.setdefault((recipe["construction"], part.get("type")),
                                  certificate_to_dict(cert))
        edited = []
        for record in firsts.values():
            for where in ("recipe", "code", "source"):
                for name in ("alpha", "v"):
                    for value in (None, []):
                        copy = json.loads(json.dumps(record))
                        part = copy["recipe"] if where == "recipe" else copy["recipe"].get(where)
                        if part and name in part:
                            part[name] = value
                            edited.append(copy)
        assert len(edited) == 38
        path = tmp_path / "cert.json"
        for copy in edited:
            with pytest.raises(AqmdsError) as exc:
                verify(certificate_from_dict(copy))
            assert type(exc.value) is AqmdsError, copy["recipe"]
            path.write_text(json.dumps(copy))
            assert main(["verify", str(path)]) == 2, copy["recipe"]

    @pytest.mark.parametrize("n, dz, dx", [(5, 4, 3), (7, 5, 4)])
    def test_j0_swapped_distances_rejected(self, n, dz, dx):
        # dz-1/dx+1 keeps the Singleton equality but swaps the ordered pair
        d = certificate_to_dict(exists(7, n, 0, dz, dx).certificate)
        with pytest.raises(VerificationFailed) as exc:
            verify(certificate_from_dict({**d, "dz": dz - 1, "dx": dx + 1}))
        assert str(exc.value) == "distances_exact"

    def test_false_split_rejected_above_cap(self):
        # [[17,2,10/7]]_16 claimed as 9/8: both distance oracles are over the
        # cap, and the split still has to match the MDS distances 10 and 7
        d = certificate_to_dict(exists(16, 17, 2, 10, 7).certificate)
        assert d["recipe"]["construction"] == "TH8"
        with pytest.raises(VerificationFailed) as exc:
            verify(certificate_from_dict({**d, "dz": 9, "dx": 8}))
        assert str(exc.value) == "mds_distances"

    @pytest.mark.parametrize("q", [4, 5, 7, 8, 9, 11, 13])
    def test_mds_distances_hold_on_catalog(self, q, monkeypatch):
        # at cap 10 no distance oracle runs, so mds_distances is the only
        # check on the split of a genuine certificate
        certs = enumerate_catalog(CatalogQuery(q=q))
        monkeypatch.setenv("AQMDS_MAX_ENUM", "10")
        for cert in certs:
            verify(cert)

    def test_tampered_j_on_j0_pair_fails_dimensions(self):
        # claimed j = 1 on a j = 0 pair: no codeword lies outside the other
        # side's dual, so the side scans find no outside weight at all
        d = certificate_to_dict(exists(7, 5, 0, 4, 3).certificate)
        with pytest.raises(VerificationFailed) as exc:
            verify(certificate_from_dict({**d, "j": 1, "dz": 3, "dx": 3}))
        assert str(exc.value) == "dimensions"

    def test_prop6_certificate_gf3(self):
        cert = exists(3, 4, 0, 3, 3).certificate
        refreshed = verify(cert)
        assert refreshed.verified
        assert "PROP6" in cert.family

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
    def test_full_oracle_soundness(self, q):
        # every emitted certificate passes all oracles that fit the cap;
        # capped enumerations appear as skipped entries, never as passes
        for cert in enumerate_catalog(CatalogQuery(q=q, verify_level="full_oracle")):
            assert cert.verified, certificate_to_dict(cert)
            assert not any(e.endswith("FAIL") for e in cert.oracle_log)


class TestOneCheckPath:
    @pytest.mark.parametrize("q, n, j, dz, dx, first_failed", [
        (7, 7, 1, 5, 3, "header_n"),
        (5, 6, 1, 4, 3, "header_q"),
        (7, 6, 1, 5, 2, "mds_distances"),  # right sum, wrong split
    ])
    def test_false_claims_not_verified(self, q, n, j, dz, dx, first_failed, monkeypatch):
        # each claim rides on the recipe of [[6,1,4/3]]_7, whose oracles all
        # pass at closed_form; make_certificate and verify run the same checks
        source = exists(7, 6, 1, 4, 3).certificate
        cert = make_certificate(q, n, j, dz, dx, source.family, source.recipe)
        assert not cert.verified
        monkeypatch.setenv("AQMDS_MAX_ENUM", "10")
        with pytest.raises(VerificationFailed) as exc:
            verify(cert)
        assert str(exc.value) == first_failed

    @pytest.mark.parametrize("level", ["closed_form", "full_oracle"])
    def test_zero_code_pair_refused(self, level):
        # PROP6 on the full space pairs it with its zero dual; the claim
        # dz = 4 at length 3 must be refused, never verified
        with pytest.raises(AqmdsError, match="^C1 is the zero code"):
            make_certificate(3, 3, 0, 4, 1, ZERO_CODE_RECORD["family"],
                             ZERO_CODE_RECORD["recipe"], level)

    @pytest.mark.parametrize("q", [3, 4, 5, 7, 8])
    def test_exists_certificate_is_the_catalog_record(self, q):
        for cert in enumerate_catalog(CatalogQuery(q=q)):
            p = cert.params
            r = exists(q, p.n, p.k, p.dz, p.dx)
            assert certificate_to_dict(r.certificate) == certificate_to_dict(cert)


class TestLengthBound:
    """A length no accepted field reaches, or an MDS test past the k-subset
    oracle's cap, is refused before anything is built."""

    ADDRESS_LIMIT = 2 << 30  # bytes: far below what a length of 10^6 asks for

    def run_limited(self, code):
        """Run `code` in a child Python with a capped address space, so that an
        unbounded length fails there with MemoryError instead of allocating."""
        limit = f"import resource; resource.setrlimit(resource.RLIMIT_AS, " \
                f"({self.ADDRESS_LIMIT}, {self.ADDRESS_LIMIT}))\n"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
        return subprocess.run([sys.executable, "-c", limit + code], env=env,
                              capture_output=True, text=True, timeout=120)

    @pytest.mark.parametrize("n", [10, FIELD_CAP + 2])
    def test_prop6_within_bound_certified(self, n):
        r = exists(3, n, 0, n, 2)
        assert r.exists and r.certificate is not None and r.certificate.verified

    def test_prop6_above_bound_skips_certificate(self):
        r = exists(3, FIELD_CAP + 3, 0, FIELD_CAP + 3, 2)
        assert r.exists and r.certificate is None
        assert r.reason.startswith("exists; certificate construction skipped")

    def test_huge_prop6_length_allocates_nothing(self):
        result = self.run_limited(
            "import json, time\n"
            "from aqmds.catalog import exists\n"
            "start = time.perf_counter()\n"
            "r = exists(3, 10 ** 6, 0, 10 ** 6, 2)\n"
            "print(json.dumps([r.exists, r.certificate is None, r.reason,"
            " time.perf_counter() - start]))\n")
        assert result.returncode == 0, result.stderr
        found, skipped, reason, seconds = json.loads(result.stdout)
        assert found and skipped and "certificate construction skipped" in reason
        assert seconds < 1

    def test_mds_test_past_the_cap_allocates_nothing(self):
        # C(64, 32) column subsets of a GRS generator with entry (5, 40) of its
        # A changed, so that the Cauchy test leaves it undecided: the cap
        # stops the test before any minor
        result = self.run_limited(
            "import json, time\n"
            "from aqmds.construct import grs\n"
            "from aqmds.errors import CapExceeded\n"
            "from aqmds.gf import make_field\n"
            "from aqmds.matrix import GfMatrix, first_singular_k_subset\n"
            "G = grs(make_field(64), 64, 32).G.data.copy()\n"
            "G[5, 40] = 1 if G[5, 40] != 1 else 2\n"
            "G = GfMatrix(make_field(64), G)\n"
            "start = time.perf_counter()\n"
            "try:\n"
            "    first_singular_k_subset(G, 32)\n"
            "except CapExceeded as exc:\n"
            "    print(json.dumps([str(exc), time.perf_counter() - start]))\n")
        assert result.returncode == 0, result.stderr
        message, seconds = json.loads(result.stdout)
        assert message.startswith("the k-subset test of a 32x64 matrix over GF(64) needs ")
        assert seconds < 1

    def test_mds_test_at_the_cap_fits_the_address_limit(self):
        # [I | A] with A 2 x 5539 needs 536,823,297 bytes, just under the cap of
        # 2^29: 35 per 2 x 2 minor of A, in the minors and the column subset table
        result = self.run_limited(
            "import json\n"
            "import numpy as np\n"
            "from aqmds.errors import CapExceeded\n"
            "from aqmds.gf import make_field\n"
            "from aqmds.matrix import GfMatrix, first_singular_k_subset\n"
            "out = []\n"
            "for m in (5539, 5540):\n"
            "    A = np.random.default_rng(0).integers(1, 64, size=(2, m), dtype=np.uint8)\n"
            "    G = GfMatrix(make_field(64), np.hstack([np.eye(2, dtype=np.uint8), A]))\n"
            "    try:\n"
            "        out.append(first_singular_k_subset(G, 2))\n"
            "    except CapExceeded as exc:\n"
            "        out.append(str(exc))\n"
            "print(json.dumps(out))\n")
        assert result.returncode == 0, result.stderr
        subset, refused = json.loads(result.stdout)
        assert len(subset) == 2  # 5539 columns over GF(64) hold two proportional ones
        assert refused == ("the k-subset test of a 2x5542 matrix over GF(64) needs 537017164 "
                           "bytes at one level of minors, more than the cap 536870912")

    @pytest.mark.parametrize("recipe", [
        {"construction": "PROP6", "k": 1, "code": {"type": "repetition", "n": 10 ** 6}},
        {"construction": "PROP5", "k": 3, "code": {"type": "full", "n": 3}},
    ], ids=["prop6_source_n", "prop5_top_level_n"])
    def test_verify_huge_length_exits_2(self, tmp_path, recipe):
        record = certificate_to_dict(exists(3, 10, 0, 10, 2).certificate)
        record.update(n=10 ** 6, dz=10 ** 6)
        record["recipe"] = {"q": 3, "n": 10 ** 6, "j": 0, "alpha_convention": "zero_last",
                            **recipe}
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(record))
        result = self.run_limited(
            f"from aqmds.cli import main\nraise SystemExit(main(['verify', {str(path)!r}]))\n")
        assert result.returncode == 2, result.stderr
        assert "exceeds" in result.stderr

    @pytest.mark.parametrize("recipe, n", [
        ({"construction": "PROP5", "k": 3, "n": -3, "code": {"type": "full", "n": 3}}, -3),
        ({"construction": "PROP5", "k": 3, "n": 10, "code": {"type": "full", "n": -1}}, -1),
        ({"construction": "PROP6", "k": 1, "code": {"type": "repetition", "n": -2}}, -2),
    ], ids=["prop5_top_level_n", "prop5_source_n", "prop6_source_n"])
    def test_verify_negative_length_exits_2(self, tmp_path, capsys, recipe, n):
        record = certificate_to_dict(exists(3, 10, 0, 10, 2).certificate)
        record["recipe"] = {"q": 3, "n": 10, "j": 0, "alpha_convention": "zero_last", **recipe}
        with pytest.raises(AqmdsError, match=f"length {n} is not positive"):
            verify(certificate_from_dict(record))
        path = tmp_path / "negative.json"
        path.write_text(json.dumps(record))
        assert main(["verify", str(path)]) == 2
        assert f"error: length {n} is not positive" in capsys.readouterr().err

    def test_css_huge_length_exits_2(self):
        result = self.run_limited(
            "from aqmds.cli import main\n"
            "raise SystemExit(main(['css', '--family', 'prop6', '--q', '3',"
            " '--n', '1000000', '--k', '1']))\n")
        assert result.returncode == 2, result.stderr
        assert "exceeds" in result.stderr


def record_proven_matrices(monkeypatch) -> list:
    """Record every matrix the k-subset oracle proves, the object itself, so
    that the ids of the recorded matrices stay distinct."""
    proven = []
    for name, mod in list(sys.modules.items()):
        fn = getattr(mod, "first_singular_k_subset", None)
        if name.startswith("aqmds") and fn is not None:
            def recorded(M, k, _fn=fn):
                proven.append(M)
                return _fn(M, k)
            monkeypatch.setattr(mod, "first_singular_k_subset", recorded)
    return proven


def verify_outcome(record, store=None):
    """The refreshed record verify returns, or the name of the error it raises."""
    try:
        return certificate_to_dict(verify(certificate_from_dict(record), store=store))
    except VerificationFailed as exc:
        return ("VerificationFailed", str(exc))
    except AqmdsError as exc:
        return (type(exc).__name__, str(exc))


def tampered_copies(record):
    """Copies of a catalog record with one field edited: dz or dx moved by
    one, the header q changed, one column multiplier scaled or zeroed, the
    evaluation points permuted or one repeated, or the constant term of the
    TH8 polynomial shifted, which makes another irreducible or a reducible."""
    def multipliers(r):  # the part of the recipe that holds v, if any
        recipe = r["recipe"]
        return next((d for d in (recipe, recipe.get("code"), recipe.get("source"))
                     if d and "v" in d), None)

    def scale_v(r, src):
        src["v"][-1] = 2 * src["v"][-1] % r["q"]

    def zero_v(r, src):
        src["v"][0] = 0

    def permute_alpha(r, src):
        src["alpha"].reverse()

    def repeat_alpha(r, src):
        src["alpha"][-1] = src["alpha"][0]

    def shift_irreducible(r, src):
        poly = r["recipe"]["irreducible"]
        poly[0] = (poly[0] + 1) % r["q"]

    edits = [lambda r, src: r.update(dz=r["dz"] + 1),
             lambda r, src: r.update(dz=r["dz"] - 1, dx=r["dx"] + 1),
             lambda r, src: r.update(q=12 - r["q"])]  # 5 <-> 7
    src = multipliers(record)
    if src is not None:
        edits += [scale_v, zero_v] + ([permute_alpha, repeat_alpha] if "alpha" in src else [])
    if "irreducible" in record["recipe"]:
        edits.append(shift_irreducible)
    copies = []
    for edit in edits:
        copy = json.loads(json.dumps(record))
        edit(copy, multipliers(copy))
        copies.append(copy)
    return copies


class TestCodeStore:
    """One store per run: each code built once and proven MDS once with its
    dual, nothing kept between calls, and no recipe trusted for another's code."""

    @pytest.mark.parametrize("q", [4, 5, 7, 8])
    def test_catalog_proves_each_matrix_once(self, monkeypatch, q):
        # each matrix object: a code is proven on its own G, and its dual()
        # on the G that is the code's H, so no code is proven twice, and never
        # both a code and its dual().  Codes with equal matrices held by
        # different objects are proven once each
        proven = record_proven_matrices(monkeypatch)
        duals = []
        dual = LinearCode.dual

        def recorded(C):
            duals.append((C, dual(C)))
            return duals[-1][1]
        monkeypatch.setattr(LinearCode, "dual", recorded)
        enumerate_catalog(CatalogQuery(q=q))
        ids = {id(M) for M in proven}
        assert proven and len(ids) == len(proven)
        assert duals and not any(id(C.G) in ids and id(D.G) in ids for C, D in duals)

    @pytest.mark.parametrize("n, k", [(7, 2), (7, 5), (6, 3), (5, 5)])
    def test_dual_answered_without_a_second_proof(self, monkeypatch, n, k):
        # a GRS code of each [n, k]_8 and, for k < n, a code with equal last
        # columns, so not MDS.  dual() answers from the code's one proof; a
        # code rebuilt from H is another code and proves itself.  The dual of
        # the full space is the zero code, which is never MDS and needs no proof
        f = make_field(8)
        codes = [(grs(f, n, k), True)]
        if k < n:
            A = np.hstack([np.eye(k, dtype=np.uint8), np.ones((k, n - k), dtype=np.uint8)])
            codes.append((from_generator(GfMatrix(f, A)), False))
        calls = count_k_subset_calls(monkeypatch)
        for C, mds in codes:
            calls.clear()
            assert C.is_mds() is mds
            assert C.dual().is_mds() is (mds and k < n)
            assert C.dual().dual() is C
            assert len(calls) == 1
            if k < n:
                assert from_generator(C.H).is_mds() is mds
                assert len(calls) == 2

    def test_no_cache_between_calls(self, monkeypatch):
        proven = record_proven_matrices(monkeypatch)
        cert = exists(7, 6, 1, 4, 3).certificate
        counts = []
        for call in (lambda: verify(cert), lambda: verify(cert),
                     lambda: exists(7, 6, 1, 4, 3), lambda: exists(7, 6, 1, 4, 3)):
            proven.clear()
            call()
            counts.append(len(proven))
        assert counts == [2, 2, 2, 2]

    def test_each_code_keeps_its_own_verdict(self, monkeypatch):
        # two [4,2]_5 generators of one shape, one MDS and one not: one proof each
        f = make_field(5)
        mds = grs(f, 4, 2)
        not_mds = from_generator(GfMatrix(f, np.array([[1, 0, 1, 0], [0, 1, 0, 1]], dtype=np.uint8)))
        assert mds.G.data.shape == not_mds.G.data.shape
        calls = count_k_subset_calls(monkeypatch)
        assert [C.is_mds() for C in (mds, not_mds, mds, not_mds)] == [True, False, True, False]
        assert len(calls) == 2

    def test_tampered_records_get_their_own_outcome(self):
        # one record of each recipe layout at q = 5 and 7, interleaved, and
        # tampered copies of each; through one store, in either order, every
        # record gets the outcome it gets alone
        layouts = {}
        for q in (5, 7):
            for cert in enumerate_catalog(CatalogQuery(q=q)):
                r = cert.recipe
                source = r.get("code", r.get("source", {})).get("type")
                layouts.setdefault((q, r["construction"], source), certificate_to_dict(cert))
        genuine = [layouts[key] for key in sorted(layouts, key=lambda key: (key[1:], key[0]))]
        tampered = [t for r in genuine for t in tampered_copies(r)]
        alone = {json.dumps(r): verify_outcome(r) for r in genuine + tampered}
        assert sum(isinstance(o, dict) for o in alone.values()) > len(genuine)
        assert sum(isinstance(o, tuple) for o in alone.values()) > len(genuine)
        for records in (genuine + tampered, tampered + genuine):
            store = CodeStore()
            for r in records:
                assert verify_outcome(r, store) == alone[json.dumps(r)], r

    def test_verify_file_matches_record_by_record(self, tmp_path, capsys):
        # the file's records share one store; the lines, the first failure
        # and the exit code are those of verifying each record alone
        records = [certificate_to_dict(c) for c in enumerate_catalog(CatalogQuery(q=5))]
        bad = {**records[20], "dz": records[20]["dz"] + 1}
        path = tmp_path / "catalog.json"
        path.write_text(json.dumps(records[:30] + [bad] + records[30:]))
        expected = [f"{verify(certificate_from_dict(r)).params}: verified" for r in records[:30]]
        assert main(["verify", str(path)]) == 3
        out, err = capsys.readouterr()
        assert out.splitlines() == expected
        assert err == f"verification failed: {verify_outcome(bad)[1]}\n"
