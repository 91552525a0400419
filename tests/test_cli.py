"""Command-line front end: subcommands, formats, exit codes, round trips."""
import hashlib
import json
import sys
import time
from typing import NamedTuple, Optional, Tuple

import numpy as np
import pytest

from aqmds import cli
from aqmds.cli import main
from aqmds.code import from_generator
from aqmds.gf import make_field
from aqmds.matrix import GfMatrix, rank

from test_catalog import ZERO_CODE_RECORD


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def no_search(*args):
    raise AssertionError("find_irreducible called")


# the css options of the [[5,1,3/3]]_7 TH7 record
TH7_Q7 = ("--family", "th7", "--q", "7", "--n", "5", "--k", "2", "--j", "1")


def edited_record(capsys, tmp_path, edit, *css_args):
    """The path of the record `css css_args --emit-cert` writes, after edit(record)."""
    path = tmp_path / "cert.json"
    run(capsys, "css", *css_args, "--emit-cert", str(path))
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))
    return path


class TestConstruct:
    def test_grs(self, capsys):
        code, out, _ = run(capsys, "construct", "grs", "--q", "5", "--n", "5", "--k", "2")
        assert code == 0
        assert "[5,2,4]_5 MDS=true" in out

    def test_qplus2_low(self, capsys):
        code, out, _ = run(capsys, "construct", "qplus2-low", "--q", "4")
        assert code == 0
        assert "[6,3,4]_4 MDS=true" in out

    def test_n_exceeds_q(self, capsys):
        code, _, err = run(capsys, "construct", "grs", "--q", "5", "--n", "6", "--k", "2")
        assert code == 2
        assert "n exceeds q" in err

    def test_grs_subcode(self, capsys):
        code, out, _ = run(capsys, "construct", "grs-subcode",
                           "--q", "5", "--k", "4", "--r", "2")
        assert code == 0
        assert "[6,2,5]_5 MDS=true" in out
        assert "irreducible polynomial" in out

    def test_custom_alpha_v(self, capsys):
        code, out, _ = run(capsys, "construct", "grs", "--q", "5", "--n", "4",
                           "--k", "2", "--alpha", "0,1,2,3", "--v", "1,2,3,4")
        assert code == 0
        assert "[4,2,3]_5 MDS=true" in out

    @pytest.mark.parametrize("builder, sizes, option, message", [
        ("grs", ("--n", "5", "--k", "2"), "--alpha", "alpha must be n pairwise distinct elements"),
        ("grs", ("--n", "5", "--k", "2"), "--v", "v must be n nonzero field elements"),
        ("extended-grs", ("--k", "2"), "--alpha", "alpha must cover q distinct points"),
        ("extended-grs", ("--k", "2"), "--v", "v must be q+1 nonzero elements"),
    ], ids=["grs-alpha", "grs-v", "extended-grs-alpha", "extended-grs-v"])
    def test_empty_points_refused(self, capsys, builder, sizes, option, message):
        # an empty list is checked as given, never read as the default points
        code, out, err = run(capsys, "construct", builder, "--q", "5", *sizes, option, "")
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_enum_cap_does_not_apply(self, capsys, monkeypatch):
        # MDS is proven on k-column subsets; no codeword is enumerated
        monkeypatch.setenv("AQMDS_MAX_ENUM", "10")
        code, out, _ = run(capsys, "construct", "grs", "--q", "5", "--n", "5", "--k", "2")
        assert code == 0
        assert "[5,2,4]_5 MDS=true" in out

    def test_non_mds_output_exits_3(self, capsys, monkeypatch):
        # construct proves the builder's output itself, so a broken builder fails
        bad = from_generator(GfMatrix(make_field(5), np.array([[1, 0, 0, 0], [0, 1, 0, 0]],
                                                               dtype=np.uint8)))
        monkeypatch.setattr(cli, "grs", lambda *args: bad)
        code, out, err = run(capsys, "construct", "grs", "--q", "5", "--n", "4", "--k", "2")
        assert (code, out) == (3, "")
        assert "not MDS [4,2]" in err
        # and names a witness: columns of G that are not independent
        columns = json.loads(err.split(": columns ")[1].removesuffix(" are singular\n"))
        assert len(columns) == 2 and rank(GfMatrix(bad.field, bad.G.data[:, columns])) < 2

    @pytest.mark.parametrize("k, r", [("10", "-100"), ("100", "4"), ("10", "9")])
    def test_grs_subcode_bad_k_or_r_exits_2_before_any_search(self, capsys, monkeypatch, k, r):
        # k - r = 110 or 96 would be a long search; the builder refuses the range first
        monkeypatch.setattr(cli, "find_irreducible", no_search)
        code, out, err = run(capsys, "construct", "grs-subcode", "--q", "16", "--k", k, "--r", r)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {'k=' + k if k == '100' else 'r=' + r} must satisfy")

    def test_mds_test_past_the_cap_exits_2(self, capsys):
        # a [64,32] code has C(64, 32) column subsets: refused before any minor
        code, out, err = run(capsys, "construct", "grs", "--q", "64", "--n", "64", "--k", "32")
        assert (code, out) == (2, "")
        assert err.startswith("error: the k-subset test of a 32x64 matrix over GF(64) needs ")
        assert err.endswith(" bytes at one level of minors, more than the cap 536870912\n")

    def test_malformed_alpha_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["construct", "grs", "--q", "5", "--n", "4", "--k", "2", "--alpha", "1,x"])
        assert exc.value.code == 2
        assert "expected comma-separated integers" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["-5", "0", "x"])
def test_bad_enum_cap_exits_2(capsys, monkeypatch, value):
    monkeypatch.setenv("AQMDS_MAX_ENUM", value)
    code, _, err = run(capsys, "exists", "--q", "5", "--n", "7", "--j", "1",
                       "--dz", "3", "--dx", "3")
    assert code == 2
    assert "AQMDS_MAX_ENUM must be a positive integer" in err


class TestCss:
    def test_th7(self, capsys):
        code, out, _ = run(capsys, "css", "--family", "th7", "--q", "5",
                           "--n", "5", "--k", "2", "--j", "1")
        assert code == 0
        assert "[[5,1,3/3]]_5 pure AQMDS" in out

    def test_th11_q8(self, capsys):
        code, out, _ = run(capsys, "css", "--family", "th11", "--q", "8")
        assert code == 0
        assert "[[10,4,4/4]]_8" in out

    def test_th8_j_too_small(self, capsys):
        code, _, err = run(capsys, "css", "--family", "th8", "--q", "4",
                           "--k", "3", "--j", "1")
        assert code == 2
        assert "2 <= j <= k-1" in err

    def test_cor10(self, capsys):
        code, out, _ = run(capsys, "css", "--family", "cor10", "--q", "4")
        assert code == 0
        assert "[[5,1,3/3]]_4" in out

    def test_emit_cert(self, capsys, tmp_path):
        path = tmp_path / "cert.json"
        code, out, _ = run(capsys, "css", "--family", "th12", "--q", "5",
                           "--n", "5", "--k", "3", "--emit-cert", str(path))
        assert code == 0
        payload = json.loads(path.read_text())
        assert (payload["q"], payload["n"], payload["j"]) == (5, 5, 2)
        assert payload["dx"] == 2 and payload["verified"]


    @pytest.mark.parametrize("family, k, low", [
        ("prop5", 5, 1), ("prop6", 5, 1), ("th12", 5, 2),
        ("prop5", 0, 1), ("prop6", 0, 1), ("th12", 1, 2),
    ])
    def test_out_of_family_k_exits_2(self, capsys, tmp_path, family, k, low):
        # k = n is outside each family: prop6 would claim [[5,0,6/1]]_5 (dz > n),
        # th12 [[5,4,1/2]]_5 (dz < dx), and prop5 has no MDS dual(C1)
        path = tmp_path / "cert.json"
        code, out, err = run(capsys, "css", "--family", family, "--q", "5", "--n", "5",
                             "--k", str(k), "--emit-cert", str(path))
        assert (code, out) == (2, "")
        assert f"{family} requires {low} <= k <= n-1" in err
        assert not path.exists()

    @pytest.mark.parametrize("q", [4, 5, 8])
    def test_emits_the_catalog_record(self, capsys, tmp_path, q):
        # one writer for recipes: css with the options of a catalog recipe's
        # construction emits that certificate, up to its family list
        _, out, _ = run(capsys, "enumerate", "--q", str(q), "--format", "json")
        path = tmp_path / "cert.json"
        for rec in json.loads(out):
            recipe = rec["recipe"]
            family = recipe["construction"]
            argv = ["css", "--family", family.lower(), "--q", str(q), "--emit-cert", str(path)]
            if family in ("TH7", "TH12", "PROP5", "PROP6"):
                argv += ["--n", str(rec["n"])]
            if family in ("TH7", "TH8"):
                argv += ["--j", str(rec["j"])]
            if family not in ("TH11", "COR10"):
                argv += ["--k", str(rec["j"] + 1 if family == "TH12" else recipe["k"])]
            code, _, err = run(capsys, *argv)
            assert code == 0, (argv, err)
            emitted = json.loads(path.read_text())
            assert emitted["family"] == [family]
            for key in ("q", "n", "j", "dz", "dx", "pure", "aqmds", "recipe", "oracle_log"):
                assert emitted[key] == rec[key], (argv, key)
            assert list(emitted["recipe"]) == list(recipe)


class TestEnumerate:
    def test_json_count_golden(self, capsys):
        from th14_expansion import GOLDEN_COUNT_Q4
        code, out, _ = run(capsys, "enumerate", "--q", "4", "--format", "json")
        assert code == 0
        assert len(json.loads(out)) == GOLDEN_COUNT_Q4

    def test_csv_header(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--q", "4", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "q,n,j,dz,dx,pure,aqmds,family"

    def test_formats_agree_on_tuples(self, capsys):
        _, js, _ = run(capsys, "enumerate", "--q", "5", "--format", "json")
        _, csv_out, _ = run(capsys, "enumerate", "--q", "5", "--format", "csv")
        _, table, _ = run(capsys, "enumerate", "--q", "5", "--format", "table")
        from_json = {(d["n"], d["j"], d["dz"], d["dx"]) for d in json.loads(js)}
        from_csv = set()
        for line in csv_out.splitlines()[1:]:
            parts = line.split(",")
            from_csv.add(tuple(int(x) for x in parts[1:5]))
        from_table = set()
        for line in table.splitlines()[1:]:
            parts = line.split()
            if parts and parts[0] == "5" and len(parts) >= 8:
                from_table.add(tuple(int(x) for x in parts[1:5]))
        assert from_json == from_csv == from_table

    def test_bad_q(self, capsys):
        code, _, err = run(capsys, "enumerate", "--q", "6")
        assert code == 2
        assert "prime power" in err

    def test_q_over_field_cap_exits_2(self, capsys):
        code, out, err = run(capsys, "enumerate", "--q", "1009")
        assert (code, out) == (2, "")
        assert err == "error: q=1009 exceeds the field cap 64\n"


@pytest.mark.parametrize("argv", [
    ("enumerate",), ("exists", "--n", "4", "--j", "0", "--dz", "3", "--dx", "3")],
    ids=["enumerate", "exists"])
def test_mersenne_61_exits_2_at_once(capsys, argv):
    # 2^61 - 1 is prime: trial division would take hours before any answer
    start = time.perf_counter()
    code, out, _ = run(capsys, argv[0], "--q", str((1 << 61) - 1), *argv[1:])
    assert (code, out) == (2, "")
    assert time.perf_counter() - start < 1


class TestExists:
    def test_negative_with_reason(self, capsys):
        code, out, _ = run(capsys, "exists", "--q", "5", "--n", "7", "--j", "1",
                           "--dz", "3", "--dx", "3")
        assert code == 0
        assert "no (length exceeds q+1 for odd q)" in out

    def test_positive_prints_certificate(self, capsys):
        code, out, _ = run(capsys, "exists", "--q", "8", "--n", "10", "--j", "4",
                           "--dz", "4", "--dx", "4")
        assert code == 0
        assert out.startswith("yes")
        payload = json.loads(out.split("\n", 1)[1])
        assert "TH11" in payload["family"]

    def test_mds_test_past_the_cap_skips_the_certificate(self, capsys):
        code, out, _ = run(capsys, "exists", "--q", "64", "--n", "64", "--j", "2",
                           "--dz", "32", "--dx", "32")
        assert code == 0
        assert out.startswith("yes\n(exists; certificate construction skipped: the k-subset test"
                              " of a 31x64 matrix over GF(64) needs ")


class TestVerifyCommand:
    def test_round_trip_single(self, capsys, tmp_path):
        path = tmp_path / "th11.json"
        run(capsys, "css", "--family", "th11", "--q", "8", "--emit-cert", str(path))
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 0
        assert "verified" in out

    def test_skipped_oracles_named(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "th7.json"
        run(capsys, "css", "--family", "th7", "--q", "7", "--n", "5",
            "--k", "2", "--j", "1", "--emit-cert", str(path))
        code, out, _ = run(capsys, "verify", str(path))
        assert (code, out) == (0, "[[5,1,3/3]]_7 pure AQMDS: verified\n")
        monkeypatch.setenv("AQMDS_MAX_ENUM", "10")  # below the 7^3 words of either side
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 0
        assert out == ("[[5,1,3/3]]_7 pure AQMDS: verified except skipped(cap): "
                       "distance_c2_side, distance_c1_side\n")

    def test_unnested_recipe_exits_2_with_witness(self, capsys, tmp_path):
        # TH7 with j = -1 pairs GRS [5,2] with GRS [5,1]: the rebuilt pair is
        # refused when it is made, before any oracle runs
        path = edited_record(capsys, tmp_path, lambda d: d["recipe"].update(j=-1), *TH7_Q7)
        code, out, err = run(capsys, "verify", str(path))
        assert (code, out) == (2, "")
        assert err == "error: dual(C1) not contained in C2; witness row [1, 0, 6, 5, 4]\n"

    def test_zero_code_pair_exits_2(self, capsys, tmp_path):
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(ZERO_CODE_RECORD))
        code, out, err = run(capsys, "verify", str(path))
        assert (code, out) == (2, "")
        assert err == "error: C1 is the zero code, which has no minimum distance\n"

    @pytest.mark.parametrize("key, value", [
        ("v", [1, 1, 1, 1, 6.9]), ("v", [1, 1, 1, 1, True]), ("alpha", [1.0, 2, 3, 4, 5]),
    ], ids=["v-float", "v-bool", "alpha-float"])
    def test_non_integer_field_element_exits_2(self, capsys, tmp_path, key, value):
        # an index of 6.9 would be truncated to 6, so the proven pair would
        # not be the one the recipe names
        path = edited_record(capsys, tmp_path, lambda d: d["recipe"].update({key: value}), *TH7_Q7)
        code, out, err = run(capsys, "verify", str(path))
        assert (code, out) == (2, "")
        assert err == "error: alpha and v entries must be integer element indices\n"

    @pytest.mark.parametrize("edit", [
        lambda d: d.update(q=7.0), lambda d: d.update(dz=3.0), lambda d: d.update(j=True),
        lambda d: d["recipe"].update(n=5.0), lambda d: d["recipe"].update(k=2.0),
        lambda d: d["recipe"].update(j=False),
    ], ids=["q-float", "dz-float", "j-bool", "recipe-n-float", "recipe-k-float", "recipe-j-bool"])
    def test_non_integer_number_exits_2(self, capsys, tmp_path, edit):
        # 7.0 == 7 and True == 1, so each of these passed every check and was echoed
        path = edited_record(capsys, tmp_path, edit, *TH7_Q7)
        code, out, err = run(capsys, "verify", str(path))
        assert (code, out) == (2, "")
        assert "must be an integer" in err

    @pytest.mark.parametrize("key", ["code", "source"])
    def test_source_numbers_must_be_integers(self, capsys, tmp_path, key):
        # a length of 6.0 built the [6, 3] code and verified
        family = {"code": "prop6", "source": "th12"}[key]
        path = edited_record(capsys, tmp_path, lambda d: d["recipe"][key].update(n=6.0),
                             "--family", family, "--q", "7", "--n", "6", "--k", "3")
        code, out, err = run(capsys, "verify", str(path))
        assert (code, out) == (2, "")
        assert err == "error: recipe n must be an integer, got 6.0\n"

    def test_source_of_wrong_shape_exits_2(self, capsys, tmp_path):
        path = edited_record(capsys, tmp_path, lambda d: d["recipe"].update(code=[1]),
                             "--family", "prop6", "--q", "7", "--n", "6", "--k", "3")
        code, out, err = run(capsys, "verify", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: malformed recipe:")

    # [[8,2,4/4]]_7 is built on x^2+1 and [[8,4,3/3]]_7 on an irreducible quartic
    TH8_DEGREE_2 = ("--family", "th8", "--q", "7", "--k", "5", "--j", "2")
    TH8_DEGREE_4 = ("--family", "th8", "--q", "7", "--k", "6", "--j", "4")

    def test_th8_replays_another_irreducible(self, capsys, tmp_path):
        path = edited_record(capsys, tmp_path, lambda d: None, *self.TH8_DEGREE_2)
        assert json.loads(path.read_text())["recipe"]["irreducible"] == [1, 0, 1]
        assert run(capsys, "verify", str(path)) == (0, "[[8,2,4/4]]_7 pure AQMDS: verified\n", "")
        path = edited_record(capsys, tmp_path, lambda d: d["recipe"].update(irreducible=[2, 0, 1]),
                             *self.TH8_DEGREE_2)
        assert run(capsys, "verify", str(path)) == (0, "[[8,2,4/4]]_7 pure AQMDS: verified\n", "")

    @pytest.mark.parametrize("poly", [
        None, [1.0, 0.0, 1.0], [1, 0, 1.0], [True, 0, 1], [1, 0, True], [7, 0, 1], [-1, 0, 1],
        [1, 0, 2], [1, 1], [1, 0, 0, 1], [6, 0, 1], "x^2+1", 5,
    ], ids=["missing", "float", "float-lead", "bool", "bool-lead", "7", "-1", "non-monic",
            "degree-1", "degree-3", "root", "string", "int"])
    def test_th8_bad_irreducible_exits_2(self, capsys, tmp_path, poly):
        def edit(d):
            if poly is None:
                del d["recipe"]["irreducible"]
            else:
                d["recipe"]["irreducible"] = poly
        path = edited_record(capsys, tmp_path, edit, *self.TH8_DEGREE_2)
        code, out, err = run(capsys, "verify", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: ")

    def test_th8_reducible_without_root_exits_2(self, capsys, tmp_path):
        # (x^2+1)(x^2+2) has no root in GF(7): Ben-Or's second step refuses it
        path = edited_record(capsys, tmp_path, lambda d: None, *self.TH8_DEGREE_4)
        assert len(json.loads(path.read_text())["recipe"]["irreducible"]) == 5
        code, out, _ = run(capsys, "verify", str(path))
        assert (code, out) == (0, "[[8,4,3/3]]_7 pure AQMDS: verified\n")
        path = edited_record(capsys, tmp_path,
                             lambda d: d["recipe"].update(irreducible=[2, 0, 3, 0, 1]),
                             *self.TH8_DEGREE_4)
        code, out, err = run(capsys, "verify", str(path))
        assert (code, out) == (2, "")
        assert err == "error: poly must be a monic irreducible of degree k-r = 4 over GF(7)\n"

    def test_verify_never_searches_for_an_irreducible(self, capsys, tmp_path, monkeypatch):
        _, out, _ = run(capsys, "enumerate", "--q", "8", "--format", "json")
        th8 = [r for r in json.loads(out) if r["recipe"]["construction"] == "TH8"]
        assert len({len(r["recipe"]["irreducible"]) for r in th8}) == 5  # degrees 2..6
        path = tmp_path / "th8.json"
        path.write_text(json.dumps(th8))
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "aqmds" and hasattr(module, "find_irreducible"):
                monkeypatch.setattr(module, "find_irreducible", no_search)
        code, report, _ = run(capsys, "verify", str(path))
        lines = report.splitlines()
        assert code == 0 and len(lines) == len(th8)
        assert all(": verified" in line for line in lines)

    def test_deeply_nested_json_exits_2(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000)
        code, out, err = run(capsys, "verify", str(path))
        assert (code, out) == (2, "")
        assert err == "error: malformed certificate file: JSON nested too deeply\n"

    # css certificates written before css took its recipes from the catalog:
    # other key order, and a TH12/COR10 "k" that the rebuild does not read
    OLD_CSS_RECORDS = [
        {"q": 5, "n": 5, "j": 2, "dz": 3, "dx": 2, "pure": True, "aqmds": True,
         "family": ["TH12"],
         "recipe": {"q": 5, "alpha_convention": "zero_last", "construction": "TH12",
                    "n": 5, "j": 2, "k": 3,
                    "source": {"type": "grs", "n": 5, "k": 3, "alpha": [1, 2, 3, 4, 0],
                               "v": [1, 1, 1, 1, 1]}},
         "verified": True, "oracle_log": ["nesting:pass", "mds_dual_c1:pass", "mds_c2:pass",
                                          "dimensions:pass", "singleton_equality:pass"]},
        {"q": 4, "n": 5, "j": 1, "dz": 3, "dx": 3, "pure": True, "aqmds": True,
         "family": ["COR10"],
         "recipe": {"q": 4, "alpha_convention": "zero_last", "construction": "COR10",
                    "n": 5, "j": 1, "k": 1, "v": [1, 1, 1, 1, 1, 1]},
         "verified": True, "oracle_log": ["nesting:pass", "mds_dual_c1:pass", "mds_c2:pass",
                                          "dimensions:pass", "singleton_equality:pass"]},
    ]

    @pytest.mark.parametrize("record", OLD_CSS_RECORDS, ids=["th12", "cor10"])
    def test_old_css_layout_verifies(self, capsys, tmp_path, record):
        path = tmp_path / "old.json"
        path.write_text(json.dumps(record))
        code, out, _ = run(capsys, "verify", str(path))
        label = f"[[{record['n']},{record['j']},{record['dz']}/{record['dx']}]]_{record['q']}"
        assert (code, out) == (0, f"{label} pure AQMDS: verified\n")

    @pytest.mark.parametrize("css_args, family, expected", [
        (TH7_Q7, ["TH11", "COR10"], 3),  # not the recipe's construction
        (TH7_Q7, "TH7", 2),  # a string, not a list of tags
        (TH7_Q7, ["TH7", "TH8"], 3),  # no TH8 case reaches [[5,1,3/3]]_7
        # [[5,2,3/2]]_7 is a TH7 tuple; a css record names its own construction
        (("--family", "th12", "--q", "7", "--n", "5", "--k", "3"), ["TH12"], 0),
        (("--family", "th12", "--q", "7", "--n", "5", "--k", "3"), ["TH11", "COR10"], 3),
    ], ids=["without-construction", "string", "foreign-tag", "css-th12", "css-th12-relabelled"])
    def test_family_checked(self, capsys, tmp_path, css_args, family, expected):
        path = edited_record(capsys, tmp_path, lambda d: d.update(family=family), *css_args)
        code, _, err = run(capsys, "verify", str(path))
        assert code == expected, err
        if expected == 3:
            assert err == "verification failed: header_family\n"

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "verify", str(tmp_path / "nope.json"))
        assert code == 2

    def test_tampered_fails_with_exit_3(self, capsys, tmp_path):
        path = tmp_path / "cert.json"
        run(capsys, "css", "--family", "th7", "--q", "5", "--n", "5",
            "--k", "2", "--j", "1", "--emit-cert", str(path))
        payload = json.loads(path.read_text())
        payload["dz"] += 1
        path.write_text(json.dumps(payload))
        code, _, err = run(capsys, "verify", str(path))
        assert code == 3
        assert "singleton_equality" in err

    @pytest.mark.parametrize("q", [3, 4, 5, 7, 8])
    def test_enumerate_file_verify_round_trip(self, capsys, tmp_path, q):
        # JSON round trip: enumerate -> file -> verify every certificate
        _, out, _ = run(capsys, "enumerate", "--q", str(q), "--format", "json")
        path = tmp_path / f"catalog{q}.json"
        path.write_text(out)
        code, report, _ = run(capsys, "verify", str(path))
        assert code == 0
        assert report.count("verified") == len(json.loads(out))


# stdout sha256 of `enumerate --q Q --format json`: catalog bytes are a
# contract, so a refactor that changes one of these has changed the output
CATALOG_SHA256 = {
    (2, "closed_form"): "0d2ca668d9021fe0d9a35a92107e652a1461c19347122c73e76cf3e10d0772c4",
    (3, "closed_form"): "faab92219748c26767cb5db09a57016ab8d29e8af5898ce10247119efeb8a744",
    (4, "closed_form"): "2995f665a4843028705d30956ada3d8e3508a1415b5ae80029dce5d69694ead7",
    (5, "closed_form"): "fa953c502cc0eeb6db9bc7e0931f6c6e0fa263c8ba4ed13ad3834bfc5164db9a",
    (7, "closed_form"): "b0baed7bcbad97896dfd6930aa2714c041a1b84ac0eaaa68b4bba68b932cbd75",
    (8, "closed_form"): "800f353fbb914d0923a5c417aa02565a7573859960408ee6a462a3e09d7383e5",
    (9, "closed_form"): "5a33a977922cb3871b7f553f579f226f207286e8cb589fc35171ec7262a467e3",
    (11, "closed_form"): "09ecfaaef7411db25abbc34689dad9766b5ecb2255ccd60e2ede9b2cc977260b",
    (13, "closed_form"): "1628d3b326ef93242cb47a00a605e04b1ea67c39b7c6ba7f0c37736c10105601",
    (4, "full_oracle"): "feba60dcf1ff9997861b7a332e22892cc9c53c917bde77a015d9f14b3f7d442d",
    (5, "full_oracle"): "6cdffedcdf424c50042c494c01973a785b58aa01a0ea16d3750d704615bbec33",
    (7, "full_oracle"): "63cf337be86268a2a1becf7237f1a76950b25affa0e40e30b6ae4b2b583223e6",
    (8, "full_oracle"): "e51b808d19063c56e04c4a4e46e87a85ad0ecccee0b3ff11ee4177bb7689049a",
    (16, "closed_form"): "538ce72b7a247b64c413452dfe9fee8cf43b1d4c31b23f7e941dca95efc7e454",
    (19, "closed_form"): "22b73a92aee076614e8fac2addba4b5a0023b247467d48272f733abd7033b36e",
    (9, "full_oracle"): "103b54354905948e644fbc6238f82c98fd4311b9693abe07f9fb5370f9ea9c50",
    (11, "full_oracle"): "aae7964980328b84ae36b86e1db2290b6ea28f9c7d49271bde1b1ad60893f118",
    (13, "full_oracle"): "e6854578845cfae7d984de2e7cbbca608456c2447b1253d28af072482a0a9450",
    # COR10 and TH11 through the distance oracles
    (16, "full_oracle"): "cd0467331a179d93c8f591d52553fe30eee6a82885940e23b3b931197fb26fd5",
}


@pytest.mark.parametrize("q, level", sorted(CATALOG_SHA256))
def test_catalog_bytes_pinned(capsys, q, level):
    code, out, _ = run(capsys, "enumerate", "--q", str(q), "--format", "json",
                       "--verify-level", level)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CATALOG_SHA256[(q, level)]


FILE = "FILE"  # in a pin's argv: the file under tmp_path that its `make` writes


class Pin(NamedTuple):
    """`aqmds *argv` exits 0 with this output, run after `aqmds *make`
    has written FILE: its stdout, or the file itself when FILE is among its
    arguments."""
    argv: Tuple[str, ...]
    stdout: str  # sha256 of stdout, or stdout itself where one line is pinned
    make: Tuple[str, ...] = ()
    cap: Optional[str] = None  # AQMDS_MAX_ENUM for argv, not for make
    lines: Optional[int] = None
    skipped: Optional[int] = None  # lines with a skipped(cap) entry
    seconds: Optional[float] = None


def catalog_argv(q):
    return ("enumerate", "--q", str(q), "--format", "json")


COMMAND_PINS = {
    "verify-q7": Pin(
        ("verify", FILE), make=catalog_argv(7), lines=75,
        stdout="34ced26a5da288216d9870297936b3875bb5244cb60896db6c27a37e1a569441"),
    "verify-q8": Pin(
        ("verify", FILE), make=catalog_argv(8), lines=113,
        stdout="5de74a6ec90779cdde892848f56785af9c786000a0444db5c5dbd044499fdc76"),
    "verify-q9": Pin(
        ("verify", FILE), make=catalog_argv(9), lines=136, skipped=43,
        stdout="eb7543fc2f8eb4ebc2fad9a4445bddff44f1b3a4e8022d30c81f1c505f1e53b2"),
    "verify-q11": Pin(
        ("verify", FILE), make=catalog_argv(11), lines=222,
        stdout="56f75641f3ba940016e814305132e5b7ad50bdde4f35385dc2ce0e89c465695c"),
    "verify-q16": Pin(
        ("verify", FILE), make=catalog_argv(16), lines=583,
        stdout="4d6d5039dc6917209774e1881e23a27249505c082bb83371bd147bf63c2c716b"),
    "full-oracle-q8-cap": Pin(
        catalog_argv(8) + ("--verify-level", "full_oracle"), cap="1000",
        stdout="2d2b27ae847dadb99ffcd015ba8c90ba67b43c0d44e1f39e635e9ed0207b8219"),
    "verify-q8-cap": Pin(
        ("verify", FILE), make=catalog_argv(8), cap="1000", lines=113,
        stdout="046f2a0710998357992e1c2f0442a1a4e09ea64cdc4b525ca3b4fe167ccb624f"),
    # TH8's irreducible subcode
    "grs-subcode-q16": Pin(
        ("construct", "grs-subcode", "--q", "16", "--k", "10", "--r", "4"),
        stdout="6b1e6fa9460282a173d4a7500c7ab72d200ae85e0992c039bf1c81d208ffd7b8"),
    # MDS proofs of [24,12] codes among others; 60 s catches a slide back to minutes
    "closed-form-q23": Pin(
        catalog_argv(23), seconds=60,
        stdout="f515eec8134220ba6419d01fe1116be05a4a0e82eb8cbac0c16a67eb7b0865c0"),
    # the largest elimination, a 63x66 generator over GF(64)
    "qplus2-high-q64": Pin(
        ("construct", "qplus2-high", "--q", "64"), seconds=60,
        stdout="33c2b9888c1d2a9af472468a25e3b26454cb17123023d17de677bbcf308f04e0"),
    # a css record verifies under its own family (test_family_checked: not another)
    "css-th12-verify": Pin(
        ("verify", FILE), make=("css", "--family", "th12", "--q", "7", "--n", "5", "--k", "3",
                                "--emit-cert", FILE),
        stdout="[[5,2,3/2]]_7 pure AQMDS: verified\n"),
    # the largest testable prime answers at once
    "exists-4294967291": Pin(
        ("exists", "--q", "4294967291", "--n", "4294967291", "--j", "1",
         "--dz", "2147483646", "--dx", "2147483646"), seconds=10,
        stdout="yes\n(exists; certificate construction skipped:"
               " q=4294967291 exceeds the field cap 64)\n"),
}


@pytest.mark.parametrize("name", COMMAND_PINS)
def test_command_output_pinned(capsys, monkeypatch, tmp_path, name):
    pin = COMMAND_PINS[name]
    path = tmp_path / "input"

    def argv(args):
        return [str(path) if a == FILE else a for a in args]

    if pin.make:
        code, out, err = run(capsys, *argv(pin.make))
        assert code == 0, err
        if FILE not in pin.make:
            path.write_text(out)
    if pin.cap:
        monkeypatch.setenv("AQMDS_MAX_ENUM", pin.cap)
    start = time.perf_counter()
    code, out, err = run(capsys, *argv(pin.argv))
    elapsed = time.perf_counter() - start
    assert code == 0, err
    assert pin.stdout in (hashlib.sha256(out.encode()).hexdigest(), out)
    lines = out.splitlines()
    assert pin.lines in (None, len(lines))
    assert pin.skipped in (None, sum("skipped(cap)" in line for line in lines))
    assert pin.seconds is None or elapsed < pin.seconds


# `aqmds ARGS` on bad input, run from a directory that holds nofamily.json
BAD_INPUT = (
    "construct grs --q 5 --n 5 --k 9",
    "construct grs --q 5 --n 5 --k 2 --alpha 1,1,2,3,4",
    "construct qplus2-high --q 9",
    "construct qplus2-low --q 2",
    "construct grs-subcode --q 16 --k 10 --r 9",
    "css --family th8 --q 7 --k 3 --j 1",
    "enumerate --q 7 --n 100",
    "verify nofamily.json",
)


def test_bad_input_messages_pinned(capsys, monkeypatch, tmp_path):
    # one line "{exit code} {stderr}" per case, hashed together
    monkeypatch.chdir(tmp_path)
    (tmp_path / "nofamily.json").write_text('{"q": 7, "n": 5}\n')
    transcript = ""
    for args in BAD_INPUT:
        code, _, err = run(capsys, *args.split())
        message = err.rstrip("\n")
        transcript += f"{code} {message}\n"
    assert hashlib.sha256(transcript.encode()).hexdigest() == (
        "a1462cbffabbd99bcaeb402269cc2bea1deeb7ef4ccfbd1d3e44f98e2f0da9dd")
