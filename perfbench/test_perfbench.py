"""The benchmark's own tests: each correctness check fires on a corrupted
output, inputs follow the seed, and the tracer reports spans, counters and
absent entry points.

    PYTHONPATH=src python -m pytest perfbench -q
"""
import copy
import json
import sys
from itertools import combinations
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]

import aqmds  # noqa: E402
import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from th14_expansion import expand  # noqa: E402


def _catalog(q):
    return json.loads(aqmds.certificates_to_json(aqmds.enumerate_catalog(aqmds.CatalogQuery(q=q))))


def test_catalog_check_fires_on_each_corruption():
    records = _catalog(4)
    assert checks.catalog_problems(json.dumps(records), 4, expand(4)) == []

    def corrupt(edit):
        bad = copy.deepcopy(records)
        edit(bad)
        return checks.catalog_problems(json.dumps(bad), 4, expand(4))

    assert corrupt(lambda rs: rs.pop())  # a tuple missing
    assert corrupt(lambda rs: rs.append(rs[0]))  # a tuple twice
    assert corrupt(lambda rs: rs[0].update(n=rs[0]["n"] + 1, j=rs[0]["j"] + 1))  # a tuple not admitted
    assert corrupt(lambda rs: rs[3].update(verified=False))
    assert corrupt(lambda rs: rs[3]["oracle_log"].append("mds_c2:FAIL"))
    assert corrupt(lambda rs: rs[3].update(q=5))
    assert checks.certificate_problems({**records[3], "j": records[3]["j"] + 1}, 4)
    swapped = next(r for r in records if r["dz"] > r["dx"])
    assert checks.certificate_problems({**swapped, "dz": swapped["dx"], "dx": swapped["dz"]}, 4)
    assert checks.certificate_problems({**swapped, "dz": 0, "dx": 0,
                                        "j": swapped["n"] + 2}, 4)


def test_exists_check_fires_on_each_corruption():
    admitted, rejected = (5, 6, 2, 3, 3, 2), (5, 6, 2, 4, 3, 2)
    yes, no = aqmds.exists(*admitted[:5]), aqmds.exists(*rejected[:5])
    cert = aqmds.certificate_to_dict(yes.certificate)
    assert checks.exists_problems(admitted[:5], True, yes.exists, cert) == []
    assert checks.exists_problems(rejected[:5], False, no.exists, None) == []
    assert checks.exists_problems(admitted[:5], True, False, None)  # wrong answer
    assert checks.exists_problems(rejected[:5], False, True, cert)
    assert checks.exists_problems(admitted[:5], True, True, None)  # no certificate
    assert checks.exists_problems(rejected[:5], False, False, cert)
    assert checks.exists_problems(admitted[:5], True, True, {**cert, "n": 7, "j": 3})
    assert checks.exists_problems(admitted[:5], True, True, {**cert, "verified": False})


def test_verify_checks_fire_on_each_corruption():
    record = _catalog(3)[-1]
    assert checks.verified_problems(record, record, 3) == []
    assert checks.verified_problems(record, None, 3)
    assert checks.verified_problems(record, {**record, "n": record["n"] + 1}, 3)
    assert checks.verified_problems(record, {**record, "oracle_log": ["nesting:FAIL"]}, 3)
    assert checks.distance_rejection_problems(record, "distances_exact") == []
    assert checks.distance_rejection_problems(record, None)
    assert checks.distance_rejection_problems(record, "nesting")


def test_inputs_follow_the_seed():
    assert workloads.CatalogClosedForm(3).ops == workloads.CatalogClosedForm(3).ops
    stream = workloads.ExistsStream(3)
    assert stream.ops == workloads.ExistsStream(3).ops != workloads.ExistsStream(4).ops
    admitted = sum((n, j, max(dz, dx), min(dz, dx)) in stream.expected[q]
                   for q, n, j, dz, dx in stream.ops)
    assert admitted >= len(stream.ops) // 2


def test_verify_catalog_ops_and_checks():
    work = workloads.VerifyCatalog(5)
    kinds = [kind for kind, _ in work.ops]
    assert kinds.count("swapped") == 1 and kinds.count("tampered") == 3
    swapped = next(op for op in work.ops if op[0] == "swapped")
    assert work.check(swapped, work.run(swapped)) == (False, [])


def test_subset_index_matches_combinations_order():
    for n, k in ((5, 2), (6, 3), (7, 1)):
        for i, subset in enumerate(combinations(range(n), k)):
            assert tracer.subset_index(subset, n) == i


def test_tracer_counts_spans_and_reports_absent_entry_points():
    original_scan = aqmds.code._enumerate_scan
    points = {**tracer.ENTRY_POINTS, "code.scan": ("aqmds.code:_no_such_scan",)}
    t = tracer.Tracer(points)
    t.install()
    try:
        assert aqmds.exists(7, 8, 2, 4, 4).exists
        aqmds.verify(aqmds.certificate_from_dict(_catalog(3)[-1]))
    finally:
        t.uninstall()
    assert aqmds.code._enumerate_scan is original_scan
    assert aqmds.catalog.find_irreducible is aqmds.gf.find_irreducible
    values = t.metrics()
    assert set(values) == {name for name, _ in tracer.metric_names()}
    assert t.absent == ["code.scan"]
    assert values["code.scan.calls"] is None and values["code.scan.words"] is None
    for span in ("gf.find_irreducible", "matrix.ksubset", "matrix.rref", "catalog.recipe",
                 "catalog.build_pair", "catalog.oracles", "construct.build", "css.make_pair",
                 "catalog.json"):
        assert values[f"{span}.calls"] > 0 and values[f"{span}.s"] > 0, span
    assert values["gf.find_irreducible.distinct"] == 1  # one TH8 recipe of degree 2
    assert values["matrix.ksubset.subsets"] > 0
    assert values["catalog.oracles.skipped"] == 0
