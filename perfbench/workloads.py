"""The benchmark's three workloads: inputs from a seed, one timed operation,
and the check of its output.

A workload's `ops` is one pass: the run repeats whole passes, so every run
attempts the same operations, and `failed` is the same share of `attempted`
whatever the seed and the run length.  Inputs are made when the workload
is constructed, outside every metric.  The caller must have put the
repository's `src` and `tests` directories on sys.path.
"""
from __future__ import annotations

import json
from random import Random
from typing import Dict, List, Tuple

import aqmds
from aqmds.errors import VerificationFailed
from th14_expansion import expand

import checks

CATALOG_QS = (7, 8, 9, 11)
EXISTS_QS = (3, 4, 5, 7, 8, 9, 11)
# full_oracle verification at q >= 8 skips distance oracles at the default cap
VERIFY_Q = 7
# header tampering that verify should reject, and today accepts
TAMPERED = (("q", 5), ("pure", False), ("aqmds", False))
TAMPER_TARGET = (5, 1, 3, 3)  # [[5,1,3/3]]_7, a TH7 certificate


def length_bound(q: int) -> int:
    return q + 2 if q % 2 == 0 else q + 1


class CatalogClosedForm:
    """enumerate_catalog at closed_form plus certificates_to_json; one op is one catalog."""

    fields = CATALOG_QS

    def __init__(self, seed: int):
        self.ops = list(CATALOG_QS)
        Random(seed).shuffle(self.ops)
        self.expected = {q: expand(q) for q in CATALOG_QS}

    @staticmethod
    def run(q: int) -> str:
        return aqmds.certificates_to_json(aqmds.enumerate_catalog(aqmds.CatalogQuery(q=q)))

    def check(self, q: int, text: str) -> Tuple[bool, List[str]]:
        return False, checks.catalog_problems(text, q, self.expected[q])

    def warm_up(self) -> None:
        aqmds.enumerate_catalog(aqmds.CatalogQuery(q=CATALOG_QS[0], n=4))


class VerifyCatalog:
    """certificate_from_dict plus verify on every certificate of the q=7 catalog
    file, one false distance claim and three tampered headers; one op is one
    certificate."""

    fields = (VERIFY_Q,)

    def __init__(self, seed: int):
        text = aqmds.certificates_to_json(aqmds.enumerate_catalog(aqmds.CatalogQuery(q=VERIFY_Q)))
        records = json.loads(text)
        rng = Random(seed)
        self.ops: List[Tuple[str, Dict]] = [("genuine", r) for r in records]
        # claim dz-1/dx+1: the Singleton equality still holds, the distances do
        # not.  Short lengths only, so the pass costs the same for every seed.
        base = rng.choice([r for r in records if r["n"] <= 6 and r["dz"] - r["dx"] >= 2])
        self.ops.append(("swapped", {**base, "dz": base["dz"] - 1, "dx": base["dx"] + 1}))
        target = next(r for r in records if checks.tuple_of(r) == TAMPER_TARGET)
        self.ops += [("tampered", {**target, key: value}) for key, value in TAMPERED]
        rng.shuffle(self.ops)
        self.warm_record = next(r for r in records if r["n"] == 3)

    @staticmethod
    def run(op: Tuple[str, Dict]):
        try:
            return aqmds.verify(aqmds.certificate_from_dict(op[1])), None
        except VerificationFailed as exc:
            return None, str(exc)

    def check(self, op: Tuple[str, Dict], out) -> Tuple[bool, List[str]]:
        kind, record = op
        refreshed, rejected_by = out
        if kind == "tampered":  # counted as failed until verify compares headers
            return rejected_by is None, []
        if kind == "swapped":
            return False, checks.distance_rejection_problems(record, rejected_by)
        as_dict = None if refreshed is None else aqmds.certificate_to_dict(refreshed)
        return False, checks.verified_problems(record, as_dict, VERIFY_Q)

    def warm_up(self) -> None:
        self.run(("genuine", self.warm_record))


class ExistsStream:
    """exists(q, n, j, dz, dx) queries: every admitted tuple of each q once,
    dz/dx swapped on a coin flip, and as many uniform random tuples, shuffled;
    one op is one query."""

    fields = EXISTS_QS

    def __init__(self, seed: int):
        rng = Random(seed)
        self.expected = {q: expand(q) for q in EXISTS_QS}
        queries = []
        for q in EXISTS_QS:
            for n, j, dz, dx in sorted(self.expected[q]):
                queries.append((q, n, j, dx, dz) if rng.random() < 0.5 else (q, n, j, dz, dx))
        for _ in range(len(queries)):
            q = rng.choice(EXISTS_QS)
            n = rng.randint(2, length_bound(q))
            queries.append((q, n, rng.randint(0, n), rng.randint(1, n), rng.randint(1, n)))
        rng.shuffle(queries)
        self.ops = queries

    @staticmethod
    def run(query):
        return aqmds.exists(*query)

    def check(self, query, result) -> Tuple[bool, List[str]]:
        q, n, j, dz, dx = query
        admitted = (n, j, max(dz, dx), min(dz, dx)) in self.expected[q]
        cert = None if result.certificate is None else aqmds.certificate_to_dict(result.certificate)
        return False, checks.exists_problems(query, admitted, result.exists, cert)

    def warm_up(self) -> None:
        aqmds.exists(EXISTS_QS[0], 4, 0, 3, 3)


WORKLOADS = {
    "catalog_closed_form": CatalogClosedForm,
    "verify_catalog": VerifyCatalog,
    "exists_stream": ExistsStream,
}
