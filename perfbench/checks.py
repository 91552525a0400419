"""Correctness checks on the program's outputs, made apart from the program.

Nothing here imports aqmds.  The reference for which tuples exist is the
expansion of the seven-case classification in tests/th14_expansion.py,
which the caller passes in as a set of (n, j, dz, dx) with dz >= dx.
Each check returns a list of problems; an empty list means correct.
"""
from __future__ import annotations

import json
from typing import Dict, List, Optional, Set, Tuple

Tuple4 = Tuple[int, int, int, int]

# the oracles of catalog.run_oracles that compare claimed distances with the pair
DISTANCE_ORACLES = ("distance_c2_side", "distance_c1_side", "distances_exact")


def tuple_of(record: Dict) -> Tuple4:
    return (record["n"], record["j"], record["dz"], record["dx"])


def certificate_problems(record: Dict, q: int) -> List[str]:
    """A certificate record (certificate_to_dict form) that claims its tuple
    honestly: verified, no failed oracle, q matches, dz >= dx >= 1 and
    j = n - dz - dx + 2."""
    tag = f"q={q} {tuple_of(record)}"
    problems = []
    if record["q"] != q:
        problems.append(f"{tag}: header q={record['q']}")
    if record["verified"] is not True:
        problems.append(f"{tag}: not verified")
    failed = [e for e in record["oracle_log"] if e.endswith(":FAIL")]
    if failed:
        problems.append(f"{tag}: failed oracles {failed}")
    if not record["dz"] >= record["dx"] >= 1:
        problems.append(f"{tag}: violates dz >= dx >= 1")
    if record["j"] != record["n"] - record["dz"] - record["dx"] + 2:
        problems.append(f"{tag}: violates j = n - dz - dx + 2")
    return problems


def catalog_problems(text: str, q: int, expected: Set[Tuple4]) -> List[str]:
    """A catalog's JSON text lists every expected tuple once and nothing else,
    each with an honest certificate."""
    records = json.loads(text)
    tuples = [tuple_of(r) for r in records]
    problems = []
    if len(set(tuples)) != len(tuples):
        problems.append(f"q={q}: duplicate tuples")
    missing, extra = expected - set(tuples), set(tuples) - expected
    if missing or extra:
        problems.append(f"q={q}: missing {sorted(missing)[:5]}, extra {sorted(extra)[:5]}")
    for r in records:
        problems += certificate_problems(r, q)
    return problems


def exists_problems(query: Tuple[int, int, int, int, int], admitted: bool,
                    answer: bool, certificate: Optional[Dict]) -> List[str]:
    """exists(q, n, j, dz, dx) answers membership in the expansion, and an
    admitted tuple carries an honest certificate for that same tuple."""
    q, n, j, dz, dx = query
    want = (n, j, max(dz, dx), min(dz, dx))
    if answer != admitted:
        return [f"exists{query} = {answer}, expansion says {admitted}"]
    if not admitted:
        return [] if certificate is None else [f"exists{query}: certificate on a rejected tuple"]
    if certificate is None:
        return [f"exists{query}: admitted without a certificate"]
    if tuple_of(certificate) != want:
        return [f"exists{query}: certificate for {tuple_of(certificate)}"]
    return certificate_problems(certificate, q)


def verified_problems(record: Dict, refreshed: Optional[Dict], q: int) -> List[str]:
    """verify accepted a genuine certificate and returned it unchanged in its claim."""
    if refreshed is None:
        return [f"q={q} {tuple_of(record)}: genuine certificate rejected"]
    if tuple_of(refreshed) != tuple_of(record):
        return [f"q={q} {tuple_of(record)}: verify returned {tuple_of(refreshed)}"]
    return certificate_problems(refreshed, q)


def distance_rejection_problems(record: Dict, rejected_by: Optional[str]) -> List[str]:
    """A false distance claim that keeps the Singleton equality is rejected,
    and by a distance oracle."""
    if rejected_by is None:
        return [f"false claim {tuple_of(record)} accepted"]
    if rejected_by not in DISTANCE_ORACLES:
        return [f"false claim {tuple_of(record)} rejected by {rejected_by}, not a distance oracle"]
    return []
