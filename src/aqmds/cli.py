"""Command-line front end.

Subcommands: construct (classical MDS builders), css (one family's nested
pair with quantum parameters), enumerate (full catalog for a field size),
exists (single-tuple decision), verify (re-verify a certificate file).

css maps its options onto the catalog's construction for that family and
certifies it with the catalog's recipe and claimed dz/dx, so --emit-cert
writes the record enumerate writes for the same construction.  --k is the
dimension of the MDS code given: 1 <= k <= n-1 for prop5 and prop6,
2 <= k <= n-1 for th12, and the ambient extended GRS dimension for th8.

Field elements are written as integer indices in 0..q-1: the base-p digits
of an index are the polynomial-basis coefficients of the element, so over
prime fields the index is the residue itself.  --alpha and --v take
comma-separated indices.

Exit codes: 0 success, 2 invalid arguments or specification,
3 verification failure.  The environment variable AQMDS_MAX_ENUM overrides
the default enumeration cap of 10^7 codewords; it must be a positive integer.
"""
from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence, Tuple

from .catalog import (
    CatalogQuery,
    Certificate,
    CodeStore,
    FAMILY_TAGS,
    VERIFY_LEVELS,
    _certify,
    certificate_from_dict,
    certificate_to_dict,
    certificates_to_json,
    enumerate_catalog,
    exists,
    verify as verify_certificate,
)
from .code import enum_cap
from .construct import (
    extended_grs,
    grs,
    grs_subcode_irreducible,
    q_plus_2_high,
    q_plus_2_low,
)
from .errors import AqmdsError, VerificationFailed
from .gf import find_irreducible, make_field
from .matrix import first_singular_k_subset

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VERIFY = 3


def _indices(text: str) -> List[int]:
    """argparse type for --alpha/--v: comma-separated element indices."""
    try:
        return [int(t) for t in text.split(",") if t.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers: {exc}")


def _print_code(C, label: str):
    """Prove C MDS (k-subset oracle on G, no enumeration) and print it with d = n-k+1."""
    if (columns := first_singular_k_subset(C.G, C.k) if C.k else ()) is not None:
        raise VerificationFailed(f"{label} output is not MDS [{C.n},{C.k}]: "
                                 f"columns {list(columns)} are singular")
    print(f"[{C.n},{C.k},{C.n - C.k + 1}]_{C.field.q} MDS=true  ({label})")
    print("generator matrix (canonical form, element indices):")
    for row in C.G.data:
        print("  " + " ".join(str(int(x)) for x in row))


def cmd_construct(args) -> int:
    f = make_field(args.q)
    alpha, v = args.alpha, args.v
    which = args.builder
    if which == "grs":
        if args.n is None or args.k is None:
            raise AqmdsError("grs requires --n and --k")
        if args.n > args.q:
            raise AqmdsError("n exceeds q")
        C = grs(f, args.n, args.k, alpha, v)
        _print_code(C, "GRS")
    elif which == "extended-grs":
        if args.k is None:
            raise AqmdsError("extended-grs requires --k")
        C = extended_grs(f, args.k, alpha, v)
        _print_code(C, "extended GRS")
    elif which == "grs-subcode":
        if args.k is None or args.r is None:
            raise AqmdsError("grs-subcode requires --k and --r")
        k, r = args.k, args.r
        # the builder refuses a k or r out of range: no search runs for one
        poly = find_irreducible(f, k - r) if 1 <= r <= k - 2 <= f.q - 2 else ()
        C = grs_subcode_irreducible(f, k, r, poly, alpha, v)
        _print_code(C, "irreducible-polynomial subcode")
        print(f"irreducible polynomial coefficients (low degree first): {list(poly)}")
    elif which == "qplus2-high":
        _print_code(q_plus_2_high(f, v), "length q+2, dimension q-1")
    else:  # qplus2-low, the last of the builder choices
        _print_code(q_plus_2_low(f, v), "length q+2, dimension 3")
    return EXIT_OK


def _css_construction(args) -> Tuple[str, int, int, int]:
    """The catalog's (tag, n, k, j) for the family selected on the css command.

    k and j are the classification parameters of the cases in catalog._CASES.
    """
    q, fam = args.q, args.family
    make_field(q)  # a bad q is reported before any family requirement

    def need(*names):
        missing = [m for m in names if getattr(args, m) is None]
        if missing:
            raise AqmdsError(f"--family {fam} requires {', '.join('--' + m for m in missing)}")

    if fam == "th7":
        need("n", "k", "j")
        n, k, j = args.n, args.k, args.j
        if not (1 <= k and j >= 1 and k + j <= n - 1 and n <= q):
            raise AqmdsError("th7 requires 1 <= k, j >= 1, k+j <= n-1, n <= q")
        return "TH7", n, k, j
    if fam == "th8":
        need("k", "j")
        k, j = args.k, args.j  # k is the dimension of the ambient extended GRS code
        if not 2 <= j <= k - 1:
            raise AqmdsError("th8 requires 2 <= j <= k-1")
        if not 3 <= k <= q:
            raise AqmdsError("th8 requires 3 <= k <= q")
        return "TH8", q + 1, k - j, j
    if fam in ("th11", "cor10"):
        if q % 2 == 1 or q < 4:
            raise AqmdsError(f"{fam} requires q = 2^m with m >= 2")
        return ("TH11", q + 2, 3, q - 4) if fam == "th11" else ("COR10", q + 1, 2, 1)
    need("n", "k")  # th12, prop5, prop6: k is the dimension of the MDS code given
    n, k = args.n, args.k
    low = 2 if fam == "th12" else 1
    if not low <= k <= n - 1:
        raise AqmdsError(f"{fam} requires {low} <= k <= n-1")
    return {"th12": ("TH12", n, 1, k - 1), "prop5": ("PROP5", n, n - k, k),
            "prop6": ("PROP6", n, k, 0)}[fam]


def cmd_css(args) -> int:
    case = _css_construction(args)
    cert = _certify(args.q, [case], args.verify_level)
    if not cert.verified:
        print(f"verification failed: {cert.oracle_log}", file=sys.stderr)
        return EXIT_VERIFY
    print(str(cert.params))
    print("oracles: " + " ".join(cert.oracle_log))
    if args.emit_cert:
        with open(args.emit_cert, "w") as fh:
            json.dump(certificate_to_dict(cert), fh, indent=2)
            fh.write("\n")
        print(f"certificate written to {args.emit_cert}")
    return EXIT_OK


def _rows_of(certs: Sequence[Certificate]) -> List[List[str]]:
    rows = []
    for c in certs:
        p = c.params
        rows.append([str(p.q), str(p.n), str(p.k), str(p.dz), str(p.dx),
                     str(p.pure).lower(), str(p.aqmds).lower(),
                     ";".join(c.family)])
    return rows


def _emit(certs: Sequence[Certificate], fmt: str):
    if fmt == "json":
        print(certificates_to_json(list(certs)))
        return
    header = ["q", "n", "j", "dz", "dx", "pure", "aqmds", "family"]
    rows = _rows_of(certs)
    if fmt == "csv":
        print(",".join(header))
        for r in rows:
            print(",".join(r))
        return
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
              for i, h in enumerate(header)]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for r in rows:
        print("  ".join(x.ljust(w) for x, w in zip(r, widths)))


def cmd_enumerate(args) -> int:
    query = CatalogQuery(q=args.q, n=args.n, j=args.j, dz=args.dz, dx=args.dx,
                         dx_min=args.dx_min, verify_level=args.verify_level)
    certs = enumerate_catalog(query)
    _emit(certs, args.format)
    if args.format == "table":
        print(f"{len(certs)} tuples (lengths assume the MDS conjecture)")
    return EXIT_OK


def cmd_exists(args) -> int:
    result = exists(args.q, args.n, args.j, args.dz, args.dx,
                    verify_level=args.verify_level)
    if not result.exists:
        print(f"no ({result.reason})")
        return EXIT_OK
    print("yes")
    if result.certificate is not None:
        print(json.dumps(certificate_to_dict(result.certificate), indent=2))
    else:
        print(f"({result.reason})")
    return EXIT_OK


def cmd_verify(args) -> int:
    with open(args.certificate) as fh:
        try:
            payload = json.load(fh)
        except RecursionError:
            raise AqmdsError("malformed certificate file: JSON nested too deeply") from None
    items = payload if isinstance(payload, list) else [payload]
    store = CodeStore()  # the file's records share their codes, which keep their MDS proofs
    for item in items:
        cert = certificate_from_dict(item)
        refreshed = verify_certificate(cert, store=store)
        skipped = [e.split(":")[0] for e in refreshed.oracle_log if e.endswith(":skipped(cap)")]
        status = f"verified except skipped(cap): {', '.join(skipped)}" if skipped else "verified"
        print(f"{refreshed.params}: {status}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aqmds",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a classical MDS code")
    p.add_argument("builder", choices=["grs", "extended-grs", "grs-subcode",
                                       "qplus2-high", "qplus2-low"])
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--alpha", type=_indices, help="comma-separated evaluation-point indices")
    p.add_argument("--v", type=_indices, help="comma-separated nonzero column multipliers")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("css", help="build a nested pair and derive quantum parameters")
    p.add_argument("--family", required=True, choices=sorted(t.lower() for t in FAMILY_TAGS))
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--j", type=int)
    p.add_argument("--emit-cert", metavar="FILE")
    p.add_argument("--verify-level", default="closed_form", choices=VERIFY_LEVELS)
    p.set_defaults(func=cmd_css)

    p = sub.add_parser("enumerate", help="all admissible tuples for a field size")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--j", type=int)
    p.add_argument("--dz", type=int)
    p.add_argument("--dx", type=int)
    p.add_argument("--dx-min", type=int)
    p.add_argument("--format", default="table", choices=["table", "json", "csv"])
    p.add_argument("--verify-level", default="closed_form", choices=VERIFY_LEVELS)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("exists", help="decide one parameter tuple")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--dz", type=int, required=True)
    p.add_argument("--dx", type=int, required=True)
    p.add_argument("--verify-level", default="closed_form", choices=VERIFY_LEVELS)
    p.set_defaults(func=cmd_exists)

    p = sub.add_parser("verify", help="re-verify a certificate file")
    p.add_argument("certificate", help="path to a certificate JSON file or array")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        enum_cap()  # reject a malformed AQMDS_MAX_ENUM before any work
        return args.func(args)
    except VerificationFailed as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except (AqmdsError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
