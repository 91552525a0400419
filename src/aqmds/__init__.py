"""Pure CSS asymmetric quantum MDS codes over small fields.

Layers:
    gf         finite-field arithmetic via lookup tables (q <= 64)
    matrix     dense linear algebra over GF(q)
    code       linear codes, duals, exact weights; code._distributions holds
               the counting rule (one scan of the smaller of C and C-perp)
    construct  GRS / extended GRS / length-(q+2) MDS builders
    css        nested classical pair -> asymmetric quantum parameters from
               code._distributions, and the full-weight-codeword construction
    catalog    classification catalog, certificates, verification oracles
    cli        command-line front end (`aqmds`)
"""
from .catalog import (
    CatalogQuery,
    Certificate,
    ExistsResult,
    build_pair_from_recipe,
    certificate_from_dict,
    certificate_to_dict,
    certificates_to_json,
    enumerate_catalog,
    exists,
    length_bound,
    make_certificate,
    verify,
)
from .code import DEFAULT_ENUM_CAP, LinearCode, from_generator, full_space, is_subcode
from .construct import (
    GrsSpec,
    default_alpha,
    extended_grs,
    grs,
    grs_subcode_irreducible,
    q_plus_2_high,
    q_plus_2_low,
)
from .css import (
    AqcParams,
    NestedPair,
    css_construct,
    from_full_weight,
    make_pair,
    pair_from_full_weight,
)
from .errors import AqmdsError, CapExceeded, VerificationFailed
from .gf import FiniteField, find_irreducible, make_field
from .matrix import GfMatrix

__all__ = [
    "AqcParams",
    "AqmdsError",
    "CapExceeded",
    "CatalogQuery",
    "Certificate",
    "DEFAULT_ENUM_CAP",
    "ExistsResult",
    "FiniteField",
    "GfMatrix",
    "GrsSpec",
    "LinearCode",
    "NestedPair",
    "VerificationFailed",
    "build_pair_from_recipe",
    "certificate_from_dict",
    "certificate_to_dict",
    "certificates_to_json",
    "css_construct",
    "default_alpha",
    "enumerate_catalog",
    "exists",
    "extended_grs",
    "find_irreducible",
    "from_full_weight",
    "from_generator",
    "full_space",
    "grs",
    "grs_subcode_irreducible",
    "is_subcode",
    "length_bound",
    "make_certificate",
    "make_field",
    "make_pair",
    "pair_from_full_weight",
    "q_plus_2_high",
    "q_plus_2_low",
    "verify",
]

__version__ = "0.1.0"
