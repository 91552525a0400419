"""Builders for the explicit MDS families used by the CSS pipeline.

Evaluation-point convention: the default point order is 1, 2, ..., q-1, 0,
i.e. the zero element is placed last.  The length-(q+2) constructions need
the zero point in position q, and the first q-1 points invertible; with
this default no separate code path is required.  Column multipliers
default to all ones; custom nonzero multipliers are accepted everywhere.

Every builder takes the field, then the n, k, r or poly that fix its code,
as it needs them, then alpha=None and v=None; the length-(q+2) builders
take v alone.  Only None selects a default: any other alpha or v, an
empty sequence included, is checked as given.

The builders construct and do not re-prove their output.  On the
certificate paths each fact is proven once: the nesting when the
`css.NestedPair` is made, and MDS of both codes by `catalog.run_oracles`,
whose verdicts each code keeps (`LinearCode.is_mds`); the `construct`
subcommand proves MDS of the code it prints.
"""
from __future__ import annotations

import numbers
from typing import Optional, Sequence, Tuple

import numpy as np

from .code import LinearCode, from_generator
from .errors import AqmdsError
from .gf import FiniteField, _poly_is_irreducible
from .matrix import GfMatrix


def default_alpha(f: FiniteField, n: int) -> Tuple[int, ...]:
    """First n evaluation points in index order, zero placed last."""
    order = list(range(1, f.q)) + [0]
    return tuple(order[:n])


def ones(n: int) -> Tuple[int, ...]:
    return (1,) * n


def _points(f: FiniteField, alpha: Optional[Sequence[int]], v: Optional[Sequence[int]],
            n_alpha: int, n_v: int, alpha_rule: str, v_rule: str):
    """Evaluation points and column multipliers, defaulted when None and checked
    to be n_alpha distinct field elements and n_v nonzero ones."""
    alpha = tuple(alpha) if alpha is not None else default_alpha(f, n_alpha)
    v = tuple(v) if v is not None else ones(n_v)
    if any(t is bool or not issubclass(t, numbers.Integral) for t in set(map(type, alpha + v))):
        raise AqmdsError("alpha and v entries must be integer element indices")
    if len(alpha) != n_alpha or len(set(alpha)) != n_alpha:
        raise AqmdsError(f"alpha must {alpha_rule}")
    if any(not 0 <= a < f.q for a in alpha):
        raise AqmdsError("alpha entries out of field range")
    if len(v) != n_v or any(not 1 <= x < f.q for x in v):
        raise AqmdsError(f"v must be {v_rule}")
    return alpha, v


def _extended_points(f: FiniteField, alpha, v):
    """_points for the length-(q+1) codes: all q points, q+1 multipliers."""
    return _points(f, alpha, v, f.q, f.q + 1, "cover q distinct points", "q+1 nonzero elements")


def _vandermonde_rows(f: FiniteField, alpha: Sequence[int], v: Sequence[int], nrows: int) -> np.ndarray:
    """Rows v_j alpha_j^i for i < nrows, each the row before times alpha by one gather."""
    G = np.empty((nrows, len(alpha)), dtype=np.uint8)
    G[:1] = v
    for i in range(1, nrows):
        G[i] = f.mul_table[G[i - 1], alpha]
    return G


def grs(
    f: FiniteField,
    n: int,
    k: int,
    alpha: Optional[Sequence[int]] = None,
    v: Optional[Sequence[int]] = None,
) -> LinearCode:
    """The [n, k, n-k+1]_q code of polynomial evaluations deg < k."""
    if not 1 <= n <= f.q:
        raise AqmdsError(f"n={n} must satisfy 1 <= n <= q={f.q}")
    if not 1 <= k <= n:
        raise AqmdsError(f"k={k} must satisfy 1 <= k <= n={n}")
    alpha, v = _points(f, alpha, v, n, n, "be n pairwise distinct elements", "n nonzero field elements")
    return from_generator(GfMatrix(f, _vandermonde_rows(f, alpha, v, k)))


def extended_grs(
    f: FiniteField,
    k: int,
    alpha: Optional[Sequence[int]] = None,
    v: Optional[Sequence[int]] = None,
) -> LinearCode:
    """The [q+1, k, q-k+2]_q code: evaluations at all q points plus the
    top coefficient f_{k-1} scaled by v_{q+1}."""
    q = f.q
    if not 1 <= k <= q:
        raise AqmdsError(f"k={k} must satisfy 1 <= k <= q={q}")
    alpha, v = _extended_points(f, alpha, v)
    G = _vandermonde_rows(f, alpha, v[:q], k)
    ext_col = np.zeros((k, 1), dtype=np.uint8)
    ext_col[k - 1, 0] = v[q]
    return from_generator(GfMatrix(f, np.hstack([G, ext_col])))


def grs_subcode_irreducible(
    f: FiniteField,
    k: int,
    r: int,
    poly: Sequence[int],
    alpha: Optional[Sequence[int]] = None,
    v: Optional[Sequence[int]] = None,
) -> LinearCode:
    """The [q+1, r, q-r+2]_q subcode of the extended GRS code of dimension k,
    generated by multiples of `poly`, a monic irreducible of degree k-r.

    It is itself an extended GRS code: the span of x^i p(x), i < r,
    evaluated with multipliers v_j p(alpha_j), which are nonzero since p
    has degree k-r >= 2 and no root in GF(q).  Its infinity coordinate is
    v_q times the x^(k-1) coefficient, which p monic puts on x^(r-1) p(x)
    alone.  `poly` is checked by one Ben-Or test, never searched for.
    """
    q = f.q
    if not 1 <= k <= q:
        raise AqmdsError(f"k={k} must satisfy 1 <= k <= q={q}")
    if not 1 <= r <= k - 2:
        raise AqmdsError(f"r={r} must satisfy 1 <= r <= k-2 = {k - 2}")
    alpha, v = _extended_points(f, alpha, v)
    # element indices, low degree first: a float or bool entry is refused
    if not (set(map(type, poly)) == {int} and len(poly) == k - r + 1 and poly[-1] == 1
            and min(poly) >= 0 and max(poly) < q and _poly_is_irreducible(f._tables, poly)):
        raise AqmdsError(f"poly must be a monic irreducible of degree k-r = {k - r} over GF({q})")
    scaled_v = tuple(f.mul(v[j], f.poly_eval(poly, alpha[j])) for j in range(q)) + v[q:]
    return extended_grs(f, r, alpha, scaled_v)


def _char_two_points(f: FiniteField, v: Optional[Sequence[int]]) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    if f.p != 2:
        raise AqmdsError(f"construction requires characteristic 2, got p={f.p}")
    if f.m < 2:
        raise AqmdsError("construction requires q = 2^m with m >= 2")
    # the default alpha: alpha_q = 0, first q-1 points invertible
    return _points(f, None, v, f.q, f.q + 2, "cover q distinct points", "q+2 nonzero elements")


def _q_plus_2_matrix(f: FiniteField, points: Sequence[int], v: Sequence[int]) -> GfMatrix:
    """The 3 x (q+2) matrix with columns v_j (1, a_j, a_j^2) at the q-1 given
    points, then v_{q-1} e_0, v_q e_1 and v_{q+1} e_2."""
    q = f.q
    M = np.zeros((3, q + 2), dtype=np.uint8)
    M[:, : q - 1] = _vandermonde_rows(f, points, v[: q - 1], 3)
    M[[0, 1, 2], [q - 1, q, q + 1]] = v[q - 1:]
    return GfMatrix(f, M)


def _q_plus_2_check_matrix(f: FiniteField, v: Sequence[int]) -> GfMatrix:
    """The parity-check matrix of the high code, at the nonzero points
    1, ..., q-1 of the default order (the zero point contributes e_0)."""
    alpha, v = _char_two_points(f, v)
    return _q_plus_2_matrix(f, alpha[: f.q - 1], v)


def q_plus_2_high(f: FiniteField, v: Optional[Sequence[int]] = None) -> LinearCode:
    """The [2^m+2, 2^m-1, 4] code defined by the 3-row parity check matrix."""
    return LinearCode(_q_plus_2_check_matrix(f, v)).dual()


def q_plus_2_low(f: FiniteField, v: Optional[Sequence[int]] = None) -> LinearCode:
    """The [2^m+2, 3, 2^m] code generated by the check-matrix layout with
    every nonzero point and every multiplier inverted.

    With the same multipliers v, this code is nested inside the high code:
    G H^T = 0 against the parity-check matrix.
    """
    alpha, v = _char_two_points(f, v)
    return from_generator(_q_plus_2_matrix(
        f, f.inv_table[list(alpha[: f.q - 1])], f.inv_table[list(v)]))
