"""Solutions of the feedback equation.

Two faces of the same operation, each step of it done by one routine:

* ``ex_goi1``: exact alternating-path summation for partial injections,
  defined whenever the product of the two operators is nilpotent;
* ``_resolvent``: the dense form (px + py y)(1 - xy)^-1 (x px + py) on
  the kept coordinates, one solve, defined whenever 1 - xy is
  invertible.  ``feedback_dense`` calls it on two contractions as
  (u, v, p, p''), the dense plug on the extended pair as (B, A, q, p);
* ``plug_measured``: the dialect-extended execution of two hermitian
  contractions together with its measurement, in one pass: one
  extension of the pair, one certificate (the alternating paths of two
  unimodular tables, or the spectral gate of the dense product), then
  the blockwise log-determinant and the resolvent.  ``plug_dialectal``
  and ``projects.plug_project`` read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import NORM_SLACK
from .errors import (
    CarrierError,
    FeedbackSingularError,
    IndeterminateError,
    NotNilpotentError,
    NotOrthogonalError,
)
from .groupoid import PartialInjectionOp, PathGraph, Region, sum_disjoint, sum_weighted
from .linalg import DenseOperator, operator_norm, union_carrier
from .measurement import (
    DialectalOperator,
    Meas,
    _block_log_sum,
    dial_labels,
    extended_pair,
    is_indeterminate,
    meas_hyp,
    meas_mat,
    spectral_gate,
    table_matrix,
)


@dataclass(frozen=True)
class InterfaceSplit:
    """Partition of a carrier into the kept part and the fed-back part."""

    kept: frozenset
    cut: frozenset

    def __post_init__(self):
        object.__setattr__(self, "kept", frozenset(self.kept))
        object.__setattr__(self, "cut", frozenset(self.cut))
        if self.kept & self.cut:
            raise CarrierError("kept and cut parts must be disjoint")


# ----------------------------------------------------------------------
# Exact execution


def ex_goi1(u: PartialInjectionOp, v: PartialInjectionOp, cut_region=None) -> PartialInjectionOp:
    """(1-p) sum_k (u v)^k u (1-p), p the projection onto the cut region.

    ``cut_region`` is a Region or a projection operator; by default the
    support of v.  Computed by walking the alternating paths u, u v u, u v u v u,
    ... from each monomial of u whose domain is not inside the cut region
    (``PathGraph.outside``); requires u v nilpotent, which the same path
    graph decides first.
    """
    if cut_region is None:
        region = Region.from_support(v)
    elif isinstance(cut_region, PartialInjectionOp):
        region = Region.from_support(cut_region)
    else:
        region = cut_region
    paths = PathGraph(u, ((v, u),))
    res = paths.classify()
    if not res.is_nilpotent:
        raise NotNilpotentError(f"product is {res.kind}", witness=res.witness)
    return paths.outside(region)


# ----------------------------------------------------------------------
# Dense feedback


def _resolvent(x: np.ndarray, y: np.ndarray, px: np.ndarray, py: np.ndarray, one_minus: np.ndarray | None = None) -> np.ndarray:
    """(px + py y)(1 - xy)^-1 (x px + py) on the coordinates that px or py keeps.

    ``px`` and ``py`` are boolean masks of kept coordinates, which may
    overlap; ``one_minus`` is 1 - xy when the caller has formed it.  One
    solve against the kept columns of the right factor.  Raises
    FeedbackSingularError when LAPACK finds 1 - xy singular or the solve's
    residual |(1 - xy)Z - R| exceeds 1e-6.
    """
    if one_minus is None:
        one_minus = np.eye(len(x), dtype=complex) - x @ y
    kept = np.flatnonzero(px | py)
    right = x[:, kept] * px[kept]
    right[kept, np.arange(kept.size)] += py[kept]
    try:
        z = np.linalg.solve(one_minus, right)
    except np.linalg.LinAlgError as exc:
        raise FeedbackSingularError("1 - xy is singular") from exc
    resid = float(np.max(np.abs(one_minus @ z - right), initial=0.0))
    if resid > 1e-6:
        raise FeedbackSingularError(f"1 - xy is numerically singular (residual {resid:.2e})")
    return px[kept, None] * z[kept] + py[kept, None] * (y[kept] @ z)


def feedback_dense(u: DenseOperator, v: DenseOperator, split: InterfaceSplit) -> DenseOperator:
    """(p + p''v)(1 - uv)^-1(up + p'') restricted to the kept carrier.

    ``u`` acts on kept + cut, ``v`` on cut + (its own kept part p'').
    """
    if split.cut - set(u.carrier):
        raise CarrierError("cut labels must belong to u's carrier")
    if operator_norm(u) > 1.0 + NORM_SLACK or operator_norm(v) > 1.0 + NORM_SLACK:
        raise CarrierError("feedback operands must be contractions")
    carrier = union_carrier(u.carrier, v.carrier)
    kept = np.array([l not in split.cut for l in carrier], dtype=bool)
    in_u, in_v = set(u.carrier), set(v.carrier)
    p = kept & np.array([l in in_u for l in carrier], dtype=bool)
    ppp = kept & np.array([l in in_v for l in carrier], dtype=bool)
    w = _resolvent(u.embed(carrier).mat, v.embed(carrier).mat, p, ppp)
    return DenseOperator(tuple(l for l, k in zip(carrier, kept) if k), w)


# ----------------------------------------------------------------------
# Dialectal execution


def plug_measured(A: DialectalOperator, B: DialectalOperator) -> tuple[Meas, DialectalOperator]:
    """``meas_mat(A, B)`` and the execution A . B, from one extension of the pair.

    The execution lives on the carrier outside the shared locations, with
    the tensored dialect; with no shared carrier it is the union
    A^dag + B^ddag.  Two unimodular tables are plugged exactly by
    alternating path summation and measure 0.  Otherwise (a dense side, or
    a weighted table) the resolvent is used on dense payloads, and the
    measurement is taken from 1 - BA, whose determinant is
    that of 1 - AB in every dialect block.  Gate: NotOrthogonalError when
    the product is cyclic or its spectral radius is certified at or above
    1; IndeterminateError when the path budget runs out or the
    certificate straddles 1.
    """
    ext = extended_pair(A, B)
    a_locs = set(A.carrier)
    shared = a_locs & set(B.carrier)
    result_carrier = tuple(l for l in ext.carrier if l not in shared)
    if isinstance(ext.a, PartialInjectionOp) and isinstance(ext.b, PartialInjectionOp):
        # every alternating word of the two payloads: the paths that start in A and in B
        from_a = PathGraph(ext.a, ((ext.b,), (ext.a,)))
        res = from_a.classify()
        if res.kind == "exceeded":
            raise IndeterminateError(f"alternating paths exceed {res.budget} stages")
        if res.kind == "cyclic":
            raise NotOrthogonalError("product is cyclic")
        # a path from B is one step of B followed by a path from A, so it ends too
        from_b = PathGraph(ext.b, ((ext.a,), (ext.b,)))
        region = Region.from_locations(shared)
        op = sum_disjoint(from_a.outside(region), from_b.outside(region))
        return 0.0, DialectalOperator(result_carrier, ext.dialect, ext.pseudo_trace, op)
    if not isinstance(ext.a, DenseOperator):
        labels = dial_labels(ext.carrier, ext.dialect.dim)
        ext = ext._replace(a=table_matrix(ext.a, labels), b=table_matrix(ext.b, labels))

    prod = DenseOperator(ext.a.carrier, ext.b.mat @ ext.a.mat)
    gate = spectral_gate(prod)
    if is_indeterminate(gate):
        raise IndeterminateError("spectral certificate straddles 1")
    if gate is not None:
        raise NotOrthogonalError("extended product has spectral radius >= 1")
    one_minus = np.eye(prod.dim) - prod.mat
    m = _block_log_sum(one_minus, ext.carrier, ext.dialect, ext.pseudo_trace, absolute=False)
    dim = ext.dialect.dim
    in_a = np.repeat(np.array([l in a_locs for l in ext.carrier], dtype=bool), dim)
    p = in_a & np.repeat(np.array([l not in shared for l in ext.carrier], dtype=bool), dim)  # A's own coordinates
    q = ~in_a  # B's own coordinates
    try:
        w = _resolvent(ext.b.mat, ext.a.mat, q, p, one_minus)
    except FeedbackSingularError as exc:
        raise NotOrthogonalError(f"1 - BA is singular: {exc}") from exc
    # round off the hermitian defect introduced by the solve
    sym = 0.5 * (w + w.conj().T)
    if w.size and float(np.max(np.abs(w - sym))) > 1e-7:
        raise NotOrthogonalError("execution result is not hermitian")
    return m, DialectalOperator(result_carrier, ext.dialect, ext.pseudo_trace, DenseOperator(dial_labels(result_carrier, dim), sym))


def plug_dialectal(A: DialectalOperator, B: DialectalOperator) -> DialectalOperator:
    """Execution A . B over the shared carrier, dialects tensored: ``plug_measured(A, B)[1]``."""
    return plug_measured(A, B)[1]


# ----------------------------------------------------------------------
# Residuals


def adjunction_residual_hyp(u: DenseOperator, v: DenseOperator, w: DenseOperator, split: InterfaceSplit) -> float:
    """|meas(u, v + w) - meas(u, v) - meas(u . v, w)| for the determinant measurement."""
    carrier = tuple(union_carrier(u.carrier, v.carrier, w.carrier))
    ue = u.embed(carrier)
    lhs = meas_hyp(ue, v.embed(carrier) + w.embed(carrier))
    first = meas_hyp(u, v)
    ex = feedback_dense(u, v, split)
    second = meas_hyp(ex, w)
    if any(math.isinf(x) for x in (lhs, first, second)):
        return 0.0 if math.isinf(lhs) and math.isinf(first + second) else math.inf
    return abs(lhs - (first + second))


def union_dialectal(G: DialectalOperator, H: DialectalOperator) -> DialectalOperator:
    """Disjoint-carrier union G^dag + H^ddag with tensored dialect; exact on two table payloads."""
    if set(G.carrier) & set(H.carrier):
        raise CarrierError("union requires disjoint carriers")
    ext = extended_pair(G, H)
    op = ext.a + ext.b if isinstance(ext.a, DenseOperator) else sum_weighted(ext.a, ext.b)
    make = DialectalOperator._built if type(G.op) is type(H.op) else DialectalOperator
    return make(ext.carrier, ext.dialect, ext.pseudo_trace, op)


def adjunction_residual_mat(F: DialectalOperator, G: DialectalOperator, H: DialectalOperator) -> float:
    """|meas(F, G u H) - rho_H(1) meas(F, G) - meas(H, F . G)|."""
    lhs = meas_mat(F, union_dialectal(G, H))
    mg = meas_mat(F, G)
    plugged = plug_dialectal(F, G)
    mh = meas_mat(H, plugged)
    vals = [lhs, mg, mh]
    if any(is_indeterminate(x) for x in vals):
        return math.inf
    if any(math.isinf(x) for x in vals):
        return 0.0 if math.isinf(lhs) and (math.isinf(mg) or math.isinf(mh)) else math.inf
    return abs(lhs - (H.pseudo_trace.unit() * mg + mh))

