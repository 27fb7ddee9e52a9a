"""Solutions of the feedback equation.

Three faces of the same operation:

* ``ex_goi1``: exact alternating-path summation for partial injections,
  defined whenever the product of the two operators is nilpotent;
* ``feedback_dense``: the resolvent form (p + p''v)(1 - uv)^-1(up + p'')
  for dense contractions, defined whenever 1 - uv is invertible;
* ``plug_dialectal``: the dialect-extended execution of two hermitian
  contractions, gated by a certified spectral radius below 1.
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
from .groupoid import PartialInjectionOp, PathGraph, Region, sum_disjoint
from .linalg import DenseOperator, operator_norm, projection_onto, spectral_radius, union_carrier
from .measurement import (
    DialectalOperator,
    dagger,
    ddagger,
    extended_pair,
    is_indeterminate,
    meas_hyp,
    meas_mat,
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


def feedback_dense(u: DenseOperator, v: DenseOperator, split: InterfaceSplit) -> DenseOperator:
    """(p + p''v)(1 - uv)^-1(up + p'') restricted to the kept carrier.

    ``u`` acts on kept + cut, ``v`` on cut + (its own kept part p'').
    """
    if split.cut - set(u.carrier):
        raise CarrierError("cut labels must belong to u's carrier")
    if operator_norm(u) > 1.0 + NORM_SLACK or operator_norm(v) > 1.0 + NORM_SLACK:
        raise CarrierError("feedback operands must be contractions")
    carrier = union_carrier(u.carrier, v.carrier)
    ue = u.embed(carrier).mat
    ve = v.embed(carrier).mat
    kept_u = [l for l in carrier if l in set(u.carrier) and l not in split.cut]
    kept_v = [l for l in carrier if l in set(v.carrier) and l not in split.cut]
    p = projection_onto(carrier, kept_u).mat
    ppp = projection_onto(carrier, kept_v).mat
    n = len(carrier)
    one_minus = np.eye(n, dtype=complex) - ue @ ve
    try:
        inv = np.linalg.solve(one_minus, np.eye(n, dtype=complex))
    except np.linalg.LinAlgError as exc:
        raise FeedbackSingularError("1 - uv is singular") from exc
    resid = float(np.max(np.abs(one_minus @ inv - np.eye(n))))
    if resid > 1e-6:
        raise FeedbackSingularError(f"1 - uv is numerically singular (residual {resid:.2e})")
    w = (p + ppp @ ve) @ inv @ (ue @ p + ppp)
    kept_all = [l for l in carrier if l not in split.cut and (l in set(u.carrier) or l in set(v.carrier))]
    full = DenseOperator(tuple(carrier), w)
    return full.restrict(kept_all)


# ----------------------------------------------------------------------
# Dialectal execution


def plug_dialectal(A: DialectalOperator, B: DialectalOperator) -> DialectalOperator:
    """Execution A . B over the shared carrier, dialects tensored.

    With no shared carrier this degenerates to the union A^dag + B^ddag.
    Symbolic payloads are plugged exactly by alternating path summation;
    dense payloads use the resolvent.  Gate: spectral radius of the
    extended product certified below 1, otherwise NotOrthogonalError
    (certified at or above 1) or IndeterminateError (straddling).
    """
    b_locs = set(B.carrier)
    shared = [l for l in A.carrier if l in b_locs]
    shared_set = set(shared)
    result_carrier = tuple(l for l in A.carrier if l not in shared_set) + tuple(
        l for l in B.carrier if l not in shared_set
    )
    if A.is_symbolic and B.is_symbolic:
        Ad = dagger(A, B.dialect, B.pseudo_trace)
        Bd = ddagger(B, A.dialect, A.pseudo_trace)
        # every alternating word of the two payloads: the paths that start in A and in B
        from_a = PathGraph(Ad.op, ((Bd.op,), (Ad.op,)))
        from_b = PathGraph(Bd.op, ((Ad.op,), (Bd.op,)))
        for paths in (from_a, from_b):
            res = paths.classify()
            if not res.is_nilpotent:
                raise NotOrthogonalError(f"product is {res.kind}")
        region = Region.from_locations(shared)
        op = sum_disjoint(from_a.outside(region), from_b.outside(region))
        return DialectalOperator(result_carrier, Ad.dialect, Ad.pseudo_trace, op)

    ext = extended_pair(A, B)
    amat, bmat = ext.a, ext.b
    prod = amat @ bmat
    if prod.dim:
        report = spectral_radius(prod)
        if not report.exact_zero:
            if report.at_least_one():
                raise NotOrthogonalError("extended product has spectral radius >= 1")
            if report.straddles_one():
                raise IndeterminateError("spectral certificate straddles 1")
    dim = ext.dialect.dim
    only_a = set(A.carrier) - shared_set
    only_b = b_locs - shared_set
    p_labels = [(l, c) for l in ext.carrier if l in only_a for c in range(dim)]
    q_labels = [(l, c) for l in ext.carrier if l in only_b for c in range(dim)]
    labels = amat.carrier
    p = projection_onto(labels, p_labels).mat
    q = projection_onto(labels, q_labels).mat
    n = len(labels)
    one_minus = np.eye(n, dtype=complex) - bmat.mat @ amat.mat
    try:
        inv = np.linalg.solve(one_minus, np.eye(n, dtype=complex))
    except np.linalg.LinAlgError as exc:
        raise NotOrthogonalError("1 - BA is singular") from exc
    w = (p @ amat.mat + q) @ inv @ (p + bmat.mat @ q)
    full = DenseOperator(labels, w)
    kept_labels = tuple((l, c) for l in result_carrier for c in range(dim))
    out = full.restrict(kept_labels)
    # round off the hermitian defect introduced by the solve
    sym = DenseOperator(out.carrier, 0.5 * (out.mat + out.mat.conj().T))
    if out.max_abs_diff(sym) > 1e-7:
        raise NotOrthogonalError("execution result is not hermitian")
    return DialectalOperator(result_carrier, ext.dialect, ext.pseudo_trace, sym)


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
    """Disjoint-carrier union G^dag + H^ddag with tensored dialect."""
    if set(G.carrier) & set(H.carrier):
        raise CarrierError("union requires disjoint carriers")
    ext = extended_pair(G, H)
    return DialectalOperator(ext.carrier, ext.dialect, ext.pseudo_trace, ext.a + ext.b)


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


def associativity_residual(a: DialectalOperator, f: DialectalOperator, b: DialectalOperator):
    """Distance between (a.f).b and a.(f.b); exact bool on symbolic payloads."""
    left = plug_dialectal(plug_dialectal(a, f), b)
    right = plug_dialectal(a, plug_dialectal(f, b))
    if left.is_symbolic and right.is_symbolic:
        return left.op == right.op
    lmat = left.as_dense().dense_payload()
    rmat = right.as_dense().dense_payload()
    return lmat.max_abs_diff(rmat)
