"""Reference computations the engine's faster paths are tested against.

``series_execution`` and ``four_family_expansion`` expand the execution
formula term by term with ``compose`` and ``restrict_outside``,
independently of the path walker in ``goi.groupoid.PathGraph`` that the
engine uses.  ``left_fold_dual_witnesses`` folds every witness of a
sequent from scratch, without the shared prefixes that
``goi.logic.matricial.sequent_dual_witnesses`` keeps.

The plug is rebuilt the long way: ``reference_dagger`` and
``reference_ddagger`` extend one payload at a time as checked dialectal
operators, ``explicit_resolvent`` inverts 1 - xy and sandwiches the
inverse between dense projections, ``symbolic_product_meas`` decides a
symbolic pair by ``compose`` and ``nilpotency``, and
``two_pass_plug_project`` measures the pair and then plugs it in a
second, separate pass.

``masked_block_log_sum`` and ``masked_check_dense`` take every dialect,
one block included, through the block masks and ``np.ix_`` copies, and
``loop_beta_decode`` halves its argument one bit at a time: the general
paths that the one-block and bit-arithmetic fast paths skip.

``build_with_project`` (the with distributor) and
``associativity_residual`` (the two bracketings of a plug chain) are
fixtures that only tests use.
"""

import itertools
import math

import numpy as np

from goi.config import NORM_SLACK, struct_tol
from goi.errors import CarrierError, FeedbackSingularError, IndeterminateError, NotNilpotentError, NotOrthogonalError
from goi.execution import plug_dialectal
from goi.groupoid import Idx, PartialInjectionOp, Region, adjoint, compose, nilpotency, restrict_outside, sum_disjoint
from goi.linalg import DenseOperator, spectral_radius
from goi.logic.matricial import dual_witnesses_for
from goi.measurement import (
    INDETERMINATE,
    Dialect,
    DialectalOperator,
    _weighted_log_sum,
    PseudoTrace,
    dial_labels,
    extended_pair,
    is_indeterminate,
    meas_mat,
)
from goi.projects import ConductWitnessSet, Project, extend_carrier, tensor_project

# Powers of uv tried before series_execution gives up.
POWER_BUDGET = 10_000


def series_execution(u, v, region):
    """(1-p) sum_k (uv)^k u (1-p) by the powers of uv.

    Nilpotency is decided by the powers as well: uv is nilpotent when a
    power vanishes, and cyclic when a nonzero power repeats.
    """
    uv = compose(u, v)
    seen = set()
    power = uv
    while not power.is_zero():
        key = power.canonical()
        if key in seen:
            raise NotNilpotentError("product is cyclic")
        if len(seen) > POWER_BUDGET:
            raise NotNilpotentError("product is exceeded")
        seen.add(key)
        power = compose(uv, power)
    total = PartialInjectionOp.zero()
    term = u
    while not term.is_zero():
        kept = restrict_outside(term, region)
        if not kept.is_zero():
            total = sum_disjoint(total, kept)
        term = compose(uv, term)
    return total


def four_family_expansion(U, V, shared, terms=12):
    """Independent oracle: p U (VU)^k p + r (VU)^k V r + crossings, up to ``terms`` factors."""
    region = Region.from_locations(shared)
    total = PartialInjectionOp.zero()
    for first, second in ((U, V), (V, U)):
        term = first
        nxt = second
        for _ in range(terms):
            if term.is_zero():
                break
            kept = restrict_outside(term, region)
            if not kept.is_zero():
                total = sum_disjoint(total, kept)
            term = compose(nxt, term)
            nxt = U if nxt is V else V
    return total


def left_fold_dual_witnesses(plan, basis, cap=3, total_cap=12):
    """Witnesses of a sequent's dual, each the full left fold of its combination."""
    per_site = [dual_witnesses_for(site, basis, cap) for site in plan.sites]
    carrier = tuple(loc for site in plan.sites for loc in site.locations)
    if any(not w for w in per_site):
        return ConductWitnessSet(carrier, (), "dual")
    members = []
    for combo in itertools.islice(itertools.product(*per_site), total_cap):
        acc = combo[0]
        for nxt in combo[1:]:
            acc = tensor_project(acc, nxt)
        if set(acc.carrier) != set(carrier):
            acc = extend_carrier(acc, tuple(l for l in carrier if l not in set(acc.carrier)))
        members.append(acc)
    return ConductWitnessSet(carrier, tuple(members), "dual")


def _pair_coord(a, b, dim_b):
    return a * dim_b + b


def reference_dagger(A, d, beta=None):
    """A (x) 1 on a fresh right dialect, one arrow or one einsum at a time."""
    beta = beta if beta is not None else PseudoTrace((1.0,) * len(d.blocks))
    dialect = A.dialect.tensor(d)
    alpha = A.pseudo_trace.tensor(beta)
    if A.is_symbolic:
        table = {}
        for src, (dst, w) in A.op.table.items():
            for b in range(d.dim):
                table[Idx(src.value, _pair_coord(src.slot, b, d.dim))] = (
                    Idx(dst.value, _pair_coord(dst.slot, b, d.dim)),
                    w,
                )
        return DialectalOperator(A.carrier, dialect, alpha, PartialInjectionOp(table))
    ka, kb = A.dialect.dim, d.dim
    n = len(A.carrier)
    m4 = A.op.mat.reshape(n, ka, n, ka)
    out = np.einsum("iajc,bd->iabjcd", m4, np.eye(kb, dtype=complex))
    mat = out.reshape(n * ka * kb, n * ka * kb)
    return DialectalOperator(A.carrier, dialect, alpha, DenseOperator(dial_labels(A.carrier, ka * kb), mat))


def reference_ddagger(B, d, alpha_left=None):
    """1 (x) B on a fresh left dialect, one arrow or one einsum at a time."""
    alpha_left = alpha_left if alpha_left is not None else PseudoTrace((1.0,) * len(d.blocks))
    dialect = d.tensor(B.dialect)
    alpha = alpha_left.tensor(B.pseudo_trace)
    if B.is_symbolic:
        table = {}
        for src, (dst, w) in B.op.table.items():
            for a in range(d.dim):
                table[Idx(src.value, _pair_coord(a, src.slot, B.dialect.dim))] = (
                    Idx(dst.value, _pair_coord(a, dst.slot, B.dialect.dim)),
                    w,
                )
        return DialectalOperator(B.carrier, dialect, alpha, PartialInjectionOp(table))
    ka, kb = d.dim, B.dialect.dim
    n = len(B.carrier)
    m4 = B.op.mat.reshape(n, kb, n, kb)
    out = np.einsum("ibjd,ac->iabjcd", m4, np.eye(ka, dtype=complex))
    mat = out.reshape(n * ka * kb, n * ka * kb)
    return DialectalOperator(B.carrier, dialect, alpha, DenseOperator(dial_labels(B.carrier, ka * kb), mat))


def explicit_resolvent(x, y, px, py):
    """(P + Q y)(1 - xy)^-1 (x P + Q) with the explicit inverse, P and Q the diagonal projections of the masks.

    Kept coordinates are those of P or Q.  FeedbackSingularError when the
    inverse fails or its residual |(1 - xy) inv - 1| exceeds 1e-6.
    """
    n = len(x)
    p, q = np.diag(px.astype(float)), np.diag(py.astype(float))
    one_minus = np.eye(n, dtype=complex) - x @ y
    try:
        inv = np.linalg.solve(one_minus, np.eye(n, dtype=complex))
    except np.linalg.LinAlgError as exc:
        raise FeedbackSingularError("1 - xy is singular") from exc
    if float(np.max(np.abs(one_minus @ inv - np.eye(n)), initial=0.0)) > 1e-6:
        raise FeedbackSingularError("1 - xy is numerically singular")
    w = (p + q @ y) @ inv @ (x @ p + q)
    kept = px | py
    return w[np.ix_(kept, kept)]


def symbolic_product_meas(A, B):
    """meas_mat of two symbolic payloads: the powers of compose(A (x) 1, 1 (x) B) through nilpotency."""
    Ad = reference_dagger(A, B.dialect, B.pseudo_trace)
    Bd = reference_ddagger(B, A.dialect, A.pseudo_trace)
    res = nilpotency(compose(Ad.op, Bd.op))
    if res.kind == "nilpotent":
        return 0.0
    if res.kind == "cyclic":
        return math.inf
    return INDETERMINATE


def reference_plug_dialectal(A, B):
    """A . B with its own gate: the four families of alternating words, or the explicit-inverse resolvent of AB."""
    shared = [l for l in A.carrier if l in set(B.carrier)]
    result_carrier = tuple(l for l in A.carrier if l not in shared) + tuple(l for l in B.carrier if l not in shared)
    if A.is_symbolic and B.is_symbolic:
        Ad = reference_dagger(A, B.dialect, B.pseudo_trace)
        Bd = reference_ddagger(B, A.dialect, A.pseudo_trace)
        if not nilpotency(compose(Ad.op, Bd.op)).is_nilpotent:
            raise NotOrthogonalError("product is not nilpotent")
        # an alternating path visits each point at most once per operator
        terms = 2 * (len(Ad.op.table) + len(Bd.op.table)) + 2
        op = four_family_expansion(Ad.op, Bd.op, shared, terms)
        return DialectalOperator(result_carrier, Ad.dialect, Ad.pseudo_trace, op)
    ext = extended_pair(A.as_dense(), B.as_dense())
    report = spectral_radius(ext.a @ ext.b, gate=True)
    if not report.below_one():
        if report.at_least_one():
            raise NotOrthogonalError("extended product has spectral radius >= 1")
        raise IndeterminateError("spectral certificate straddles 1")
    dim = ext.dialect.dim
    only_a = np.repeat([l in set(A.carrier) and l not in shared for l in ext.carrier], dim)
    only_b = np.repeat([l not in set(A.carrier) for l in ext.carrier], dim)
    try:
        w = explicit_resolvent(ext.b.mat, ext.a.mat, only_b, only_a)
    except FeedbackSingularError as exc:
        raise NotOrthogonalError("1 - BA is singular") from exc
    sym = 0.5 * (w + w.conj().T)
    return DialectalOperator(result_carrier, ext.dialect, ext.pseudo_trace, DenseOperator(dial_labels(result_carrier, dim), sym))


def two_pass_plug_project(f, a):
    """plug_project as two passes: the measurement first, then a separate plug of the same pair."""
    A, B = f.dialectal, a.dialectal
    m = symbolic_product_meas(A, B) if A.is_symbolic and B.is_symbolic else meas_mat(A, B)
    if is_indeterminate(m):
        raise IndeterminateError("measurement of the plugged pair is indeterminate")
    wager = f.wager * a.pseudo_trace.unit() + a.wager * f.pseudo_trace.unit() + m
    return Project(wager, reference_plug_dialectal(A, B))


def loop_deloc_payload(theta, a):
    """The dense payload of deloc_project(theta, a), one entry at a time."""
    phase = {loc: theta.op.apply(Idx(loc, 0))[1] for loc in a.carrier}
    old = a.dialectal.dense_payload()
    mat = np.zeros_like(old.mat)
    for i, (li, _) in enumerate(old.carrier):
        for j, (lj, _) in enumerate(old.carrier):
            mat[i, j] = phase[li] * old.mat[i, j] * phase[lj].conjugate()
    return mat


def loop_sum_lambda_payload(a, b):
    """The dense payload of sum_lambda(a, lam, b), one entry at a time; b's coordinates follow a's."""
    carrier, shift = a.carrier, a.dialect.dim
    Am = a.dialectal.as_dense().dense_payload()
    Bm = b.dialectal.on_carrier(carrier).as_dense().dense_payload()
    labels = dial_labels(carrier, a.dialect.dim + b.dialect.dim)
    posn = {lab: i for i, lab in enumerate(labels)}
    mat = np.zeros((len(labels), len(labels)), dtype=complex)
    for i, (li, ci) in enumerate(Am.carrier):
        for j, (lj, cj) in enumerate(Am.carrier):
            mat[posn[(li, ci)], posn[(lj, cj)]] = Am.mat[i, j]
    for i, (li, ci) in enumerate(Bm.carrier):
        for j, (lj, cj) in enumerate(Bm.carrier):
            mat[posn[(li, ci + shift)], posn[(lj, cj + shift)]] = Bm.mat[i, j]
    return mat


def loop_traces_ok(op, tol):
    """No entry above tol between two coordinates of one location, scanned entry by entry."""
    for i, (li, _) in enumerate(op.carrier):
        for j, (lj, _) in enumerate(op.carrier):
            if li == lj and abs(op.mat[i, j]) > tol:
                return False
    return True


def masked_block_log_sum(one_minus, carrier, dialect, weights, absolute):
    """``_block_log_sum`` with one ``slogdet`` per dialect block, each cut out by its mask."""
    block = np.tile(np.asarray(dialect.assignment), len(carrier))
    dets = []
    for b in range(dialect.n_blocks()):
        idx = np.flatnonzero(block == b)
        dets.append((b, *np.linalg.slogdet(one_minus[np.ix_(idx, idx)])))
    return _weighted_log_sum(dets, dialect, weights, absolute)


def masked_check_dense(op, carrier, dialect):
    """``DialectalOperator._check_dense`` through the mixing mask and one ``eigvalsh`` per masked block."""
    tol = struct_tol()
    if not op.is_hermitian(max(tol, 1e-9)):
        raise CarrierError("dialectal operator must be hermitian")
    block = np.tile(np.asarray(dialect.assignment), len(carrier))
    if np.any(np.abs(op.mat[block[:, None] != block[None, :]]) > tol):
        raise CarrierError("operator mixes dialect blocks")
    for b in range(dialect.n_blocks()):
        idx = np.flatnonzero(block == b)
        if np.abs(np.linalg.eigvalsh(op.mat[np.ix_(idx, idx)])).max(initial=0.0) > 1.0 + NORM_SLACK:
            raise CarrierError("dialectal operator must be a contraction")


def loop_beta_decode(k):
    """``beta_decode`` by halving k + 1 until it is odd."""
    if k < 0:
        raise ValueError("argument must be a natural number")
    x = k + 1
    n = 0
    while x % 2 == 0:
        x //= 2
        n += 1
    return n, (x - 1) // 2


def build_with_project(theta1, theta2, theta3, phi):
    """The distributor: block one relays theta1 and theta2, block two theta1 phi* and theta3, weights 1/2 each."""
    relay = compose(theta1.op, adjoint(phi.op))
    table = {}
    for slot, (s, t) in enumerate(((theta1.op, theta2.op), (relay, theta3.op))):
        block = sum_disjoint(sum_disjoint(s, adjoint(s)), sum_disjoint(t, adjoint(t)))
        for src, (dst, w) in block.table.items():
            table[Idx(src.value, slot)] = (Idx(dst.value, slot), w)
    carrier = tuple(dict.fromkeys(l for d in (theta1, theta2, theta3, phi) for l in d.source + d.target))
    return Project(0.0, DialectalOperator(carrier, Dialect((1, 1)), PseudoTrace((0.5, 0.5)), PartialInjectionOp(table)))


def associativity_residual(a, f, b):
    """Distance between (a.f).b and a.(f.b); an exact bool on symbolic payloads."""
    left = plug_dialectal(plug_dialectal(a, f), b)
    right = plug_dialectal(a, plug_dialectal(f, b))
    if left.is_symbolic and right.is_symbolic:
        return left.op == right.op
    return left.dense_payload().max_abs_diff(right.dense_payload())
