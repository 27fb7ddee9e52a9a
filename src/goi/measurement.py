"""Traces, dialect extensions, log-determinant measurements, orthogonality.

The measurement between two dialect-carrying hermitian contractions is
the series sum_k trace(M^k)/k of their extended product M, equal to
-log det(1 - M) blockwise when the spectral radius of M is certified
below 1, and declared infinite when it is certified at or above 1.  A
certificate that straddles 1 yields the first-class Indeterminate value,
which is never silently collapsed into a logical claim.

A dialectal operator holds one of three payloads: a dense matrix, a
unimodular partial injection (the interpretations of proofs) or a
diagonal times a partial injection, d v (the basis witnesses).  When
neither side of a measurement is dense, the extended product is a
weighted partial injection and is decided exactly from its cycles: none
gives 0, a cycle of modulus 1 gives +inf, and otherwise each dialect
block contributes -log prod_c (1 - w_c) over its cycles c.  The dense
path serves dense input and is the oracle of the exact one; both apply
one determinant rule (``_weighted_log_sum``).

Trace convention: locations are counted (the trace of the identity on a
carrier is the carrier size); dialect blocks carry one real weight each
against the block-normalised trace.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Union

import numpy as np

from .config import NORM_SLACK, struct_tol
from .errors import CarrierError
from .groupoid import Idx, PartialInjectionOp, WeightedInjection
from .linalg import DenseOperator, spectral_radius, union_carrier

log = logging.getLogger(__name__)


class _Indeterminate:
    """Outcome of a spectral certificate that straddles 1."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Indeterminate"


INDETERMINATE = _Indeterminate()
Meas = Union[float, _Indeterminate]


def is_indeterminate(x) -> bool:
    return x is INDETERMINATE


def meas_close(x: Meas, y: Meas, tol: float) -> bool:
    if is_indeterminate(x) or is_indeterminate(y):
        return False
    if math.isinf(x) or math.isinf(y):
        return math.isinf(x) and math.isinf(y)
    return abs(x - y) <= tol


# ----------------------------------------------------------------------
# Dialects and pseudo-traces


@dataclass(frozen=True)
class Dialect:
    """Finite type-I algebra: a list of matrix-block dimensions.

    ``assignment`` maps each flat coordinate to its block index, so that
    tensor products (whose natural coordinates interleave blocks) stay
    representable without re-indexing.
    """

    blocks: tuple[int, ...]
    assignment: tuple[int, ...] = ()

    def __post_init__(self):
        blocks = tuple(int(k) for k in self.blocks)
        if not blocks or any(k <= 0 for k in blocks):
            raise ValueError("dialect needs at least one positive block")
        object.__setattr__(self, "blocks", blocks)
        if not self.assignment:
            assign = []
            for b, k in enumerate(blocks):
                assign.extend([b] * k)
            object.__setattr__(self, "assignment", tuple(assign))
        else:
            object.__setattr__(self, "assignment", tuple(int(b) for b in self.assignment))
        if len(self.assignment) != sum(blocks):
            raise ValueError("coordinate assignment does not match block dimensions")

    @property
    def dim(self) -> int:
        return len(self.assignment)

    def n_blocks(self) -> int:
        return len(self.blocks)

    def coords_of_block(self, b: int) -> tuple[int, ...]:
        return tuple(c for c, blk in enumerate(self.assignment) if blk == b)

    def is_factor(self) -> bool:
        return len(self.blocks) == 1

    def tensor(self, other: "Dialect") -> "Dialect":
        # the trivial dialect C is the unit of the tensor
        if other.dim == 1:
            return self
        if self.dim == 1:
            return other
        pairs = [(i, j) for i in range(len(self.blocks)) for j in range(len(other.blocks))]
        pair_pos = {p: t for t, p in enumerate(pairs)}
        blocks = tuple(self.blocks[i] * other.blocks[j] for i, j in pairs)
        assign = []
        for a in range(self.dim):
            for b in range(other.dim):
                assign.append(pair_pos[(self.assignment[a], other.assignment[b])])
        return Dialect(blocks, tuple(assign))

    def oplus(self, other: "Dialect") -> "Dialect":
        blocks = self.blocks + other.blocks
        shift = len(self.blocks)
        assign = self.assignment + tuple(b + shift for b in other.assignment)
        return Dialect(blocks, assign)


TRIVIAL_DIALECT = Dialect((1,))


@dataclass(frozen=True)
class PseudoTrace:
    """One real weight per dialect block against the normalised block trace."""

    weights: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))

    def unit(self) -> float:
        """Value on the identity: sum of the weights."""
        return float(sum(self.weights))

    def is_faithful(self) -> bool:
        return all(w > 0 for w in self.weights)

    def tensor(self, other: "PseudoTrace") -> "PseudoTrace":
        return PseudoTrace(tuple(a * b for a in self.weights for b in other.weights))

    def oplus(self, other: "PseudoTrace") -> "PseudoTrace":
        return PseudoTrace(self.weights + other.weights)

    def scale(self, lam: float) -> "PseudoTrace":
        return PseudoTrace(tuple(lam * w for w in self.weights))


UNIT_TRACE = PseudoTrace((1.0,))


# ----------------------------------------------------------------------
# Dialectal operators


def dial_labels(carrier, dim: int) -> tuple:
    return tuple((loc, c) for loc in carrier for c in range(dim))


def table_matrix(op: PartialInjectionOp | WeightedInjection, labels: tuple) -> DenseOperator:
    """The matrix of a finite table on (location, coordinate) labels that hold its indices."""
    pos = {lab: i for i, lab in enumerate(labels)}
    mat = np.zeros((len(labels), len(labels)), dtype=complex)
    for src, (dst, w) in op.table.items():
        mat[pos[(dst.value, dst.slot)], pos[(src.value, src.slot)]] = w
    return DenseOperator(labels, mat)


def _check_hermitian(table) -> None:
    """Every arrow src -> dst of weight w has its reverse dst -> src, of weight conj(w)."""
    tol = max(struct_tol(), 1e-9)
    for src, (dst, w) in table.items():
        back = table.get(dst)
        if back is None or back[0] != src or abs(back[1] - w.conjugate()) > tol:
            raise CarrierError("dialectal operator must be hermitian")


@dataclass(frozen=True)
class DialectalOperator:
    """Hermitian contraction on carrier x dialect with its pseudo-trace.

    The payload is one of three kinds: a dense matrix on (location,
    coordinate) labels; an exact unimodular partial injection whose
    indices are (location, coordinate) pairs; or a ``WeightedInjection``
    d v on the same indices, a diagonal contraction d times such a partial
    injection v.  Entries across distinct dialect blocks must vanish: the
    operator lives in the direct-sum algebra.

    The constructor checks this where an operator enters the engine: from
    outside input, at the plug and at first densification.  A table must
    be hermitian (every arrow has its reverse, with the conjugate weight),
    and a weighted one a contraction, |d| <= 1.  Tensors, delocations,
    zero extensions and superpositions hold it by construction and are
    built unchecked.
    """

    carrier: tuple
    dialect: Dialect
    pseudo_trace: PseudoTrace
    op: object  # DenseOperator | PartialInjectionOp | WeightedInjection

    def __post_init__(self):
        carrier = tuple(self.carrier)
        object.__setattr__(self, "carrier", carrier)
        if len(self.pseudo_trace.weights) != len(self.dialect.blocks):
            raise CarrierError("pseudo-trace does not fit the dialect")
        if isinstance(self.op, DenseOperator):
            want = dial_labels(carrier, self.dialect.dim)
            if self.op.carrier != want:
                raise CarrierError("dense payload labels must be carrier x coordinates, location-major")
            self._check_dense(self.op)
        elif isinstance(self.op, PartialInjectionOp):
            self._check_symbolic(self.op)
        elif isinstance(self.op, WeightedInjection):
            self._check_weighted(self.op)
        else:
            raise TypeError("payload must be DenseOperator, PartialInjectionOp or WeightedInjection")

    @classmethod
    def _built(cls, carrier: tuple, dialect: Dialect, pseudo_trace: PseudoTrace, op) -> "DialectalOperator":
        """An operator that the algebra built from checked ones, with the payload kind of its inputs."""
        self = object.__new__(cls)
        for name, value in (("carrier", carrier), ("dialect", dialect), ("pseudo_trace", pseudo_trace), ("op", op)):
            object.__setattr__(self, name, value)
        return self

    def _check_dense(self, op: DenseOperator):
        tol = struct_tol()
        if not op.is_hermitian(max(tol, 1e-9)):
            raise CarrierError("dialectal operator must be hermitian")
        if self.dialect.is_factor():
            # one block mixes with nothing: the whole matrix is that block
            blocks = [op.mat]
        else:
            block = np.tile(np.asarray(self.dialect.assignment), len(self.carrier))
            if np.any(np.abs(op.mat[block[:, None] != block[None, :]]) > tol):
                raise CarrierError("operator mixes dialect blocks")
            blocks = [op.mat[np.ix_(idx, idx)] for idx in (np.flatnonzero(block == b) for b in range(self.dialect.n_blocks()))]
        # hermitian and block diagonal: the norm is the largest |eigenvalue| over the blocks
        for mat in blocks:
            if np.abs(np.linalg.eigvalsh(mat)).max(initial=0.0) > 1.0 + NORM_SLACK:
                raise CarrierError("dialectal operator must be a contraction")

    def _check_symbolic(self, op: PartialInjectionOp):
        if not op.is_finite():
            raise CarrierError("symbolic dialectal payloads must be finite tables")
        locs = set(self.carrier)
        for src, (dst, _) in op.table.items():
            if src.value not in locs or dst.value not in locs:
                raise CarrierError("symbolic payload leaves the carrier")
            if src.slot >= self.dialect.dim or dst.slot >= self.dialect.dim:
                raise CarrierError("symbolic payload leaves the dialect")
            if self.dialect.assignment[src.slot] != self.dialect.assignment[dst.slot]:
                raise CarrierError("operator mixes dialect blocks")
        _check_hermitian(op.table)

    def _check_weighted(self, op: WeightedInjection):
        self._check_symbolic(op.v)
        if set(op.d) != {dst for dst, _ in op.v.table.values()}:
            raise CarrierError("the diagonal must weigh exactly the range of the injection")
        if not all(abs(m) <= 1.0 + NORM_SLACK for m in op.d.values()):
            raise CarrierError("dialectal operator must be a contraction")
        _check_hermitian(op.table)

    # -- views ----------------------------------------------------------

    @property
    def is_symbolic(self) -> bool:
        """The payload is an exact table: a unimodular or a weighted partial injection."""
        return not isinstance(self.op, DenseOperator)

    def dense_payload(self) -> DenseOperator:
        if isinstance(self.op, DenseOperator):
            return self.op
        return table_matrix(self.op, dial_labels(self.carrier, self.dialect.dim))

    def as_dense(self) -> "DialectalOperator":
        if not self.is_symbolic:
            return self
        return DialectalOperator(self.carrier, self.dialect, self.pseudo_trace, self.dense_payload())

    def on_carrier(self, carrier) -> "DialectalOperator":
        """Same operator viewed on a larger carrier (zero extension)."""
        carrier = tuple(carrier)
        if self.carrier == carrier:
            return self
        if not set(self.carrier) <= set(carrier):
            raise CarrierError("cannot shrink a carrier by zero extension")
        op = self.op if self.is_symbolic else self.op.embed(dial_labels(carrier, self.dialect.dim))
        return DialectalOperator._built(carrier, self.dialect, self.pseudo_trace, op)


def zero_dialectal(carrier, dialect: Dialect = TRIVIAL_DIALECT, alpha: PseudoTrace = UNIT_TRACE) -> DialectalOperator:
    carrier = tuple(carrier)
    return DialectalOperator(carrier, dialect, alpha, DenseOperator.zeros(dial_labels(carrier, dialect.dim)))


def from_location_matrix(carrier, mat, dialect: Dialect = TRIVIAL_DIALECT, alpha: PseudoTrace = UNIT_TRACE) -> DialectalOperator:
    """Lift a plain location matrix to a trivial-dialect dialectal operator."""
    carrier = tuple(carrier)
    mat = np.asarray(mat, dtype=complex)
    if dialect.dim != 1:
        raise CarrierError("from_location_matrix expects the trivial dialect")
    return DialectalOperator(carrier, dialect, alpha, DenseOperator(dial_labels(carrier, 1), mat))


# ----------------------------------------------------------------------
# Dialect extension of a pair: A (x) 1 against 1 (x) B


def _extend_table(op: PartialInjectionOp | WeightedInjection, k: int, k_other: int, left: bool) -> PartialInjectionOp | WeightedInjection:
    """A table on a k-dimensional dialect with the identity on a k_other-dimensional one.

    ``left`` keeps the table's coordinate first (X (x) 1, the left side of
    a pair): slot s becomes s * k_other + c; else last (1 (x) X, the right):
    slot s becomes c * k + s.  A weighted table keeps its diagonal on
    every copy.  The identity on one coordinate changes nothing, so
    ``k_other == 1`` gives op itself.
    """
    if k_other == 1:
        return op

    def slot(s: int, c: int) -> int:
        return s * k_other + c if left else c * k + s

    if isinstance(op, WeightedInjection):
        d = {Idx(i.value, slot(i.slot, c)): m for i, m in op.d.items() for c in range(k_other)}
        return WeightedInjection(_extend_table(op.v, k, k_other, left), d)
    return PartialInjectionOp(
        {
            Idx(src.value, slot(src.slot, c)): (Idx(dst.value, slot(dst.slot, c)), w)
            for src, (dst, w) in op.table.items()
            for c in range(k_other)
        },
        validate=False,
    )


def _extend_matrix(mat: np.ndarray, k: int, k_other: int, left: bool) -> np.ndarray:
    """A matrix on carrier x k coordinates with the identity on k_other more, as ``_extend_table``: ``k_other == 1`` gives mat itself."""
    if k_other == 1:
        return mat
    n = mat.shape[0] // k
    m4 = mat.reshape(n, k, n, k)
    eye = np.eye(k_other, dtype=complex)
    if left:
        ext = np.einsum("iajc,bd->iabjcd", m4, eye)
    else:
        ext = np.einsum("ibjd,ac->iabjcd", m4, eye)
    return ext.reshape(n * k * k_other, n * k * k_other)


class ExtendedPair(NamedTuple):
    """A and B extended to one dialect on one carrier, as plain payloads.

    ``a`` is A (x) 1 and ``b`` is 1 (x) B; the dialect is A's tensored
    with B's.  When neither payload is dense, each keeps its kind: a
    unimodular partial injection, or a weighted one (d v); otherwise both
    are DenseOperators zero-extended to
    ``dial_labels(carrier, dialect.dim)``.  The payloads are factors of a
    product or a sum and are not checked as dialectal operators: a result
    that is kept is built as a ``DialectalOperator`` and checked then.
    """

    carrier: tuple
    dialect: Dialect
    pseudo_trace: PseudoTrace
    a: DenseOperator | PartialInjectionOp
    b: DenseOperator | PartialInjectionOp


def _extend_payload(X: DialectalOperator, k_other: int, left: bool, carrier: tuple) -> np.ndarray:
    """``_extend_matrix`` of X's dense payload, zero-extended to ``carrier`` unless X already is on it."""
    ext = _extend_matrix(X.dense_payload().mat, X.dialect.dim, k_other, left)
    if X.carrier == carrier:
        return ext
    pos = {loc: i for i, loc in enumerate(carrier)}
    K = X.dialect.dim * k_other
    rows = (np.array([pos[loc] for loc in X.carrier], dtype=np.intp)[:, None] * K + np.arange(K)).ravel()
    out = np.zeros((len(carrier) * K, len(carrier) * K), dtype=complex)
    out[np.ix_(rows, rows)] = ext
    return out


def extended_pair(A: DialectalOperator, B: DialectalOperator) -> ExtendedPair:
    """A and B extended to the common dialect (A's left, B's right) on the union carrier.

    The one dialect extension of the engine: the measurements, the plug,
    the union and the tensor read it.  Neither side is built as a
    dialectal operator.
    """
    carrier = union_carrier(A.carrier, B.carrier)
    dialect = A.dialect.tensor(B.dialect)
    alpha = A.pseudo_trace.tensor(B.pseudo_trace)
    ka, kb = A.dialect.dim, B.dialect.dim
    if A.is_symbolic and B.is_symbolic:
        return ExtendedPair(carrier, dialect, alpha, _extend_table(A.op, ka, kb, True), _extend_table(B.op, kb, ka, False))
    labels = dial_labels(carrier, dialect.dim)
    a = _extend_payload(A, kb, True, carrier)
    b = _extend_payload(B, ka, False, carrier)
    return ExtendedPair(carrier, dialect, alpha, DenseOperator(labels, a), DenseOperator(labels, b))


# ----------------------------------------------------------------------
# ldet and the measurements


def _weighted_log_sum(dets: Iterable[tuple[int, complex, float]], dialect: Dialect, weights: PseudoTrace, absolute: bool) -> Meas:
    """-sum_b (alpha_b / k_b) log det_b from the (block, sign, logabs) of each block's determinant.

    The one determinant rule of the measurements, dense or exact: with
    ``absolute`` only a zero determinant is infinite; otherwise the real
    part of each sign must be positive, and a complex residue in a sign is
    logged as a warning.
    """
    total = 0.0
    for b, sign, logabs in dets:
        if absolute:
            if sign == 0:
                return math.inf
            val = float(logabs)
        else:
            if abs(sign.imag) > 1e-9:
                log.warning("measurement determinant has complex residue (phase %s)", complex(sign))
            if sign.real <= 0:
                return math.inf
            val = float(logabs) + math.log(sign.real)
        total += -(weights.weights[b] / dialect.blocks[b]) * val
    return total


def _block_log_sum(one_minus: np.ndarray, carrier, dialect: Dialect, weights: PseudoTrace, absolute: bool) -> Meas:
    # one_minus is on dial_labels(carrier, dialect.dim): coordinate c of location i sits at i * dim + c
    if dialect.is_factor():
        return _weighted_log_sum([(0, *np.linalg.slogdet(one_minus))], dialect, weights, absolute)
    block = np.tile(np.asarray(dialect.assignment), len(carrier))

    def dets():
        for b in range(dialect.n_blocks()):
            idx = np.flatnonzero(block == b)
            yield (b, *np.linalg.slogdet(one_minus[np.ix_(idx, idx)]))

    return _weighted_log_sum(dets(), dialect, weights, absolute)


def _arrows(op: PartialInjectionOp | WeightedInjection) -> dict:
    """src -> (dst, weight, modulus) of a finite table; the modulus is |d| at dst, 1 on a unimodular table."""
    if isinstance(op, WeightedInjection):
        d = op.d
        return {src: (dst, w * d[dst], abs(d[dst])) for src, (dst, w) in op.v.table.items()}
    return {src: (dst, w, 1.0) for src, (dst, w) in op.table.items()}


def _product_arrows(a, b) -> dict:
    """``_arrows`` of the product b a of two finite tables (a acts first)."""
    then = _arrows(b)
    step = {}
    for x, (y, w, m) in _arrows(a).items():
        hit = then.get(y)
        if hit is not None:
            step[x] = (hit[0], w * hit[1], m * hit[2])
    return step


def _cycle_ldet(step: dict, dialect: Dialect, weights: PseudoTrace) -> Meas:
    """ldet of the weighted partial injection given by its ``_arrows``, decided by one walk over its cycles.

    Every index lies on one path or one cycle.  1 - M has determinant 1 on
    a path and 1 - w_c on a cycle of weight w_c, and a cycle stays inside
    its dialect block.  So no cycle gives exactly 0; a cycle whose moduli
    multiply to 1 or more gives spectral radius >= 1, hence +inf; otherwise
    block b has determinant prod_c (1 - w_c) over its cycles.
    """
    cycles: dict[int, list[complex]] = {}
    seen = set()
    for start in step:
        if start in seen:
            continue
        x, w, m = start, 1.0 + 0j, 1.0
        while x in step and x not in seen:
            seen.add(x)
            x, wx, mx = step[x]
            w *= wx
            m *= mx
        if x == start:
            if m >= 1.0:
                return math.inf
            cycles.setdefault(dialect.assignment[start.slot], []).append(1.0 - w)
    if not cycles:
        return 0.0
    dets = ((b, math.prod(f / abs(f) for f in cycles[b]), math.fsum(math.log(abs(f)) for f in cycles[b])) for b in sorted(cycles))
    return _weighted_log_sum(dets, dialect, weights, absolute=False)


def spectral_gate(prod: DenseOperator) -> Meas | None:
    """None when the spectral radius of prod is certified below 1 (or prod is
    zero), +inf when it is certified at or above 1, Indeterminate when the
    certificate straddles 1."""
    report = spectral_radius(prod, gate=True)
    if report.below_one():
        return None
    return math.inf if report.at_least_one() else INDETERMINATE


def _ldet_raw(mat: DenseOperator, carrier, dialect: Dialect, weights: PseudoTrace, absolute: bool) -> Meas:
    if not absolute:
        gate = spectral_gate(mat)
        if gate is not None:
            return gate
    return _block_log_sum(np.eye(mat.dim) - mat.mat, carrier, dialect, weights, absolute)


def ldet(M: DialectalOperator, *, absolute: bool = False) -> Meas:
    """sum_k trace(M^k)/k for the operator's trace, i.e. -log det(1 - M).

    Gate: certified spectral radius below 1 gives the finite value; at or
    above 1 gives +inf; a straddling certificate gives Indeterminate.
    With ``absolute=True`` the gate is skipped and |det| is used (the
    Fuglede-Kadison convention), with +inf exactly on singular 1 - M.

    A table payload is decided exactly from its cycles (``_cycle_ldet``):
    a nilpotent one has no fixed point in any power, so every trace term
    vanishes and the series is 0.
    """
    if not absolute and M.is_symbolic:
        return _cycle_ldet(_arrows(M.op), M.dialect, M.pseudo_trace)
    dense = M.as_dense()
    return _ldet_raw(dense.dense_payload(), dense.carrier, dense.dialect, dense.pseudo_trace, absolute)


def ldet_series(M: DialectalOperator, terms: int = 60) -> float:
    """Truncated series sum_{k<=terms} trace(M^k)/k (test oracle)."""
    dense = M.as_dense()
    mat = dense.dense_payload().mat
    n_coords = dense.dialect.dim
    n = len(dense.carrier)
    total = 0.0
    power = np.eye(mat.shape[0], dtype=complex)
    for k in range(1, terms + 1):
        power = power @ mat
        tr = 0.0 + 0j
        m4 = power.reshape(n, n_coords, n, n_coords)
        for b, kb in enumerate(dense.dialect.blocks):
            coords = dense.dialect.coords_of_block(b)
            block_tr = sum(m4[i, c, i, c] for i in range(n) for c in coords)
            tr += dense.pseudo_trace.weights[b] / kb * block_tr
        total += tr.real / k
    return total


def meas_mat(A: DialectalOperator, B: DialectalOperator) -> Meas:
    """ldet of 1 minus the dialect-extended product, with the spectral gate.

    When neither payload is dense the extended product BA is a weighted
    partial injection, and the answer is exact, from one walk over its
    cycles (``_cycle_ldet``).  A pair with a dense side is measured
    densely: the spectral gate, then ``slogdet`` per dialect block.
    """
    ext = extended_pair(A, B)
    if not isinstance(ext.a, DenseOperator):
        return _cycle_ldet(_product_arrows(ext.a, ext.b), ext.dialect, ext.pseudo_trace)
    return _ldet_raw(ext.a @ ext.b, ext.carrier, ext.dialect, ext.pseudo_trace, absolute=False)


def meas_hyp(u: DenseOperator, v: DenseOperator) -> Meas:
    """-log |det(1 - uv)| on the union of the carriers (counting trace, no gate)."""
    carrier = union_carrier(u.carrier, v.carrier)
    prod = u.embed(carrier) @ v.embed(carrier)
    one_minus = DenseOperator.identity(carrier) - prod
    return _block_log_sum(one_minus.mat, carrier, TRIVIAL_DIALECT, UNIT_TRACE, absolute=True)


# the measurement module deliberately has no densities on Project; the
# scalar measurements below duck-type on .wager / .dialectal


def sca_mat(a, b) -> Meas:
    """alpha(1) * wager_b + beta(1) * wager_a + meas_mat(A, B)."""
    A, B = a.dialectal, b.dialectal
    m = meas_mat(A, B)
    if is_indeterminate(m):
        return INDETERMINATE
    if math.isinf(a.wager) or math.isinf(b.wager) or math.isinf(m):
        return math.inf
    return A.pseudo_trace.unit() * b.wager + B.pseudo_trace.unit() * a.wager + m


def sca_verdict(value: Meas, tol: float | None = None) -> tuple[str, bool]:
    """Classify a scalar measurement for the orthogonality test.

    Returns (verdict, suspicious): verdict in {"orthogonal", "zero",
    "infinite", "indeterminate"}; suspicious flags magnitudes within a
    decade of the zero tolerance.
    """
    tol = struct_tol() if tol is None else tol
    if is_indeterminate(value):
        return "indeterminate", False
    if math.isinf(value):
        return "infinite", False
    if abs(value) <= tol:
        return "zero", False
    return "orthogonal", abs(value) <= 10 * tol


# ----------------------------------------------------------------------
# Variants (dialect isomorphisms)


@dataclass(frozen=True)
class DialectIso:
    """Block permutation plus one unitary per (target) block.

    Sends block ``perm[i]`` of the source dialect to position ``i``; the
    unitary ``unitaries[i]`` rotates inside that block.
    """

    perm: tuple[int, ...]
    unitaries: tuple

    @staticmethod
    def identity(dialect: Dialect) -> "DialectIso":
        return DialectIso(tuple(range(len(dialect.blocks))), tuple(np.eye(k) for k in dialect.blocks))


def apply_variant(A: DialectalOperator, iso: DialectIso) -> DialectalOperator:
    """Conjugate the dialect by an isomorphism; pseudo-trace follows."""
    src = A.as_dense()
    old = src.dialect
    new_blocks = tuple(old.blocks[p] for p in iso.perm)
    new_dialect = Dialect(new_blocks)
    new_weights = PseudoTrace(tuple(src.pseudo_trace.weights[p] for p in iso.perm))
    K = old.dim
    W = np.zeros((K, K), dtype=complex)
    for new_b, old_b in enumerate(iso.perm):
        old_coords = old.coords_of_block(old_b)
        new_coords = new_dialect.coords_of_block(new_b)
        U = np.asarray(iso.unitaries[new_b], dtype=complex)
        if U.shape != (len(old_coords), len(old_coords)):
            raise CarrierError("unitary does not fit its block")
        for r, nc in enumerate(new_coords):
            for s, oc in enumerate(old_coords):
                W[nc, oc] = U[r, s]
    n = len(src.carrier)
    big = np.kron(np.eye(n, dtype=complex), W)
    mat = big @ src.dense_payload().mat @ big.conj().T
    return DialectalOperator(src.carrier, new_dialect, new_weights, DenseOperator(dial_labels(src.carrier, K), mat))


def variant_invariance_residual(a, iso: DialectIso, probe) -> float:
    """|sca(a, probe) - sca(a_variant, probe)| with infinities matched."""
    from .projects import Project  # local import to avoid a cycle

    base = sca_mat(a, probe)
    varied = Project(a.wager, apply_variant(a.dialectal, iso))
    other = sca_mat(varied, probe)
    if is_indeterminate(base) or is_indeterminate(other):
        return math.inf
    if math.isinf(base) or math.isinf(other):
        return 0.0 if math.isinf(base) and math.isinf(other) else math.inf
    return abs(base - other)
