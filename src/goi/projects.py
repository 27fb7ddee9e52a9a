"""The project algebra: tensor, plug, sums, delocations, success checking.

A project is a wager together with a dialectal operator.  The success
notion ("promising") asks for a factor dialect with its normalised
trace, a zero wager, a partial symmetry living in the groupoid of the
diagonal algebra, and vanishing diagonal dialect blocks (no fixed
points, not even dialect-internal ones).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .config import struct_tol
from .errors import CarrierError, DisjointnessError
from .groupoid import (
    Idx,
    PartialInjectionOp,
    adjoint,
    compose,
    is_partial_symmetry,
    relabel,
    sum_disjoint,
    sum_weighted,
)
from .linalg import DenseOperator
from .measurement import (
    Dialect,
    DialectalOperator,
    PseudoTrace,
    TRIVIAL_DIALECT,
    UNIT_TRACE,
    dial_labels,
    sca_mat,
    sca_verdict,
    zero_dialectal,
)
from .execution import plug_measured, union_dialectal


@dataclass(frozen=True)
class Project:
    """Wager plus dialectal operator: the proof object of the model."""

    wager: float
    dialectal: DialectalOperator

    @property
    def carrier(self) -> tuple:
        return self.dialectal.carrier

    @property
    def dialect(self) -> Dialect:
        return self.dialectal.dialect

    @property
    def pseudo_trace(self) -> PseudoTrace:
        return self.dialectal.pseudo_trace

    @property
    def op(self):
        return self.dialectal.op


def zero_project(carrier) -> Project:
    """The wager-free trivial project on a carrier."""
    return Project(0.0, zero_dialectal(carrier))


def make_project(carrier, wager, mat, dialect: Dialect = TRIVIAL_DIALECT, alpha: PseudoTrace = UNIT_TRACE) -> Project:
    carrier = tuple(carrier)
    op = DenseOperator(dial_labels(carrier, dialect.dim), mat)
    return Project(float(wager), DialectalOperator(carrier, dialect, alpha, op))


# ----------------------------------------------------------------------
# Delocations


@dataclass(frozen=True)
class Delocation:
    """Groupoid partial isometry moving a carrier onto a disjoint copy."""

    source: tuple
    target: tuple
    op: PartialInjectionOp

    @staticmethod
    def from_pairs(source, target, phases=None) -> "Delocation":
        source = tuple(source)
        target = tuple(target)
        if len(source) != len(target):
            raise CarrierError("delocation needs equinumerous carriers")
        phases = phases or [1.0] * len(source)
        table = {
            Idx(int(s), 0): (Idx(int(t), 0), complex(p))
            for s, t, p in zip(source, target, phases)
        }
        return Delocation(source, target, PartialInjectionOp(table))

    @staticmethod
    def identity(carrier) -> "Delocation":
        carrier = tuple(carrier)
        return Delocation.from_pairs(carrier, carrier)

    def then(self, other: "Delocation") -> "Delocation":
        return Delocation(self.source, other.target, compose(other.op, self.op))

    def inverse(self) -> "Delocation":
        return Delocation(self.target, self.source, adjoint(self.op))

    def map_location(self, loc: int) -> int:
        hit = self.op.apply(Idx(int(loc), 0))
        if hit is None:
            raise CarrierError(f"location {loc} outside the delocation source")
        return hit[0].value


def deloc_project(theta: Delocation, a: Project) -> Project:
    """Conjugate a project by a delocation: carrier moves, dialect stays."""
    if not set(a.carrier) <= set(theta.source):
        raise CarrierError("delocation does not cover the project carrier")
    mapping = {loc: theta.map_location(loc) for loc in a.carrier}
    new_carrier = tuple(mapping[l] for l in a.carrier)
    d = a.dialectal
    phases = [theta.op.apply(Idx(loc, 0))[1] for loc in a.carrier]
    if d.is_symbolic:
        phase = dict(zip(a.carrier, phases))
        op = relabel(d.op, lambda i: Idx(mapping[i.value], i.slot), lambda i: phase[i.value])
    else:
        labels = dial_labels(new_carrier, d.dialect.dim)
        # the payload's labels are location-major: one phase per location, repeated over its coordinates
        phase = np.repeat(phases, d.dialect.dim)
        op = DenseOperator(labels, phase[:, None] * d.dense_payload().mat * phase.conj()[None, :])
    return Project(a.wager, DialectalOperator._built(new_carrier, d.dialect, d.pseudo_trace, op))


# ----------------------------------------------------------------------
# Algebra on projects


def tensor_project(a: Project, b: Project) -> Project:
    """Disjoint union: wager a.beta(1) + alpha(1).b, dialects tensored (``union_dialectal``)."""
    wager = a.wager * b.pseudo_trace.unit() + a.pseudo_trace.unit() * b.wager
    return Project(wager, union_dialectal(a.dialectal, b.dialectal))


def plug_project(f: Project, a: Project) -> Project:
    """Execution of two projects: wagers flow, measurement added (``plug_measured``)."""
    m, plugged = plug_measured(f.dialectal, a.dialectal)
    wager = f.wager * a.pseudo_trace.unit() + a.wager * f.pseudo_trace.unit() + m
    return Project(wager, plugged)


def sum_lambda(a: Project, lam: float, b: Project) -> Project:
    """Superposition a + lambda b: dialects direct-summed, weights scaled."""
    if set(a.carrier) != set(b.carrier):
        raise CarrierError("superposition requires equal carriers")
    carrier = a.carrier
    dialect = a.dialect.oplus(b.dialect)
    alpha = a.pseudo_trace.oplus(b.pseudo_trace.scale(lam))
    A, B = a.dialectal, b.dialectal.on_carrier(carrier)
    shift = a.dialect.dim
    make = DialectalOperator._built if type(A.op) is type(B.op) else DialectalOperator
    if A.is_symbolic and B.is_symbolic:
        op = sum_weighted(A.op, relabel(B.op, lambda i: Idx(i.value, i.slot + shift)))
        return Project(a.wager + lam * b.wager, make(carrier, dialect, alpha, op))
    Am = A.dense_payload()
    Bm = B.dense_payload()
    labels = dial_labels(carrier, dialect.dim)
    mat = np.zeros((len(labels), len(labels)), dtype=complex)
    posn = {lab: i for i, lab in enumerate(labels)}
    rows_a = [posn[lab] for lab in Am.carrier]
    rows_b = [posn[(l, c + shift)] for l, c in Bm.carrier]
    mat[np.ix_(rows_a, rows_a)] = Am.mat
    mat[np.ix_(rows_b, rows_b)] = Bm.mat
    return Project(a.wager + lam * b.wager, make(carrier, dialect, alpha, DenseOperator(labels, mat)))


def extend_carrier(a: Project, extra) -> Project:
    """Zero-padded copy on carrier + extra."""
    extra = tuple(extra)
    if set(extra) & set(a.carrier):
        raise CarrierError("extension labels must be fresh")
    carrier = a.carrier + extra
    return Project(a.wager, a.dialectal.on_carrier(carrier))


def scale_project(lam: float, a: Project) -> Project:
    """Pseudo-trace scaling: every measurement against it scales by lambda."""
    if lam == 0:
        raise ValueError("scaling weight must be nonzero")
    return Project(lam * a.wager, DialectalOperator._built(a.carrier, a.dialect, a.pseudo_trace.scale(lam), a.op))


# ----------------------------------------------------------------------
# Fax and the additive machinery


def build_fax(theta: Delocation, phi: Delocation) -> Project:
    """Axiom interpretation theta phi* + phi theta* on the two targets."""
    if set(theta.target) & set(phi.target):
        raise DisjointnessError("fax targets must be disjoint")
    if theta.source != phi.source:
        raise CarrierError("fax delocations must share their source")
    carrier = tuple(theta.target) + tuple(phi.target)
    fwd = compose(theta.op, adjoint(phi.op))
    op = sum_disjoint(fwd, adjoint(fwd))
    return Project(0.0, DialectalOperator(carrier, TRIVIAL_DIALECT, UNIT_TRACE, op))


def with_bar(f: Project, g: Project, theta1: Delocation | None = None, theta2: Delocation | None = None) -> Project:
    """Superposed additive pairing: carriers overlap only on the shared context.

    Result: wager 0, dialect F + G with halved weights, operator F + G
    acting in its own block.
    """
    fd = deloc_project(theta1, f) if theta1 is not None else f
    gd = deloc_project(theta2, g) if theta2 is not None else g
    carrier = tuple(fd.carrier) + tuple(l for l in gd.carrier if l not in set(fd.carrier))
    fe = Project(fd.wager, fd.dialectal.on_carrier(carrier))
    ge = Project(gd.wager, gd.dialectal.on_carrier(carrier))
    half = sum_lambda(scale_project(0.5, fe), 1.0, scale_project(0.5, ge))
    return Project(0.0, half.dialectal)


# ----------------------------------------------------------------------
# Success checking


@dataclass(frozen=True)
class PromisingReport:
    dialect_ok: bool
    pseudo_trace_ok: bool
    wager_ok: bool
    symmetry_ok: bool
    traces_ok: bool
    notes: tuple[str, ...] = ()

    @property
    def all_pass(self) -> bool:
        return self.dialect_ok and self.pseudo_trace_ok and self.wager_ok and self.symmetry_ok and self.traces_ok

    def failures(self) -> tuple[str, ...]:
        out = []
        for name in ("dialect_ok", "pseudo_trace_ok", "wager_ok", "symmetry_ok", "traces_ok"):
            if not getattr(self, name):
                out.append(name)
        return tuple(out)


def _embeddable_as_factor(dialect: Dialect, alpha: PseudoTrace, tol: float) -> bool:
    """Is there a trace-preserving unital embedding into one matrix factor?

    Needs every weight positive, total weight 1, and each weight an
    integer multiple of block_dim / N for a common N.
    """
    if not alpha.is_faithful():
        return False
    if abs(alpha.unit() - 1.0) > tol:
        return False
    if dialect.is_factor():
        return True
    fracs = []
    for k, w in zip(dialect.blocks, alpha.weights):
        fr = Fraction(w / k).limit_denominator(1 << 20)
        if abs(float(fr) - w / k) > tol:
            return False
        fracs.append(fr)
    denom = 1
    for fr in fracs:
        denom = denom * fr.denominator // math.gcd(denom, fr.denominator)
    return all((fr * denom).denominator == 1 for fr in fracs)


def _dense_partial_symmetry(op: DenseOperator, tol: float) -> bool:
    mat = op.mat
    if not op.dim:
        return True
    if float(np.max(np.abs(mat - mat.conj().T))) > tol:
        return False
    # weighted partial injection pattern: at most one nonzero per row/column,
    # every nonzero unimodular
    nz = np.abs(mat) > tol
    if np.any(nz.sum(axis=0) > 1) or np.any(nz.sum(axis=1) > 1):
        return False
    vals = np.abs(mat[nz])
    if vals.size and float(np.max(np.abs(vals - 1.0))) > max(tol, 1e-7):
        return False
    return True


def is_promising(a: Project, tol: float | None = None) -> PromisingReport:
    """Five-field success report for a project."""
    tol = struct_tol() if tol is None else tol
    notes: list[str] = []
    dialect_ok = _embeddable_as_factor(a.dialect, a.pseudo_trace, tol)
    if not dialect_ok:
        notes.append("dialect does not embed as a single normalised factor")
    pseudo_ok = a.pseudo_trace.is_faithful() and abs(a.pseudo_trace.unit() - 1.0) <= tol
    wager_ok = (not math.isinf(a.wager)) and abs(a.wager) <= tol
    d = a.dialectal
    if isinstance(d.op, PartialInjectionOp):
        symmetry_ok = is_partial_symmetry(d.op)
        traces_ok = all(src.value != dst.value for src, (dst, _) in d.op.table.items())
    else:
        op = d.dense_payload()
        symmetry_ok = _dense_partial_symmetry(op, max(tol, 1e-7))
        # labels are location-major, dialect.dim coordinates per location
        loc = np.arange(op.dim) // d.dialect.dim
        traces_ok = not np.any(np.abs(op.mat[loc[:, None] == loc[None, :]]) > tol)
    return PromisingReport(dialect_ok, pseudo_ok, wager_ok, symmetry_ok, traces_ok, tuple(notes))


# ----------------------------------------------------------------------
# Witness-based conduct testing


@dataclass(frozen=True)
class ConductWitnessSet:
    carrier: tuple
    members: tuple
    polarity: str = "dual"
    coverage: object = None  # the combinations the members were chosen from, where a generator says

    def __post_init__(self):
        for m in self.members:
            if set(m.carrier) != set(self.carrier):
                raise CarrierError("witness carrier mismatch")


@dataclass(frozen=True)
class WitnessRow:
    witness: int
    sca: object
    verdict: str
    suspicious: bool


def orthogonal_witness_suite(a: Project, witnesses: ConductWitnessSet, tol: float | None = None) -> list[WitnessRow]:
    rows = []
    for k, w in enumerate(witnesses.members):
        value = sca_mat(a, w)
        verdict, suspicious = sca_verdict(value, tol)
        rows.append(WitnessRow(k, value, verdict, suspicious))
    return rows


def obs_equiv(a: Project, a2: Project, witnesses: ConductWitnessSet, tol: float = 1e-8) -> bool:
    """Equal scalar measurements against every witness."""
    if set(a.carrier) != set(a2.carrier):
        raise CarrierError("observational equivalence needs equal carriers")
    from .measurement import meas_close

    for w in witnesses.members:
        if not meas_close(sca_mat(a, w), sca_mat(a2, w), tol):
            return False
    return True
