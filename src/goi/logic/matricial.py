"""Interpretation of additive-multiplicative proofs as projects.

Every rule builds on the project algebra: axioms become faxes, tensors
disjoint unions, cuts plugs over a shared carrier, plus rules carrier
extensions, with rules halved superpositions, and the top rule the empty
table on its carrier.  Conduct membership is tested against finite
witness sets generated from an interpretation basis: a family of
projects (and duals) per variable on a private primitive carrier.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from ..errors import CarrierError, MissingVariableError, NumericError, ProofSyntaxError
from ..groupoid import Idx, PartialInjectionOp, WeightedInjection
from ..measurement import TRIVIAL_DIALECT, UNIT_TRACE, DialectalOperator
from ..projects import (
    ConductWitnessSet,
    Delocation,
    Project,
    build_fax,
    deloc_project,
    extend_carrier,
    make_project,
    plug_project,
    sum_lambda,
    tensor_project,
    with_bar,
)
from .locations import CarrierSite, MatPlan, allocate_matricial, cut_carrier_sites, premise_sites
from .syntax import (
    Ax,
    Bin,
    Cut,
    DualVar,
    Exchange,
    Par,
    PlusL,
    PlusR,
    ProofTree,
    TopRule,
    TensorRule,
    Top,
    Var,
    With,
    Zero,
    _Reader,
    _is_atom,
    premises,
    sequent_of,
)

# ----------------------------------------------------------------------
# Interpretation bases


@dataclass(frozen=True)
class WitnessSpec:
    wager: float
    kind: str  # "zero" | "scalar" | "swap" | "diag"
    values: tuple[float, ...] = ()


@dataclass(frozen=True)
class BasisEntry:
    name: str
    size: int
    primal: tuple[WitnessSpec, ...]
    dual: tuple[WitnessSpec, ...]


class InterpretationBasis:
    """Variable name -> primitive carrier plus witness families.

    Every witness is materialised once, here: a spec that does not give a
    hermitian contraction with finite entries and a finite wager raises
    CarrierError or NumericError naming the entry, before any proof is
    interpreted against the basis.  The checked matrix is then held as
    d v, a diagonal contraction times a partial injection
    (``WeightedInjection``): every spec of the grammar has at most one
    non-zero entry per row and per column.
    """

    def __init__(self, entries):
        self.entries: dict[str, BasisEntry] = {}
        order = []
        for e in entries:
            if e.name in self.entries:
                raise CarrierError(f"duplicate basis entry {e.name}")
            self.entries[e.name] = e
            order.append(e.name)
        self._order = order
        self._projects: dict[tuple[str, str], tuple[Project, ...]] = {}
        for e in self.entries.values():
            for group, specs in (("primal", e.primal), ("dual", e.dual)):
                self._projects[e.name, group] = tuple(self._checked(e.name, group, k, s) for k, s in enumerate(specs))

    def covers(self, name: str) -> bool:
        return name in self.entries

    def entry(self, name: str) -> BasisEntry:
        if name not in self.entries:
            raise MissingVariableError(f"basis lacks variable {name}")
        return self.entries[name]

    def primitive_carrier(self, name: str) -> tuple[int, ...]:
        idx = self._order.index(name)
        base = -(1000 * (idx + 1))
        return tuple(base - k for k in range(self.entry(name).size))

    def _checked(self, name: str, group: str, k: int, spec: WitnessSpec) -> Project:
        try:
            return self._materialise(name, spec)
        except (CarrierError, NumericError) as exc:
            raise type(exc)(f"basis entry {name}, {group} witness {k}: {exc}") from None

    def _materialise(self, name: str, spec: WitnessSpec) -> Project:
        if not math.isfinite(spec.wager):
            raise CarrierError("witness wager must be finite")
        carrier = self.primitive_carrier(name)
        n = len(carrier)
        mat = np.zeros((n, n), dtype=complex)
        if spec.kind == "zero":
            pass
        elif spec.kind == "scalar":
            mat += spec.values[0] * np.eye(n)
        elif spec.kind == "swap":
            if n < 2:
                raise CarrierError("swap witnesses need a carrier of size 2+")
            mat[0, 1] = mat[1, 0] = spec.values[0]
        elif spec.kind == "diag":
            if len(spec.values) != n:
                raise CarrierError("diag witness length mismatch")
            mat += np.diag(np.array(spec.values, dtype=complex))
        else:
            raise CarrierError(f"unknown witness kind {spec.kind}")
        mat = make_project(carrier, spec.wager, mat).op.mat
        v, d = {}, {}
        for i, j in zip(*np.nonzero(mat)):
            src, dst, w = Idx(carrier[j], 0), Idx(carrier[i], 0), complex(mat[i, j])
            v[src] = (dst, w / abs(w))
            d[dst] = abs(w)
        op = WeightedInjection(PartialInjectionOp(v), d)
        return Project(float(spec.wager), DialectalOperator(carrier, TRIVIAL_DIALECT, UNIT_TRACE, op))

    def primal_projects(self, name: str) -> list[Project]:
        return list(self._projects[self.entry(name).name, "primal"])

    def dual_projects(self, name: str) -> list[Project]:
        return list(self._projects[self.entry(name).name, "dual"])


def default_basis() -> InterpretationBasis:
    """Deterministic desk-scale basis: positive wagers, small operators.

    Every primal/dual pairing measures to a value comfortably away from
    0 and finite, so generated witness products stay admissible.  Built
    and checked once per process: its projects are frozen, their payloads
    read-only, and ``primal_projects``/``dual_projects`` return fresh lists.
    """
    return _default_basis()


@functools.cache
def _default_basis() -> InterpretationBasis:
    specs = []
    for name, size in (("X1", 1), ("X2", 1), ("X3", 2), ("X4", 1)):
        primal = (
            WitnessSpec(0.7, "zero"),
            WitnessSpec(0.4, "scalar", (0.5,)) if size == 1 else WitnessSpec(0.4, "swap", (0.5,)),
        )
        dual = (
            WitnessSpec(0.9, "zero"),
            WitnessSpec(0.6, "scalar", (-0.3,)) if size == 1 else WitnessSpec(0.6, "swap", (-0.3,)),
        )
        specs.append(BasisEntry(name, size, primal, dual))
    return InterpretationBasis(specs)


def parse_basis(text: str) -> InterpretationBasis:
    """(basis (var NAME SIZE (primal SPEC*) (dual SPEC*))*) with
    SPEC = (project WAGER zero|(scalar S)|(swap S)|(diag V*)).

    Any other shape, and a wager, size or value that is not a number, is
    a ProofSyntaxError at the offending token.
    """
    reader = _Reader(text)
    node = reader.read()

    def where(n) -> tuple[int, int]:
        tok = n if _is_atom(n) else n[1]
        return tok.line, tok.col

    def items_of(n, shape: str, heads: tuple[str, ...]) -> list:
        """The items of a list node whose first item is one of the head atoms."""
        if _is_atom(n) or not n[0] or not _is_atom(n[0][0]) or n[0][0].text not in heads:
            raise ProofSyntaxError(f"expected {shape}", *where(n))
        return n[0]

    def number(n, kind, what: str):
        if _is_atom(n):
            try:
                return kind(n.text)
            except ValueError:
                pass
        raise ProofSyntaxError(f"{what} must be a number", *where(n))

    def spec_of(n) -> WitnessSpec:
        sub = items_of(n, "(project WAGER OPSPEC)", ("project",))
        if len(sub) != 3:
            raise ProofSyntaxError("expected (project WAGER OPSPEC)", *where(n))
        wager = number(sub[1], float, "witness wager")
        opspec = sub[2]
        if _is_atom(opspec):
            if opspec.text != "zero":
                raise ProofSyntaxError(f"unknown opspec {opspec.text}", opspec.line, opspec.col)
            return WitnessSpec(wager, "zero")
        parts = items_of(opspec, "zero or (KIND VALUE*)", ("scalar", "swap", "diag"))
        kind = parts[0].text
        vals = tuple(number(t, float, "witness value") for t in parts[1:])
        if kind != "diag" and len(vals) != 1:
            raise ProofSyntaxError(f"({kind} S) takes one value", *where(opspec))
        return WitnessSpec(wager, kind, vals)

    items = items_of(node, "(basis ...)", ("basis",))
    entries = []
    for item in items[1:]:
        sub = items_of(item, "(var NAME SIZE ...)", ("var",))
        if len(sub) < 3 or not _is_atom(sub[1]):
            raise ProofSyntaxError("expected (var NAME SIZE ...)", *where(item))
        name = sub[1].text
        size = number(sub[2], int, "variable size")
        primal: tuple[WitnessSpec, ...] = ()
        dualw: tuple[WitnessSpec, ...] = ()
        for grp in sub[3:]:
            g = items_of(grp, "(primal SPEC*) or (dual SPEC*)", ("primal", "dual"))
            specs = tuple(spec_of(x) for x in g[1:])
            if g[0].text == "primal":
                primal = specs
            else:
                dualw = specs
        entries.append(BasisEntry(name, size, primal, dualw))
    return InterpretationBasis(entries)


# ----------------------------------------------------------------------
# Interpretation


def _interpret(node: ProofTree, sites: list[CarrierSite], cut_sites) -> Project:
    """The project of ``node`` on its conclusion ``sites``; ``cut_sites(formula)`` allocates a cut's two sites."""
    if isinstance(node, Ax):
        a, b = sites
        return build_fax(a.delocation, b.delocation)
    if isinstance(node, TopRule):
        carrier = tuple(loc for s in sites for loc in s.locations)
        return Project(0.0, DialectalOperator(carrier, TRIVIAL_DIALECT, UNIT_TRACE, PartialInjectionOp()))
    cut = cut_sites(node.formula) if isinstance(node, Cut) else None
    parts = [_interpret(q, s, cut_sites) for q, s in zip(premises(node), premise_sites(node, sites, cut))]
    if isinstance(node, (Par, Exchange)):
        return parts[0]
    if isinstance(node, TensorRule):
        return tensor_project(*parts)
    if isinstance(node, Cut):
        return plug_project(*parts)
    if isinstance(node, PlusL):
        return extend_carrier(parts[0], sites[0].right().locations)
    if isinstance(node, PlusR):
        return extend_carrier(parts[0], sites[0].left().locations)
    if isinstance(node, With):
        return with_bar(*parts)
    raise CarrierError(f"unknown node {node!r}")


def interpret_mall_matricial(proof: ProofTree, basis: InterpretationBasis, plan: MatPlan | None = None) -> Project:
    """Project interpretation of an additive-multiplicative proof.

    A cut's locations are allocated where the walk meets it, counting on
    from the conclusion's: the cuts are numbered in pre-order.
    """
    sequent_of(proof)  # every rule checked before the walk reads the conclusions
    plan = plan if plan is not None else allocate_matricial(proof, basis)
    counter = itertools.count(sum(len(s.locations) for s in plan.sites))
    return _interpret(proof, list(plan.sites), lambda f: cut_carrier_sites(f, basis, counter))


# ----------------------------------------------------------------------
# Witness generation (finite stand-in for dual conducts)


def _deloc_all(projects, theta: Delocation):
    return [deloc_project(theta, p) for p in projects]


def dual_witnesses_for(site: CarrierSite, basis: InterpretationBasis, cap: int = 3) -> list[Project]:
    """Finite sample of the dual conduct of one formula occurrence."""
    f = site.formula
    if isinstance(f, Var):
        return _deloc_all(basis.dual_projects(f.name), site.delocation)[:cap]
    if isinstance(f, DualVar):
        return _deloc_all(basis.primal_projects(f.name), site.delocation)[:cap]
    if isinstance(f, Top):
        return []  # the empty conduct has no members
    if isinstance(f, Zero):
        # the zero operator on no locations, as a table: sequents with a 0 site stay exact
        return [Project(0.0, DialectalOperator((), TRIVIAL_DIALECT, UNIT_TRACE, WeightedInjection(PartialInjectionOp(), {})))]
    assert isinstance(f, Bin)
    lefts = dual_witnesses_for(site.left(), basis, cap)
    rights = dual_witnesses_for(site.right(), basis, cap)
    out: list[Project] = []
    if f.conn in ("tensor", "par"):
        for a, b in itertools.islice(itertools.product(lefts, rights), cap):
            out.append(tensor_project(a, b))
    elif f.conn == "with":
        for a in lefts[:cap]:
            out.append(extend_carrier(a, site.right().locations))
        for b in rights[:cap]:
            out.append(extend_carrier(b, site.left().locations))
        out = out[: 2 * cap]
    elif f.conn == "plus":
        for a, b in itertools.islice(itertools.product(lefts, rights), cap):
            ea = extend_carrier(a, site.right().locations)
            eb = extend_carrier(b, site.left().locations)
            out.append(sum_lambda(ea, 1.0, eb))
    return out


@dataclass(frozen=True)
class WitnessCoverage:
    """Which share of a sequent's witness combinations a witness set tests.

    ``sites`` holds, per formula of the sequent, the size of its witness
    family and the cap that family was cut to.
    """

    sites: tuple[tuple[int, int], ...]
    tested: int

    @property
    def combinations(self) -> int:
        """One witness per site: the product of the family sizes, exactly."""
        return math.prod(size for size, _ in self.sites)

    @property
    def exhaustive(self) -> bool:
        return self.tested == self.combinations


def sequent_dual_witnesses(plan: MatPlan, basis: InterpretationBasis, cap: int = 3, total_cap: int = 12) -> ConductWitnessSet:
    """Witnesses of the dual of a whole sequent: tensors over occurrences.

    Each member is the left fold of ``tensor_project`` over one combination
    of per-site witnesses, combinations in ``itertools.product`` order.
    Successive combinations share a prefix, and the fold of that prefix is
    kept: only the sites from the first change onwards are tensored again.
    The set's ``coverage`` says how many combinations there are.
    """
    per_site = [dual_witnesses_for(site, basis, cap) for site in plan.sites]
    carrier = tuple(loc for site in plan.sites for loc in site.locations)
    sites = tuple(
        (len(w), 2 * cap if isinstance(site.formula, Bin) and site.formula.conn == "with" else cap)
        for site, w in zip(plan.sites, per_site)
    )
    if any(not w for w in per_site):
        return ConductWitnessSet(carrier, (), "dual", WitnessCoverage(sites, 0))
    members = []
    folds: list[Project] = []  # folds[i]: the tensor of the current combination's sites 0..i
    previous: tuple = ()
    for combo in itertools.islice(itertools.product(*(range(len(w)) for w in per_site)), total_cap):
        start = next((i for i, (k, j) in enumerate(zip(combo, previous)) if k != j), len(folds))
        del folds[start:]
        for i in range(start, len(combo)):
            w = per_site[i][combo[i]]
            folds.append(tensor_project(folds[-1], w) if folds else w)
        previous = combo
        acc = folds[-1]
        if set(acc.carrier) != set(carrier):
            acc = extend_carrier(acc, tuple(l for l in carrier if l not in set(acc.carrier)))
        members.append(acc)
    return ConductWitnessSet(carrier, tuple(members), "dual", WitnessCoverage(sites, len(members)))
