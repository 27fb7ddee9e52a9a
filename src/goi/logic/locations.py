"""Deterministic location allocation for both interpretation backends.

Address backend: every conclusion occurrence receives a dyadic address
word from a right comb over the sequent, refined through the formula
tree (left subformula R, right subformula L).  Each cut receives a
private copy of the basis (a fresh slot), so the conclusion addresses do
not depend on how many cuts the proof contains.

Carrier backend: every occurrence receives fresh integer locations, one
block per variable leaf, with a delocation from the variable's primitive
carrier.  The two sides of a cut share one carrier (dual leaves share
locations); the premises of a with share their context carrier.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count

from ..errors import MissingVariableError
from ..projects import Delocation
from .syntax import (
    Cut,
    DualVar,
    Formula,
    ProofTree,
    Top,
    Var,
    Zero,
    premises,
    proof_variables,
    sequent_of,
    subproof_sequents,
)


def comb_words(k: int) -> list[str]:
    """Closed right comb: R, LR, LLR, ..., L^(k-1)."""
    if k == 0:
        return []
    return ["L" * i + "R" for i in range(k - 1)] + ["L" * (k - 1)]


# ----------------------------------------------------------------------
# Address plans (exact backend)


@dataclass(frozen=True)
class AddressSite:
    """One formula occurrence at a dyadic address in a given basis copy."""

    word: str
    slot: int
    formula: Formula

    def left(self) -> "AddressSite":
        return AddressSite(self.word + "R", self.slot, self.formula.left)

    def right(self) -> "AddressSite":
        return AddressSite(self.word + "L", self.slot, self.formula.right)


@dataclass(frozen=True)
class GoiPlan:
    sites: tuple[AddressSite, ...]

    @staticmethod
    def for_sequent(sequent) -> "GoiPlan":
        words = comb_words(len(sequent))
        return GoiPlan(tuple(AddressSite(w, 0, f) for w, f in zip(words, sequent)))


def allocate_goi1(proof: ProofTree, sequents: dict[int, tuple] | None = None) -> GoiPlan:
    """The address plan of a proof; ``sequents`` is its ``subproof_sequents``, computed here when not given."""
    return GoiPlan.for_sequent(sequent_of(proof) if sequents is None else sequents[id(proof)])


# ----------------------------------------------------------------------
# Carrier plans (matricial backend)


@dataclass(frozen=True)
class CarrierSite:
    """Formula occurrence with integer locations; leaves carry delocations."""

    formula: Formula
    locations: tuple[int, ...]
    children: tuple
    delocation: Delocation | None = None

    def left(self) -> "CarrierSite":
        return self.children[0]

    def right(self) -> "CarrierSite":
        return self.children[1]


@dataclass(frozen=True)
class MatPlan:
    sites: tuple[CarrierSite, ...]
    cut_sites: tuple  # per cut (DFS order): (site_A, site_dual_A) sharing locations


def _allocate_formula(f: Formula, basis, counter) -> CarrierSite:
    if isinstance(f, (Var, DualVar)):
        prim = basis.primitive_carrier(f.name)
        locs = tuple(next(counter) for _ in prim)
        theta = Delocation.from_pairs(prim, locs)
        return CarrierSite(f, locs, (), theta)
    if isinstance(f, (Top, Zero)):
        return CarrierSite(f, (), ())
    left = _allocate_formula(f.left, basis, counter)
    right = _allocate_formula(f.right, basis, counter)
    return CarrierSite(f, left.locations + right.locations, (left, right))


def _dual_site(site: CarrierSite, f: Formula) -> CarrierSite:
    """Site of the dual formula on the same locations (leafwise shared)."""
    if isinstance(f, (Var, DualVar)):
        return CarrierSite(f, site.locations, (), site.delocation)
    if isinstance(f, (Top, Zero)):
        return CarrierSite(f, (), ())
    left = _dual_site(site.children[0], f.left)
    right = _dual_site(site.children[1], f.right)
    return CarrierSite(f, site.locations, (left, right))


def allocate_matricial(proof: ProofTree, basis, sequents: dict[int, tuple] | None = None) -> MatPlan:
    """The carrier plan of a proof; ``sequents`` is its ``subproof_sequents``, computed here when not given."""
    sequents = subproof_sequents(proof) if sequents is None else sequents
    missing = sorted(v for v in proof_variables(proof, sequents) if not basis.covers(v))
    if missing:
        raise MissingVariableError(f"basis lacks variables: {', '.join(missing)}")
    counter = count(0)
    sites = tuple(_allocate_formula(f, basis, counter) for f in sequents[id(proof)])
    cut_sites = []

    def walk(node: ProofTree):
        if isinstance(node, Cut):
            site_a = _allocate_formula(node.formula, basis, counter)
            from .syntax import dual

            cut_sites.append((site_a, _dual_site(site_a, dual(node.formula))))
        for q in premises(node):
            walk(q)

    walk(proof)
    return MatPlan(sites, tuple(cut_sites))
