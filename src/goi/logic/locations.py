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

Both backends hand a rule's conclusion sites to its premises through
``premise_sites``; only the sites a cut adds differ between them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count

from ..errors import MissingVariableError
from ..projects import Delocation
from .syntax import (
    Cut,
    DualVar,
    Exchange,
    Formula,
    Par,
    PlusL,
    PlusR,
    ProofTree,
    TensorRule,
    Top,
    Var,
    With,
    Zero,
    dual,
    par_positions,
    proof_variables,
    sequent_of,
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


def allocate_goi1(proof: ProofTree) -> GoiPlan:
    """The address plan of a proof."""
    return GoiPlan.for_sequent(sequent_of(proof))


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


def cut_carrier_sites(formula: Formula, basis, counter) -> tuple[CarrierSite, CarrierSite]:
    """Fresh locations from ``counter`` for a cut formula, and its dual's site on the same locations."""
    site_a = _allocate_formula(formula, basis, counter)
    return site_a, _dual_site(site_a, dual(formula))


def allocate_matricial(proof: ProofTree, basis) -> MatPlan:
    """The carrier plan of a proof."""
    missing = sorted(v for v in proof_variables(proof) if not basis.covers(v))
    if missing:
        raise MissingVariableError(f"basis lacks variables: {', '.join(missing)}")
    counter = count(0)
    return MatPlan(tuple(_allocate_formula(f, basis, counter) for f in sequent_of(proof)))


# ----------------------------------------------------------------------
# Routing (both backends)


def premise_sites(node: ProofTree, sites: list, cut: tuple | None = None) -> tuple[list, ...]:
    """The sites of each premise of ``node``, in ``premises(node)`` order, from the sites of its conclusion.

    At a cut, ``cut`` holds the sites of the cut formula and of its dual,
    which each backend allocates itself; an axiom or ``top`` has no premise.
    """
    if isinstance(node, Par):
        premise = [None] * len(sequent_of(node.premise))
        for site, k in zip(sites, par_positions(len(premise), node.i, node.j)):
            if k is None:
                premise[node.i], premise[node.j] = site.left(), site.right()
            else:
                premise[k] = site
        return (premise,)
    if isinstance(node, Exchange):
        premise = [None] * len(node.perm)
        for site, t in zip(sites, node.perm):
            premise[t] = site
        return (premise,)
    if isinstance(node, TensorRule):
        n1 = len(sequent_of(node.left)) - 1
        head = sites[0]
        return [head.left()] + sites[1 : 1 + n1], [head.right()] + sites[1 + n1 :]
    if isinstance(node, Cut):
        s1 = sequent_of(node.left)
        i1, i2 = s1.index(node.formula), sequent_of(node.right).index(dual(node.formula))
        left, right = sites[: len(s1) - 1], sites[len(s1) - 1 :]
        return left[:i1] + [cut[0]] + left[i1:], right[:i2] + [cut[1]] + right[i2:]
    if isinstance(node, (PlusL, PlusR, With)):
        head, rest = sites[0], sites[1:]
        if isinstance(node, With):
            return [head.left()] + rest, [head.right()] + rest
        return ([head.left() if isinstance(node, PlusL) else head.right()] + rest,)
    return ()
