"""Exact operator interpretation of multiplicative proofs.

A proof denotes a pair (pi, sigma) of partial symmetries: pi collects
the axiom links between leaf addresses, sigma the matchings installed by
the cuts.  Executing pi against sigma (alternating path summation
outside the cut regions) reproduces the interpretation of the cut-free
normal form, address for address.
"""

from __future__ import annotations

from itertools import count

from ..errors import UnsupportedRuleError
from ..execution import ex_goi1
from ..groupoid import PartialInjectionOp, Region
from .locations import AddressSite, GoiPlan, allocate_goi1, premise_sites
from .rewrite import normalize_mll
from .syntax import (
    Ax,
    Cut,
    Exchange,
    Par,
    ProofTree,
    TensorRule,
    dual,
    leaf_paths,
    premises,
    sequent_of,
)


def _link(a: AddressSite, b: AddressSite) -> tuple[tuple, tuple]:
    """The two monomials, as ``PartialInjectionOp.cylinders`` takes them, of the symmetry exchanging two leaf addresses."""
    return (b.word, a.word, 1.0, b.slot, a.slot), (a.word, b.word, 1.0, a.slot, b.slot)


def _matcher(word_a: str, word_b: str, slot: int, formula) -> list[tuple]:
    """Leafwise symmetry between a formula tree and its dual across a cut, as monomials."""
    out: list[tuple] = []
    for path, _leaf in leaf_paths(formula):
        out.extend(_link(AddressSite(word_a + path, slot, None), AddressSite(word_b + path, slot, None)))
    return out


class _Links:
    """What the interpretation collects: the monomials of the axiom links and of the cut links."""

    def __init__(self):
        self.cuts = count(1)
        self.axioms: list[tuple] = []
        self.matchers: list[tuple] = []


def _interpret(node: ProofTree, sites: list[AddressSite], links: _Links) -> None:
    if isinstance(node, Ax):
        links.axioms.extend(_link(*sites))
        return
    if not isinstance(node, (Par, TensorRule, Cut, Exchange)):
        raise UnsupportedRuleError(f"{type(node).__name__} is outside the multiplicative fragment")
    cut = None
    if isinstance(node, Cut):
        # a private basis copy per cut, numbered in the order the walk meets the cuts
        slot = next(links.cuts)
        cut = AddressSite("R", slot, node.formula), AddressSite("L", slot, dual(node.formula))
    for q, q_sites in zip(premises(node), premise_sites(node, sites, cut)):
        _interpret(q, q_sites, links)
    if cut is not None:
        links.matchers.extend(_matcher("R", "L", slot, node.formula))


def interpret_mll_goi1(proof: ProofTree, plan: GoiPlan | None = None) -> tuple[PartialInjectionOp, PartialInjectionOp]:
    """Axiom-link and cut-link partial symmetries of a multiplicative proof."""
    sequent_of(proof)  # every rule checked before the walk reads the conclusions
    plan = plan if plan is not None else allocate_goi1(proof)
    links = _Links()
    _interpret(proof, list(plan.sites), links)
    return PartialInjectionOp.cylinders(links.axioms), PartialInjectionOp.cylinders(links.matchers)


def soundness_check_mll(proof: ProofTree) -> bool:
    """Execution of the interpretation equals the normal form's, bit-exact."""
    plan = allocate_goi1(proof)
    pi, sigma = interpret_mll_goi1(proof, plan)
    executed = ex_goi1(pi, sigma, Region.from_support(sigma))
    normal = normalize_mll(proof)
    if sequent_of(normal) != sequent_of(proof):
        return False
    pi_n, sigma_n = interpret_mll_goi1(normal, plan)
    return sigma_n.is_zero() and executed == pi_n
