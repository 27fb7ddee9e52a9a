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
from .locations import AddressSite, GoiPlan, allocate_goi1
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
    par_positions,
    subproof_sequents,
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

    def __init__(self, sequents: dict[int, tuple]):
        self.sequents = sequents
        self.cuts = count(1)
        self.axioms: list[tuple] = []
        self.matchers: list[tuple] = []

    def sequent(self, node: ProofTree) -> tuple:
        return self.sequents[id(node)]


def _interpret(node: ProofTree, sites: list[AddressSite], links: _Links) -> None:
    if isinstance(node, Ax):
        a, b = sites
        links.axioms.extend(_link(a, b))
    elif isinstance(node, Par):
        s = links.sequent(node.premise)
        layout = par_positions(len(s), node.i, node.j)
        pf = sites[min(node.i, node.j)]
        conc_pos = {prem: k for k, prem in enumerate(layout) if prem is not None}
        prem_sites: list[AddressSite] = []
        for k in range(len(s)):
            if k == node.i:
                prem_sites.append(pf.left())
            elif k == node.j:
                prem_sites.append(pf.right())
            else:
                prem_sites.append(sites[conc_pos[k]])
        _interpret(node.premise, prem_sites, links)
    elif isinstance(node, TensorRule):
        n1 = len(links.sequent(node.left)) - 1
        t = sites[0]
        _interpret(node.left, [t.left()] + sites[1 : 1 + n1], links)
        _interpret(node.right, [t.right()] + sites[1 + n1 :], links)
    elif isinstance(node, Cut):
        slot = next(links.cuts)
        s1 = links.sequent(node.left)
        s2 = links.sequent(node.right)
        i1 = s1.index(node.formula)
        i2 = s2.index(dual(node.formula))
        n1 = len(s1) - 1
        site_a = AddressSite("R", slot, node.formula)
        site_b = AddressSite("L", slot, dual(node.formula))
        sites1 = sites[:n1]
        sites1 = sites1[:i1] + [site_a] + sites1[i1:]
        sites2 = sites[n1:]
        sites2 = sites2[:i2] + [site_b] + sites2[i2:]
        _interpret(node.left, sites1, links)
        _interpret(node.right, sites2, links)
        links.matchers.extend(_matcher("R", "L", slot, node.formula))
    elif isinstance(node, Exchange):
        prem_sites: list[AddressSite | None] = [None] * len(node.perm)
        for k, t in enumerate(node.perm):
            prem_sites[t] = sites[k]
        _interpret(node.premise, prem_sites, links)
    else:
        raise UnsupportedRuleError(f"{type(node).__name__} is outside the multiplicative fragment")


def interpret_mll_goi1(
    proof: ProofTree, plan: GoiPlan | None = None, sequents: dict[int, tuple] | None = None
) -> tuple[PartialInjectionOp, PartialInjectionOp]:
    """Axiom-link and cut-link partial symmetries of a multiplicative proof; ``sequents`` is its ``subproof_sequents``."""
    sequents = subproof_sequents(proof) if sequents is None else sequents
    plan = plan if plan is not None else allocate_goi1(proof, sequents)
    links = _Links(sequents)
    _interpret(proof, list(plan.sites), links)
    return PartialInjectionOp.cylinders(links.axioms), PartialInjectionOp.cylinders(links.matchers)


def soundness_check_mll(proof: ProofTree) -> bool:
    """Execution of the interpretation equals the normal form's, bit-exact."""
    sequents = subproof_sequents(proof)
    plan = allocate_goi1(proof, sequents)
    pi, sigma = interpret_mll_goi1(proof, plan, sequents)
    executed = ex_goi1(pi, sigma, Region.from_support(sigma))
    normal = normalize_mll(proof)
    normal_sequents = subproof_sequents(normal)
    if normal_sequents[id(normal)] != sequents[id(proof)]:
        return False
    pi_n, sigma_n = interpret_mll_goi1(normal, plan, normal_sequents)
    return sigma_n.is_zero() and executed == pi_n
