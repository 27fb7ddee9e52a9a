"""Multiplicative cut elimination on sequent proofs.

``normalize_mll`` removes every cut by the textbook induction: the
axiom step, the symmetric tensor/par step on principal occurrences, and
commutation steps that push a cut above a rule that does not introduce
the cut formula.  Internal Exchange nodes keep every intermediate
conclusion in a definite order, so the final conclusion is literally the
input's conclusion, occurrence by occurrence.
"""

from __future__ import annotations

from ..errors import UnsupportedRuleError
from .syntax import (
    Ax,
    Bin,
    Cut,
    Exchange,
    Par,
    PlusL,
    PlusR,
    ProofTree,
    TensorRule,
    TopRule,
    With,
    dual,
    par_positions,
    sequent_of,
)


def _exchange_to(proof: ProofTree, perm: list[int]) -> ProofTree:
    if perm == list(range(len(perm))):
        return proof
    return Exchange(tuple(perm), proof)


def _principal_position(p: ProofTree) -> int | None:
    """Conclusion position introduced by the last rule, if any."""
    if isinstance(p, TensorRule):
        return 0
    if isinstance(p, Par):
        return min(p.i, p.j)
    return None


def normalize_mll(p: ProofTree) -> ProofTree:
    """Cut-free proof with the same conclusion sequent, same order."""
    if isinstance(p, Ax):
        return p
    if isinstance(p, TensorRule):
        return TensorRule(normalize_mll(p.left), normalize_mll(p.right))
    if isinstance(p, Par):
        return Par(p.i, p.j, normalize_mll(p.premise))
    if isinstance(p, Exchange):
        return Exchange(p.perm, normalize_mll(p.premise))
    if isinstance(p, Cut):
        left = normalize_mll(p.left)
        right = normalize_mll(p.right)
        s1 = sequent_of(left)
        s2 = sequent_of(right)
        return _eliminate(p.formula, s1.index(p.formula), left, s2.index(dual(p.formula)), right)
    if isinstance(p, (PlusL, PlusR, With, TopRule)):
        raise UnsupportedRuleError("multiplicative normalisation only")
    raise UnsupportedRuleError(f"unknown node {p!r}")


def _eliminate(A, i1: int, p1: ProofTree, i2: int, p2: ProofTree) -> ProofTree:
    """Cut-free proof of (seq(p1) - i1) ++ (seq(p2) - i2); p1, p2 cut-free."""
    s1 = sequent_of(p1)
    s2 = sequent_of(p2)
    n1, n2 = len(s1) - 1, len(s2) - 1

    # axiom steps
    if isinstance(p1, Ax):
        # conclusion [dual(A)] ++ (s2 - i2); p2 holds dual(A) at i2
        perm = [i2] + [t for t in range(len(s2)) if t != i2]
        return _exchange_to(p2, perm)
    if isinstance(p2, Ax):
        perm = [t for t in range(len(s1)) if t != i1] + [i1]
        return _exchange_to(p1, perm)

    # commute on the left when the occurrence is not principal there
    if _principal_position(p1) != i1:
        return _commute_left(A, i1, p1, i2, p2)
    # symmetric side
    if _principal_position(p2) != i2:
        swapped = _eliminate(dual(A), i2, p2, i1, p1)
        # its conclusion is (s2 - i2) ++ (s1 - i1); swap the two blocks
        perm = [n2 + t for t in range(n1)] + list(range(n2))
        return _exchange_to(swapped, perm)

    # principal against principal
    if isinstance(p1, Par) and isinstance(p2, TensorRule):
        swapped = _eliminate(dual(A), i2, p2, i1, p1)
        perm = [n2 + t for t in range(n1)] + list(range(n2))
        return _exchange_to(swapped, perm)
    if isinstance(p1, TensorRule) and isinstance(p2, Par):
        return _principal_step(A, p1, p2)
    raise UnsupportedRuleError(f"unreducible principal pair {type(p1).__name__}/{type(p2).__name__}")


def _principal_step(A: Bin, p1: TensorRule, p2: Par) -> ProofTree:
    """Cut on B (x) C against the matching par: two smaller cuts."""
    q1, q2 = p1.left, p1.right  # |- B, D1   and   |- C, D2
    q3 = p2.premise
    s_q1 = sequent_of(q1)
    s_q2 = sequent_of(q2)
    s_q3 = sequent_of(q3)
    i, j = p2.i, p2.j  # dual(B) at i, dual(C) at j in s_q3
    d1 = len(s_q1) - 1
    d2 = len(s_q2) - 1

    e1 = _eliminate(A.left, 0, q1, i, q3)  # D1 ++ (s_q3 - i)
    pos_dual_c = d1 + (j if j < i else j - 1)
    e2 = _eliminate(A.right, 0, q2, pos_dual_c, e1)  # D2 ++ D1 ++ (s_q3 - {i,j})
    rest = len(sequent_of(e2)) - d1 - d2
    perm = [d2 + t for t in range(d1)] + list(range(d2)) + [d1 + d2 + t for t in range(rest)]
    return _exchange_to(e2, perm)


def _commute_left(A, i1: int, p1: ProofTree, i2: int, p2: ProofTree) -> ProofTree:
    s1 = sequent_of(p1)
    s2 = sequent_of(p2)
    tail = len(s2) - 1

    if isinstance(p1, Exchange):
        inner_pos = p1.perm[i1]
        r = _eliminate(A, inner_pos, p1.premise, i2, p2)
        # r: (seq(premise) - inner_pos) ++ tail; want (s1 - i1) ++ tail
        def shifted(t: int) -> int:
            return t - (1 if t > inner_pos else 0)

        perm = [shifted(p1.perm[k]) for k in range(len(s1)) if k != i1]
        perm += [len(s1) - 1 + t for t in range(tail)]
        return _exchange_to(r, perm)

    if isinstance(p1, TensorRule):
        sa = sequent_of(p1.left)
        sb = sequent_of(p1.right)
        la = len(sa) - 1  # size of the left context
        if 1 <= i1 <= la:
            r = _eliminate(A, i1, p1.left, i2, p2)
            out = TensorRule(r, p1.right)
            # conclusion: [T] ++ (Da - occ) ++ tail ++ Db ; move Db before tail
            lb = len(sb) - 1
            perm = list(range(la)) + [la + tail + t for t in range(lb)] + [la + t for t in range(tail)]
            return _exchange_to(out, perm)
        pos_b = i1 - la
        r = _eliminate(A, pos_b, p1.right, i2, p2)
        return TensorRule(p1.left, r)

    if isinstance(p1, Par):
        layout = par_positions(len(sequent_of(p1.premise)), p1.i, p1.j)
        inner_pos = layout[i1]
        r = _eliminate(A, inner_pos, p1.premise, i2, p2)
        i_new = p1.i - (1 if inner_pos < p1.i else 0)
        j_new = p1.j - (1 if inner_pos < p1.j else 0)
        return Par(i_new, j_new, r)

    raise UnsupportedRuleError(f"cannot commute a cut over {type(p1).__name__}")

