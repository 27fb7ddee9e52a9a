"""Seeded proof generators and the independent reference for exact execution.

Proofs are built as s-expression text together with their conclusion
sequent, which the generator tracks itself from the sequent-calculus rules.
Nothing here imports ``goi``: the program only ever sees the generated
text.

Formulas are nested tuples: ``("var", name)``, ``("dual", name)`` or
``(connective, left, right)``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

_DUAL_CONN = {"tensor": "par", "par": "tensor", "with": "plus", "plus": "with"}


def dual(f: tuple) -> tuple:
    if f[0] == "var":
        return ("dual", f[1])
    if f[0] == "dual":
        return ("var", f[1])
    return (_DUAL_CONN[f[0]], dual(f[1]), dual(f[2]))


def formula_text(f: tuple) -> str:
    if f[0] == "var":
        return f[1]
    if f[0] == "dual":
        return f"(dual {f[1]})"
    return f"({f[0]} {formula_text(f[1])} {formula_text(f[2])})"


@dataclass(frozen=True)
class Proof:
    """Proof text plus the conclusion sequent the generator derived for it."""

    text: str
    sequent: tuple


def ax(name: str) -> Proof:
    return Proof(f"(ax {name})", (("dual", name), ("var", name)))


def tensor(p: Proof, q: Proof) -> Proof:
    head = ("tensor", p.sequent[0], q.sequent[0])
    return Proof(f"(tensor {p.text} {q.text})", (head,) + p.sequent[1:] + q.sequent[1:])


def par(i: int, j: int, p: Proof) -> Proof:
    s = p.sequent
    out = []
    for k in range(len(s)):
        if k == min(i, j):
            out.append(("par", s[i], s[j]))
        if k not in (i, j):
            out.append(s[k])
    return Proof(f"(par {i} {j} {p.text})", tuple(out))


def cut(f: tuple, p: Proof, q: Proof) -> Proof:
    """Cut on the first occurrence of ``f`` in p and of its dual in q."""
    i1 = p.sequent.index(f)
    i2 = q.sequent.index(dual(f))
    rest = p.sequent[:i1] + p.sequent[i1 + 1 :] + q.sequent[:i2] + q.sequent[i2 + 1 :]
    return Proof(f"(cut {formula_text(f)} {p.text} {q.text})", rest)


def with_(p: Proof, q: Proof) -> Proof:
    if p.sequent[1:] != q.sequent[1:]:
        raise ValueError("with premises must share their context")
    head = ("with", p.sequent[0], q.sequent[0])
    return Proof(f"(with {p.text} {q.text})", (head,) + p.sequent[1:])


def plusl(other: tuple, p: Proof) -> Proof:
    head = ("plus", p.sequent[0], other)
    return Proof(f"(plusl {formula_text(other)} {p.text})", (head,) + p.sequent[1:])


def plusr(other: tuple, p: Proof) -> Proof:
    head = ("plus", other, p.sequent[0])
    return Proof(f"(plusr {formula_text(other)} {p.text})", (head,) + p.sequent[1:])


# ----------------------------------------------------------------------
# Multiplicative families (exact backend)


def cut_chain(n: int, name: str, rng: random.Random) -> Proof:
    """n cuts between identity axioms on one variable; normal form is (ax name).

    Each cut picks its side and whether it cuts on the variable or its dual;
    the last cuts on the variable, which puts the conclusion in the order of
    (ax name), so a chain can stand wherever an axiom can.
    """
    p = ax(name)
    for k in range(n):
        f = ("var", name) if k == n - 1 else rng.choice((("var", name), ("dual", name)))
        p = cut(f, p, ax(name)) if rng.random() < 0.5 else cut(f, ax(name), p)
    return p


def _right_tensor(proofs: list[Proof]) -> Proof:
    acc = proofs[-1]
    for p in reversed(proofs[:-1]):
        acc = tensor(p, acc)
    return acc


def _identity_or_chain(name: str, cuts: int, rng: random.Random) -> Proof:
    return cut_chain(cuts, name, rng) if cuts else ax(name)


def tensor_of_axioms(names: list[str], rng: random.Random, inner_cuts: int = 0) -> Proof:
    """Right-nested tensor of identities; ``inner_cuts`` of them become short cut chains."""
    chained = set(rng.sample(range(len(names)), inner_cuts))
    return _right_tensor([_identity_or_chain(v, 2 if k in chained else 0, rng) for k, v in enumerate(names)])


def par_of_tensor(names: list[str], rng: random.Random) -> Proof:
    """Tensor of identities whose positive conclusions are folded into one par."""
    p = tensor_of_axioms(names, rng)
    k = len(names)
    for i in range(k - 1, 0, -1):
        p = par(i, i + 1, p)
    return p


def compound_cut(names: list[str], rng: random.Random, deep: bool) -> Proof:
    """Cut on a compound tensor formula against its par-folded dual.

    With ``deep`` one identity on the par side is itself a cut chain.
    """
    left = tensor_of_axioms(names, rng)
    k = rng.randrange(len(names)) if deep else -1
    right = _right_tensor([_identity_or_chain(v, 3 if i == k else 0, rng) for i, v in enumerate(names)])
    for i in range(len(names) - 1, 0, -1):
        right = par(i, i + 1, right)
    return cut(left.sequent[0], left, right)


def fresh_names(rng: random.Random, k: int) -> list[str]:
    return [f"V{n}" for n in rng.sample(range(10, 99), k)]


# ----------------------------------------------------------------------
# Reference for exact execution


def comb_words(k: int) -> list[str]:
    """Conclusion addresses of a k-formula sequent: R, LR, LLR, ..., L^(k-1).

    This is the allocation rule the address backend documents; the
    benchmark restates it so the reference does not come from the program.
    """
    if k == 1:
        return [""]
    return ["L" * i + "R" for i in range(k - 1)] + ["L" * (k - 1)]


def _leaves(f: tuple, prefix: str):
    if f[0] in ("var", "dual"):
        yield prefix, f
    else:
        yield from _leaves(f[1], prefix + "R")
        yield from _leaves(f[2], prefix + "L")


def expected_links(sequent: tuple) -> frozenset:
    """Cylinders (out_word, out_slot, in_word, in_slot, weight) of the cut-free normal form.

    Every variable of the conclusion occurs once positively and once
    negatively, so the axiom links of any cut-free proof of the sequent are
    forced: each positive leaf is linked to the negative leaf of its name.
    """
    pos: dict[str, str] = {}
    neg: dict[str, str] = {}
    for word, f in zip(comb_words(len(sequent)), sequent):
        for path, leaf in _leaves(f, word):
            side = pos if leaf[0] == "var" else neg
            if leaf[1] in side:
                raise ValueError(f"variable {leaf[1]} occurs twice with one polarity")
            side[leaf[1]] = path
    if pos.keys() != neg.keys():
        raise ValueError("conclusion is not balanced")
    links = set()
    for name, a in pos.items():
        b = neg[name]
        links.add((b, 0, a, 0, 1 + 0j))
        links.add((a, 0, b, 0, 1 + 0j))
    return merge_siblings(links)


def merge_siblings(cyls) -> frozenset:
    """Coalesce (aR <- bR) + (aL <- bL) into (a <- b) until nothing merges.

    Two operators given as sets of disjoint cylinders are equal exactly when
    their fully merged sets are equal.
    """
    items = set(cyls)
    changed = True
    while changed:
        changed = False
        for c in list(items):
            out_w, out_s, in_w, in_s, w = c
            if not out_w or not in_w or out_w[-1] != in_w[-1]:
                continue
            flip = "L" if out_w[-1] == "R" else "R"
            sib = (out_w[:-1] + flip, out_s, in_w[:-1] + flip, in_s, w)
            if sib in items:
                items -= {c, sib}
                items.add((out_w[:-1], out_s, in_w[:-1], in_s, w))
                changed = True
                break
    return frozenset(items)


# ----------------------------------------------------------------------
# Additive families (dialect and carrier axes)

# Variables of the default interpretation basis with a one-location carrier.
UNIT_VARS = ("X1", "X2", "X4")


def with_tower(depth: int, rng: random.Random) -> Proof:
    """Tensor of ``depth`` withs of identities: 2**depth dialect blocks."""
    parts = []
    for _ in range(depth):
        v = rng.choice(UNIT_VARS)
        parts.append(with_(ax(v), ax(v)))
    return _right_tensor(parts)


def tensor_tower(k: int, rng: random.Random) -> Proof:
    """Tensor of k identities: a carrier of 2k locations, one dialect block."""
    return _right_tensor([ax(rng.choice(UNIT_VARS)) for _ in range(k)])


def small_additive(kind: str, rng: random.Random) -> Proof:
    """One of the bundled additive shapes, on seeded variables."""
    a, b = rng.sample(UNIT_VARS, 2)
    if kind == "with":
        return with_(ax(a), ax(a))
    if kind == "plus-left":
        return plusl(("dual", b), ax(a))
    if kind == "plus-right":
        return plusr(("dual", b), ax(a))
    if kind == "with-of-plus":
        return with_(plusl(("dual", b), ax(a)), plusr(("dual", b), ax(a)))
    if kind == "cut-against-with":
        return cut(("dual", a), ax(a), with_(ax(a), ax(a)))
    if kind == "cut-against-plus":
        return cut(("dual", a), ax(a), plusl(("dual", b), ax(a)))
    if kind == "tensor-of-with":
        return tensor(with_(ax(a), ax(a)), ax(b))
    if kind == "par-of-with":
        return par(0, 1, with_(ax(a), ax(a)))
    if kind == "nested-with":
        return with_(with_(ax(a), ax(a)), ax(a))
    if kind == "cut":
        return cut(("var", a), ax(a), ax(a))
    if kind == "par":
        return par(1, 2, tensor(ax(a), ax(b)))
    raise ValueError(f"unknown additive shape {kind}")
