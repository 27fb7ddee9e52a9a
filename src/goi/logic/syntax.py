"""Formulas, proofs, the s-expression frontend, and rule checking.

Formulas are negation normal: duality lives on variables only and is
pushed through connectives by De Morgan.  Sequents are ordered tuples of
formulas; exchange is implicit (rules address occurrences by position,
and an internal Exchange node permutes positions during rewriting).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from ..errors import ProofSyntaxError, RuleApplicationError

# ----------------------------------------------------------------------
# Formulas


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class DualVar:
    name: str


@dataclass(frozen=True)
class Bin:
    conn: str  # "tensor" | "par" | "with" | "plus"
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Top:
    pass


@dataclass(frozen=True)
class Zero:
    pass


Formula = Union[Var, DualVar, Bin, Top, Zero]

_DUAL_CONN = {"tensor": "par", "par": "tensor", "with": "plus", "plus": "with"}
_SYM = {"tensor": "⊗", "par": "⅋", "with": "&", "plus": "⊕"}


def dual(f: Formula) -> Formula:
    if isinstance(f, Var):
        return DualVar(f.name)
    if isinstance(f, DualVar):
        return Var(f.name)
    if isinstance(f, Bin):
        return Bin(_DUAL_CONN[f.conn], dual(f.left), dual(f.right))
    if isinstance(f, Top):
        return Zero()
    return Top()


def fmt(f: Formula) -> str:
    if isinstance(f, Var):
        return f.name
    if isinstance(f, DualVar):
        return f"{f.name}^"
    if isinstance(f, Bin):
        return f"({fmt(f.left)} {_SYM[f.conn]} {fmt(f.right)})"
    if isinstance(f, Top):
        return "top"
    return "zero"


def leaf_paths(f: Formula, prefix: str = "") -> list[tuple[str, Formula]]:
    """Address paths of the leaves: left child R, right child L."""
    if isinstance(f, Bin):
        return leaf_paths(f.left, prefix + "R") + leaf_paths(f.right, prefix + "L")
    return [(prefix, f)]


def is_mll_formula(f: Formula) -> bool:
    if isinstance(f, (Var, DualVar)):
        return True
    if isinstance(f, Bin):
        return f.conn in ("tensor", "par") and is_mll_formula(f.left) and is_mll_formula(f.right)
    return False


# ----------------------------------------------------------------------
# Proof trees


@dataclass(frozen=True)
class Ax:
    var: str


@dataclass(frozen=True)
class Cut:
    formula: Formula
    left: "ProofTree"
    right: "ProofTree"


@dataclass(frozen=True)
class Par:
    i: int
    j: int
    premise: "ProofTree"


@dataclass(frozen=True)
class TensorRule:
    left: "ProofTree"
    right: "ProofTree"


@dataclass(frozen=True)
class PlusL:
    other: Formula  # added on the right of the principal formula
    premise: "ProofTree"


@dataclass(frozen=True)
class PlusR:
    other: Formula  # added on the left
    premise: "ProofTree"


@dataclass(frozen=True)
class With:
    left: "ProofTree"
    right: "ProofTree"


@dataclass(frozen=True)
class TopRule:
    context: tuple


@dataclass(frozen=True)
class Exchange:
    perm: tuple[int, ...]  # conclusion[k] = premise[perm[k]]
    premise: "ProofTree"


ProofTree = Union[Ax, Cut, Par, TensorRule, PlusL, PlusR, With, TopRule, Exchange]
# external alias used in the docs and the CLI
Tensor = TensorRule


def premises(p: ProofTree) -> tuple:
    if isinstance(p, (Cut, TensorRule, With)):
        return (p.left, p.right)
    if isinstance(p, (Par, PlusL, PlusR, Exchange)):
        return (p.premise,)
    return ()


def par_positions(n_premise: int, i: int, j: int) -> list[int | None]:
    """Conclusion layout of a par rule: premise position per slot, None for the new formula."""
    out: list[int | None] = []
    m = min(i, j)
    for k in range(n_premise):
        if k == m:
            out.append(None)
        if k not in (i, j):
            out.append(k)
    return out


def sequent_of(p: ProofTree, path: tuple = ()) -> tuple:
    """Conclusion sequent, validating every rule application on the way."""
    return subproof_sequents(p, path)[id(p)]


def subproof_sequents(p: ProofTree, path: tuple = ()) -> dict[int, tuple]:
    """Conclusion of every subproof keyed by ``id(node)``, each rule checked once.

    The tree is walked bottom-up, left premise first, so the first rule
    error reported is the one the recursive definition meets first.
    """
    out: dict[int, tuple] = {}
    stack = [(p, path, False)]
    while stack:
        node, where, ready = stack.pop()
        if id(node) in out:
            continue
        subs = premises(node)
        if ready or not subs:
            out[id(node)] = _conclusion(node, [out[id(q)] for q in subs], where)
        else:
            stack.append((node, where, True))
            stack.extend((subs[k], where + (k,), False) for k in reversed(range(len(subs))))
    return out


def _conclusion(p: ProofTree, prem: list[tuple], path: tuple) -> tuple:
    """Conclusion of the last rule of p from its premises' conclusions."""
    if isinstance(p, Ax):
        return (DualVar(p.var), Var(p.var))
    if isinstance(p, Cut):
        s1, s2 = prem
        if p.formula not in s1:
            raise RuleApplicationError(
                f"cut formula {fmt(p.formula)} missing from the left premise", rule="Cut", path=path
            )
        if dual(p.formula) not in s2:
            raise RuleApplicationError(
                f"dual cut formula {fmt(dual(p.formula))} missing from the right premise", rule="Cut", path=path
            )
        i1 = s1.index(p.formula)
        i2 = s2.index(dual(p.formula))
        return tuple(x for k, x in enumerate(s1) if k != i1) + tuple(x for k, x in enumerate(s2) if k != i2)
    if isinstance(p, TensorRule):
        s1, s2 = prem
        if not s1 or not s2:
            raise RuleApplicationError("tensor premises must be nonempty", rule="Tensor", path=path)
        return (Bin("tensor", s1[0], s2[0]),) + s1[1:] + s2[1:]
    if isinstance(p, Par):
        (s,) = prem
        n = len(s)
        if p.i == p.j or not (0 <= p.i < n) or not (0 <= p.j < n):
            raise RuleApplicationError(f"par indices ({p.i}, {p.j}) out of range", rule="Par", path=path)
        pf = Bin("par", s[p.i], s[p.j])
        out = []
        for k in range(n):
            if k == min(p.i, p.j):
                out.append(pf)
            if k not in (p.i, p.j):
                out.append(s[k])
        return tuple(out)
    if isinstance(p, PlusL):
        (s,) = prem
        if not s:
            raise RuleApplicationError("plus premise must be nonempty", rule="PlusL", path=path)
        return (Bin("plus", s[0], p.other),) + s[1:]
    if isinstance(p, PlusR):
        (s,) = prem
        if not s:
            raise RuleApplicationError("plus premise must be nonempty", rule="PlusR", path=path)
        return (Bin("plus", p.other, s[0]),) + s[1:]
    if isinstance(p, With):
        s1, s2 = prem
        if not s1 or not s2:
            raise RuleApplicationError("with premises must be nonempty", rule="With", path=path)
        if s1[1:] != s2[1:]:
            raise RuleApplicationError("with premises must share their context", rule="With", path=path)
        return (Bin("with", s1[0], s2[0]),) + s1[1:]
    if isinstance(p, TopRule):
        return (Top(),) + tuple(p.context)
    if isinstance(p, Exchange):
        (s,) = prem
        if sorted(p.perm) != list(range(len(s))):
            raise RuleApplicationError("exchange permutation is not a permutation", rule="Exchange", path=path)
        return tuple(s[t] for t in p.perm)
    raise RuleApplicationError(f"unknown node {p!r}", path=path)


def check_proof(p: ProofTree) -> tuple:
    """Validate the whole tree; returns the conclusion sequent."""
    return sequent_of(p)


def is_mll_proof(p: ProofTree) -> bool:
    if isinstance(p, (PlusL, PlusR, With, TopRule)):
        return False
    if isinstance(p, Cut) and not is_mll_formula(p.formula):
        return False
    return all(is_mll_proof(q) for q in premises(p))


def cut_count(p: ProofTree) -> int:
    return (1 if isinstance(p, Cut) else 0) + sum(cut_count(q) for q in premises(p))


def depth(p: ProofTree) -> int:
    subs = premises(p)
    return 1 + (max(depth(q) for q in subs) if subs else 0)


# ----------------------------------------------------------------------
# The s-expression frontend


@dataclass(frozen=True)
class _Tok:
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Tok]:
    toks = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
        elif c in " \t\r":
            col += 1
            i += 1
        elif c == ";":
            while i < len(text) and text[i] != "\n":
                i += 1
        elif c in "()":
            toks.append(_Tok(c, line, col))
            col += 1
            i += 1
        else:
            j = i
            while j < len(text) and text[j] not in " \t\r\n();":
                j += 1
            toks.append(_Tok(text[i:j], line, col))
            col += j - i
            i = j
    return toks


# Deepest nesting of parentheses the reader accepts.  Proofs and formulas
# are checked and interpreted by recursion, one stack frame or more per
# level, so deeper input is refused as a syntax error.
MAX_NESTING = 256


class _Reader:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Tok | None:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def next(self) -> _Tok:
        t = self.peek()
        if t is None:
            last = self.toks[-1] if self.toks else _Tok("", 1, 1)
            raise ProofSyntaxError("unexpected end of input", last.line, last.col)
        self.pos += 1
        return t

    def read(self, depth: int = 0):
        """An atom is a _Tok; a list is (items, opening_token)."""
        t = self.next()
        if t.text == "(":
            if depth >= MAX_NESTING:
                raise ProofSyntaxError(f"nesting deeper than {MAX_NESTING} levels", t.line, t.col)
            items = []
            while True:
                nxt = self.peek()
                if nxt is None:
                    raise ProofSyntaxError("unclosed parenthesis", t.line, t.col)
                if nxt.text == ")":
                    self.next()
                    return items, t
                items.append(self.read(depth + 1))
        if t.text == ")":
            raise ProofSyntaxError("unexpected ')'", t.line, t.col)
        return t


def _is_atom(x) -> bool:
    return isinstance(x, _Tok)


def _formula_of(node, tok: _Tok) -> Formula:
    if _is_atom(node):
        text = node.text
        if text == "top":
            return Top()
        if text == "zero":
            return Zero()
        if not text or text[0] == "(":
            raise ProofSyntaxError(f"bad formula atom {text!r}", node.line, node.col)
        return Var(text)
    items, opener = node
    if not items or not _is_atom(items[0]):
        raise ProofSyntaxError("formula must start with a connective", opener.line, opener.col)
    head = items[0].text
    args = items[1:]
    if head == "dual":
        if len(args) != 1 or not _is_atom(args[0]):
            raise ProofSyntaxError("(dual X) takes one variable", items[0].line, items[0].col)
        return DualVar(args[0].text)
    if head in ("tensor", "par", "with", "plus"):
        if len(args) != 2:
            raise ProofSyntaxError(f"({head} A B) takes two formulas", items[0].line, items[0].col)
        return Bin(head, _formula_of(args[0], opener), _formula_of(args[1], opener))
    raise ProofSyntaxError(f"unknown connective {head!r}", items[0].line, items[0].col)


def _proof_of(node, tok: _Tok) -> ProofTree:
    if _is_atom(node):
        raise ProofSyntaxError(f"proof must be a list, got {node.text!r}", node.line, node.col)
    items, opener = node
    if not items or not _is_atom(items[0]):
        raise ProofSyntaxError("proof must start with a rule name", opener.line, opener.col)
    head = items[0].text
    args = items[1:]
    loc = items[0]

    def need(n: int, shape: str):
        if len(args) != n:
            raise ProofSyntaxError(f"{shape} expected", loc.line, loc.col)

    if head == "ax":
        need(1, "(ax X)")
        if not _is_atom(args[0]):
            raise ProofSyntaxError("(ax X) takes a variable", loc.line, loc.col)
        return Ax(args[0].text)
    if head == "cut":
        need(3, "(cut formula proof proof)")
        return Cut(_formula_of(args[0], opener), _proof_of(args[1], opener), _proof_of(args[2], opener))
    if head == "tensor":
        need(2, "(tensor proof proof)")
        return TensorRule(_proof_of(args[0], opener), _proof_of(args[1], opener))
    if head == "par":
        need(3, "(par i j proof)")
        try:
            i, j = int(args[0].text), int(args[1].text)
        except (ValueError, AttributeError):
            raise ProofSyntaxError("(par i j proof) takes two indices", loc.line, loc.col) from None
        return Par(i, j, _proof_of(args[2], opener))
    if head == "plusl":
        need(2, "(plusl formula proof)")
        return PlusL(_formula_of(args[0], opener), _proof_of(args[1], opener))
    if head == "plusr":
        need(2, "(plusr formula proof)")
        return PlusR(_formula_of(args[0], opener), _proof_of(args[1], opener))
    if head == "with":
        need(2, "(with proof proof)")
        return With(_proof_of(args[0], opener), _proof_of(args[1], opener))
    if head == "top":
        return TopRule(tuple(_formula_of(a, opener) for a in args))
    raise ProofSyntaxError(f"unknown rule {head!r}", loc.line, loc.col)


def parse_formula(text: str) -> Formula:
    reader = _Reader(text)
    node = reader.read()
    if reader.peek() is not None:
        t = reader.peek()
        raise ProofSyntaxError("trailing input after formula", t.line, t.col)
    return _formula_of(node, _Tok("", 1, 1))


def parse_proof(text: str) -> ProofTree:
    reader = _Reader(text)
    node = reader.read()
    if reader.peek() is not None:
        t = reader.peek()
        raise ProofSyntaxError("trailing input after proof", t.line, t.col)
    return _proof_of(node, _Tok("", 1, 1))


def variables_of(f: Formula) -> set[str]:
    if isinstance(f, (Var, DualVar)):
        return {f.name}
    if isinstance(f, Bin):
        return variables_of(f.left) | variables_of(f.right)
    return set()


def proof_variables(p: ProofTree) -> set[str]:
    out: set[str] = set()
    for f in sequent_of(p):
        out |= variables_of(f)
    if isinstance(p, Cut):
        out |= variables_of(p.formula)
    for q in premises(p):
        out |= proof_variables(q)
    return out
