"""Exact symbolic backend: weighted partial injections on a countable basis.

Every operator here is a partial injection between basis indices, each
arrow carrying a unit-modulus complex weight.  By construction such an
operator is a partial isometry that normalises the diagonal algebra: its
source and range projections are diagonal and conjugation maps diagonal
projections to diagonal projections.

Three branch kinds cover everything the engine needs:

* finite tables (explicit arrows),
* dyadic cylinder maps ``n |-> out(n)`` for ``n |-> in(n)`` where ``out``
  and ``in`` are words over the two isometries R: n -> 2n, L: n -> 2n+1
  (these are the address-word monomials; products and adjoints stay in
  the class, so equality is decidable),
* named computable rules with computable partial inverses (the codec
  operators: replication, internal tensor, associativity).

Indices are (value, slot) pairs; the slot tags an independent copy of
the basis (dialect coordinate, or a private region for a cut).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .config import ORBIT_BUDGET, struct_tol
from .errors import DisjointnessError, WindowError
from .linalg import DenseOperator


class Idx(NamedTuple):
    value: int
    slot: int = 0


def as_idx(x) -> Idx:
    if isinstance(x, Idx):
        return x
    if isinstance(x, tuple):
        return Idx(int(x[0]), int(x[1]))
    return Idx(int(x), 0)


# ----------------------------------------------------------------------
# Address words


def word_apply(word: str, n: int) -> int:
    """Apply the composed isometry c1..ck (ck acts first): R doubles, L doubles-plus-one."""
    for c in reversed(word):
        n = 2 * n if c == "R" else 2 * n + 1
    return n


def word_unapply(word: str, x: int) -> int | None:
    """Peel the word from the outside; None when x is outside the image."""
    for c in word:
        if c == "R":
            if x % 2:
                return None
            x //= 2
        else:
            if not x % 2:
                return None
            x //= 2
    return x


def words_disjoint(a: str, b: str) -> bool:
    """Cylinders of two words are disjoint iff neither word prefixes the other."""
    return not (a.startswith(b) or b.startswith(a))


# ----------------------------------------------------------------------
# Branches


def _check_unimodular(weight: complex) -> complex:
    weight = complex(weight)
    if abs(abs(weight) - 1.0) > struct_tol():
        raise ValueError(f"weights must have modulus 1, got {weight}")
    return weight


@dataclass(frozen=True)
class _Cyl:
    """Monomial w_out w_in*: sends in(n) to out(n) with one weight."""

    out_word: str
    out_slot: int
    in_word: str
    in_slot: int
    weight: complex

    def apply(self, idx: Idx) -> tuple[Idx, complex] | None:
        if idx.slot != self.in_slot:
            return None
        n = word_unapply(self.in_word, idx.value)
        if n is None:
            return None
        return Idx(word_apply(self.out_word, n), self.out_slot), self.weight

    def unapply(self, idx: Idx) -> tuple[Idx, complex] | None:
        if idx.slot != self.out_slot:
            return None
        n = word_unapply(self.out_word, idx.value)
        if n is None:
            return None
        return Idx(word_apply(self.in_word, n), self.in_slot), self.weight

    def adjoint(self) -> "_Cyl":
        return _Cyl(self.in_word, self.in_slot, self.out_word, self.out_slot, self.weight.conjugate())

    def key(self):
        return (self.in_slot, self.in_word, self.out_slot, self.out_word, self.weight.real, self.weight.imag)


@dataclass(frozen=True)
class _Rule:
    """Named computable injection with a computable partial inverse."""

    name: str
    fwd: Callable[[Idx], tuple[Idx, complex] | None]
    bwd: Callable[[Idx], tuple[Idx, complex] | None]

    def adjoint(self) -> "_Rule":
        def fwd(idx, _b=self.bwd):
            r = _b(idx)
            return None if r is None else (r[0], r[1].conjugate())

        def bwd(idx, _f=self.fwd):
            r = _f(idx)
            return None if r is None else (r[0], r[1].conjugate())

        return _Rule(f"{self.name}*", fwd, bwd)


class PartialInjectionOp:
    """Weighted partial injection: finite table + cylinder monomials + rules."""

    __slots__ = ("table", "cyls", "rules")

    def __init__(self, table=None, cyls=(), rules=(), validate: bool = True):
        tbl: dict[Idx, tuple[Idx, complex]] = {}
        for src, (dst, w) in (table or {}).items():
            tbl[as_idx(src)] = (as_idx(dst), _check_unimodular(w))
        self.table = tbl
        self.cyls = tuple(cyls)
        self.rules = tuple(rules)
        for c in self.cyls:
            _check_unimodular(c.weight)
        if validate:
            self._validate()

    # -- construction helpers ------------------------------------------

    @staticmethod
    def zero() -> "PartialInjectionOp":
        return PartialInjectionOp()

    @staticmethod
    def from_table(mapping: dict) -> "PartialInjectionOp":
        """mapping: src index -> dst index, every arrow with weight 1."""
        return PartialInjectionOp({as_idx(s): (as_idx(d), 1.0 + 0j) for s, d in mapping.items()})

    @staticmethod
    def arrows(pairs: Iterable[tuple], weight: complex = 1.0) -> "PartialInjectionOp":
        return PartialInjectionOp({as_idx(a): (as_idx(b), weight) for a, b in pairs})

    @staticmethod
    def cylinder(out_word: str, in_word: str, weight: complex = 1.0, out_slot: int = 0, in_slot: int = 0) -> "PartialInjectionOp":
        return PartialInjectionOp(cyls=(_Cyl(out_word, out_slot, in_word, in_slot, complex(weight)),))

    @staticmethod
    def identity_on(indices: Iterable) -> "PartialInjectionOp":
        return PartialInjectionOp({as_idx(i): (as_idx(i), 1.0 + 0j) for i in indices})

    @staticmethod
    def rule(name: str, fwd, bwd) -> "PartialInjectionOp":
        return PartialInjectionOp(rules=(_Rule(name, fwd, bwd),))

    # -- invariants ------------------------------------------------------

    def _validate(self):
        targets: dict[Idx, Idx] = {}
        for src, (dst, _) in self.table.items():
            if dst in targets:
                raise DisjointnessError(f"two sources map to target {dst}", index=dst)
            targets[dst] = src
        for i, c in enumerate(self.cyls):
            for src in self.table:
                if c.apply(src) is not None:
                    raise DisjointnessError(f"table and cylinder domains overlap at {src}", index=src)
            for dst in targets:
                if c.unapply(dst) is not None:
                    raise DisjointnessError(f"table and cylinder ranges overlap at {dst}", index=dst)
            for d in self.cyls[i + 1 :]:
                if c.in_slot == d.in_slot and not words_disjoint(c.in_word, d.in_word):
                    witness = Idx(word_apply(max(c.in_word, d.in_word, key=len), 0), c.in_slot)
                    raise DisjointnessError("cylinder domains overlap", index=witness)
                if c.out_slot == d.out_slot and not words_disjoint(c.out_word, d.out_word):
                    witness = Idx(word_apply(max(c.out_word, d.out_word, key=len), 0), c.out_slot)
                    raise DisjointnessError("cylinder ranges overlap", index=witness)

    # -- queries ---------------------------------------------------------

    @property
    def has_rules(self) -> bool:
        return bool(self.rules)

    def is_zero(self) -> bool:
        return not self.table and not self.cyls and not self.rules

    def is_finite(self) -> bool:
        return not self.cyls and not self.rules

    def apply(self, idx) -> tuple[Idx, complex] | None:
        idx = as_idx(idx)
        hit = self.table.get(idx)
        if hit is not None:
            return hit
        for c in self.cyls:
            r = c.apply(idx)
            if r is not None:
                return r
        for rl in self.rules:
            r = rl.fwd(idx)
            if r is not None:
                return r
        return None

    def unapply(self, idx) -> tuple[Idx, complex] | None:
        idx = as_idx(idx)
        for src, (dst, w) in self.table.items():
            if dst == idx:
                return src, w
        for c in self.cyls:
            r = c.unapply(idx)
            if r is not None:
                return r
        for rl in self.rules:
            r = rl.bwd(idx)
            if r is not None:
                return r
        return None

    def domain_points(self) -> tuple[Idx, ...]:
        """Finite part of the domain (table keys plus one sample per cylinder)."""
        pts = list(self.table.keys())
        for c in self.cyls:
            pts.append(Idx(word_apply(c.in_word, 0), c.in_slot))
        return tuple(pts)

    def canonical(self):
        if self.rules:
            raise ValueError("rule-backed operators have no canonical form")
        cyls = _merge_cylinders(self.cyls)
        table = tuple(sorted(((s, d, w) for s, (d, w) in self.table.items())))
        return (table, tuple(sorted(c.key() for c in cyls)))

    def __eq__(self, other):
        if not isinstance(other, PartialInjectionOp):
            return NotImplemented
        if self.rules or other.rules:
            return self is other
        return self.canonical() == other.canonical()

    def __hash__(self):
        if self.rules:
            return id(self)
        return hash(self.canonical())

    def __repr__(self):
        bits = []
        if self.table:
            bits.append(f"{len(self.table)} arrows")
        for c in self.cyls:
            bits.append(f"[{c.out_word or 'e'}@{c.out_slot}<-{c.in_word or 'e'}@{c.in_slot}]")
        for r in self.rules:
            bits.append(r.name)
        return f"PartialInjectionOp({', '.join(bits) or '0'})"


def _merge_cylinders(cyls: Sequence[_Cyl]) -> tuple[_Cyl, ...]:
    """Coalesce sibling monomials (aR<-bR) + (aL<-bL) into (a<-b)."""
    items = {c.key(): c for c in cyls}
    changed = True
    while changed:
        changed = False
        for key, c in list(items.items()):
            if not c.in_word or not c.out_word:
                continue
            if c.in_word[-1] != c.out_word[-1]:
                continue
            last = c.in_word[-1]
            sib_char = "L" if last == "R" else "R"
            sib = _Cyl(c.out_word[:-1] + sib_char, c.out_slot, c.in_word[:-1] + sib_char, c.in_slot, c.weight)
            if sib.key() in items:
                del items[key]
                del items[sib.key()]
                merged = _Cyl(c.out_word[:-1], c.out_slot, c.in_word[:-1], c.in_slot, c.weight)
                items[merged.key()] = merged
                changed = True
                break
    return tuple(items.values())


# ----------------------------------------------------------------------
# Core operations


def r_isometry() -> PartialInjectionOp:
    """Total isometry n -> 2n; range is the even indices."""
    return PartialInjectionOp.cylinder("R", "")


def l_isometry() -> PartialInjectionOp:
    """Total isometry n -> 2n+1; range is the odd indices."""
    return PartialInjectionOp.cylinder("L", "")


def adjoint(u: PartialInjectionOp) -> PartialInjectionOp:
    table = {dst: (src, w.conjugate()) for src, (dst, w) in u.table.items()}
    return PartialInjectionOp(table, tuple(c.adjoint() for c in u.cyls), tuple(r.adjoint() for r in u.rules), validate=False)


def _compose_cyl(u: _Cyl, v: _Cyl) -> _Cyl | None:
    """u after v: W_a W_b* W_c W_d* with b* c resolved by prefix comparison."""
    if u.in_slot != v.out_slot:
        return None
    b, c = u.in_word, v.out_word
    w = u.weight * v.weight
    if c.startswith(b):
        s = c[len(b) :]
        return _Cyl(u.out_word + s, u.out_slot, v.in_word, v.in_slot, w)
    if b.startswith(c):
        t = b[len(c) :]
        return _Cyl(u.out_word, u.out_slot, v.in_word + t, v.in_slot, w)
    return None


def compose(u: PartialInjectionOp, v: PartialInjectionOp) -> PartialInjectionOp:
    """Operator product u v (v acts first)."""
    table: dict[Idx, tuple[Idx, complex]] = {}
    cyls: list[_Cyl] = []
    rules: list[_Rule] = []

    # v's finite arrows through all of u
    for src, (mid, w) in v.table.items():
        hit = u.apply(mid)
        if hit is not None:
            table[src] = (hit[0], w * hit[1])
    # u's finite arrows pulled back through v's infinite parts
    for mid, (dst, w) in u.table.items():
        for c in v.cyls:
            r = c.unapply(mid)
            if r is not None:
                table[r[0]] = (dst, w * r[1])
        for rl in v.rules:
            r = rl.bwd(mid)
            if r is not None:
                table[r[0]] = (dst, w * r[1])
    # cylinder algebra
    for cu in u.cyls:
        for cv in v.cyls:
            r = _compose_cyl(cu, cv)
            if r is not None:
                cyls.append(r)

    # products touching a rule stay lazy
    def lazy(name: str, left: "PartialInjectionOp", right: "PartialInjectionOp") -> _Rule:
        def fwd(idx):
            a = right.apply(idx)
            if a is None:
                return None
            b = left.apply(a[0])
            if b is None:
                return None
            return b[0], a[1] * b[1]

        def bwd(idx):
            a = left.unapply(idx)
            if a is None:
                return None
            b = right.unapply(a[0])
            if b is None:
                return None
            return b[0], a[1] * b[1]

        return _Rule(name, fwd, bwd)

    if u.rules:
        u_rules = PartialInjectionOp(rules=u.rules, validate=False)
        v_inf = PartialInjectionOp(cyls=v.cyls, rules=v.rules, validate=False)
        if not v_inf.is_zero():
            rules.append(lazy("compose", u_rules, v_inf))
    if v.rules and u.cyls:
        u_cyl = PartialInjectionOp(cyls=u.cyls, validate=False)
        v_rules = PartialInjectionOp(rules=v.rules, validate=False)
        rules.append(lazy("compose", u_cyl, v_rules))
    return PartialInjectionOp(table, cyls, rules, validate=False)


def sum_disjoint(u: PartialInjectionOp, v: PartialInjectionOp) -> PartialInjectionOp:
    """Union of graphs; requires disjoint domains and disjoint ranges."""
    table = dict(u.table)
    for src, arrow in v.table.items():
        if src in table:
            raise DisjointnessError(f"domains overlap at {src}", index=src)
        table[src] = arrow
    out = PartialInjectionOp(table, u.cyls + v.cyls, u.rules + v.rules)
    return out


def conjugate_by(w: PartialInjectionOp, u: PartialInjectionOp) -> PartialInjectionOp:
    """w u w*."""
    return compose(compose(w, u), adjoint(w))


def odot(u: PartialInjectionOp, v: PartialInjectionOp) -> PartialInjectionOp:
    """Internalised pairing: R u R* + L v L* (disjoint by construction)."""
    return sum_disjoint(conjugate_by(r_isometry(), u), conjugate_by(l_isometry(), v))


def axiom_swap() -> PartialInjectionOp:
    """L R*: the standard partial isometry between the even and odd halves."""
    return compose(l_isometry(), adjoint(r_isometry()))


def is_partial_symmetry(u: PartialInjectionOp, budget: int = 1000) -> bool:
    """u = u* and u^3 = u; exact on finite forms, sampled on rules."""
    if not u.has_rules:
        adj = adjoint(u)
        if u != adj:
            return False
        return compose(compose(u, u), u) == u
    adj = adjoint(u)
    cube = compose(compose(u, u), u)
    for k in range(budget):
        for idx in (Idx(k, 0), Idx(k, 1)):
            if u.apply(idx) != adj.apply(idx):
                return False
            if cube.apply(idx) != u.apply(idx):
                return False
    return True


# ----------------------------------------------------------------------
# Nilpotency


@dataclass(frozen=True)
class NilpotencyResult:
    kind: str  # "nilpotent" | "cyclic" | "exceeded"
    degree: int | None = None
    witness: Idx | None = None
    budget: int | None = None

    @property
    def is_nilpotent(self) -> bool:
        return self.kind == "nilpotent"


def nilpotency(u: PartialInjectionOp, seeds: Iterable | None = None, budget: int = ORBIT_BUDGET) -> NilpotencyResult:
    """Classify u as Nilpotent(degree), Cyclic(witness) or Exceeded.

    With explicit seeds (mandatory for rule-backed operators) the orbit
    of every seed is walked.  Finite tables default to their full domain,
    so the answer is exact.  Cylinder-bearing operators without seeds are
    classified by exact symbolic powering.
    """
    if seeds is None:
        if u.has_rules:
            raise ValueError("seeds are mandatory for rule-backed operators")
        if not u.is_finite():
            return _nilpotency_symbolic(u, budget)
        seeds = u.table.keys()
    longest = 0
    for seed in seeds:
        seen = {as_idx(seed)}
        cur = as_idx(seed)
        steps = 0
        while True:
            hit = u.apply(cur)
            if hit is None:
                break
            cur = hit[0]
            steps += 1
            if cur in seen:
                return NilpotencyResult("cyclic", witness=cur)
            seen.add(cur)
            if steps > budget:
                return NilpotencyResult("exceeded", budget=budget)
        longest = max(longest, steps)
    return NilpotencyResult("nilpotent", degree=longest + 1)


def _nilpotency_symbolic(u: PartialInjectionOp, budget: int) -> NilpotencyResult:
    power = u
    seen = {power.canonical()}
    degree = 1
    while True:
        if power.is_zero():
            return NilpotencyResult("nilpotent", degree=degree)
        power = compose(u, power)
        degree += 1
        key = power.canonical()
        if key in seen and not power.is_zero():
            pts = power.domain_points()
            if pts:
                walk = nilpotency(u, seeds=pts[:1], budget=budget)
                if walk.kind == "cyclic":
                    return walk
            return NilpotencyResult("cyclic", witness=pts[0] if pts else None)
        seen.add(key)
        if degree > budget:
            return NilpotencyResult("exceeded", budget=budget)


# ----------------------------------------------------------------------
# Regions and restriction


class Region:
    """A set of indices described by points, dyadic cylinders, or base values."""

    def __init__(self, points: Iterable = (), cylinders: Iterable[tuple[str, int]] = (), location_values: Iterable[int] | None = None):
        self.points = frozenset(as_idx(p) for p in points)
        self.cylinders = tuple(cylinders)
        self.location_values = None if location_values is None else frozenset(int(v) for v in location_values)

    @staticmethod
    def from_support(p: PartialInjectionOp) -> "Region":
        """Region covering the domain and range of p."""
        pts = set()
        for src, (dst, _) in p.table.items():
            pts.add(src)
            pts.add(dst)
        cyls = []
        for c in p.cyls:
            cyls.append((c.in_word, c.in_slot))
            if (c.out_word, c.out_slot) != (c.in_word, c.in_slot):
                cyls.append((c.out_word, c.out_slot))
        return Region(pts, cyls)

    @staticmethod
    def from_locations(values: Iterable[int]) -> "Region":
        """Every slot of the given base values belongs to the region."""
        return Region(location_values=values)

    def contains(self, idx: Idx) -> bool:
        if self.location_values is not None and idx.value in self.location_values:
            return True
        if idx in self.points:
            return True
        for word, slot in self.cylinders:
            if idx.slot == slot and word_unapply(word, idx.value) is not None:
                return True
        return False

    def classify_cylinder(self, word: str, slot: int) -> str:
        """'inside' | 'outside' | 'partial' for a dyadic cylinder wrt this region."""
        if self.location_values is not None:
            raise ValueError("location regions do not classify cylinders")
        inside = False
        partial = False
        for w, s in self.cylinders:
            if s != slot:
                continue
            if word.startswith(w):
                inside = True
            elif w.startswith(word):
                partial = True
        if inside:
            return "inside"
        for p in self.points:
            if p.slot == slot and word_unapply(word, p.value) is not None:
                partial = True
        return "partial" if partial else "outside"


_MAX_REFINE = 64


def restrict_outside(u: PartialInjectionOp, region: Region) -> PartialInjectionOp:
    """(1 - p) u (1 - p) for the projection p onto the region."""
    if u.has_rules:
        raise ValueError("cannot restrict rule-backed operators symbolically")
    table = {
        src: arrow
        for src, arrow in u.table.items()
        if not region.contains(src) and not region.contains(arrow[0])
    }
    if region.location_values is not None:
        if u.cyls:
            raise ValueError("location regions only restrict finite operators")
        return PartialInjectionOp(table, validate=False)
    cyls: list[_Cyl] = []
    stack = [(c, 0) for c in u.cyls]
    while stack:
        c, depth = stack.pop()
        cd = region.classify_cylinder(c.in_word, c.in_slot)
        cr = region.classify_cylinder(c.out_word, c.out_slot)
        if cd == "inside" or cr == "inside":
            continue
        if cd == "outside" and cr == "outside":
            cyls.append(c)
            continue
        if depth >= _MAX_REFINE:
            raise ValueError("restriction is not expressible as a finite cylinder union")
        # refine: append the same letter to both sides and retry
        for letter in ("R", "L"):
            stack.append(
                (_Cyl(c.out_word + letter, c.out_slot, c.in_word + letter, c.in_slot, c.weight), depth + 1)
            )
    return PartialInjectionOp(table, cyls, validate=False)


# ----------------------------------------------------------------------
# Dense windows


def to_dense(u: PartialInjectionOp, window: Iterable) -> DenseOperator:
    """Matrix of u on a finite window; u must map the window into itself."""
    window = [as_idx(x) for x in window]
    pos = {x: i for i, x in enumerate(window)}
    if all(x.slot == 0 for x in window):
        labels = tuple(x.value for x in window)
    else:
        labels = tuple((x.value, x.slot) for x in window)
    mat = np.zeros((len(window), len(window)), dtype=complex)
    for x in window:
        hit = u.apply(x)
        if hit is None:
            continue
        dst, w = hit
        if dst not in pos:
            raise WindowError(f"image {dst} of {x} escapes the window", index=x)
        mat[pos[dst], pos[x]] = w
    return DenseOperator(labels, mat)


# ----------------------------------------------------------------------
# The replication codec


def beta_encode(n: int, m: int) -> int:
    """Pairing bijection (n, m) -> 2^n (2m + 1) - 1."""
    if n < 0 or m < 0:
        raise ValueError("arguments must be natural numbers")
    return (2**n) * (2 * m + 1) - 1


def beta_decode(k: int) -> tuple[int, int]:
    if k < 0:
        raise ValueError("argument must be a natural number")
    x = k + 1
    n = 0
    while x % 2 == 0:
        x //= 2
        n += 1
    return n, (x - 1) // 2


def bang(u: PartialInjectionOp) -> PartialInjectionOp:
    """Replication: act on the odd-part coordinate of the codec, keep the copy index."""

    def fwd(idx: Idx):
        n, m = beta_decode(idx.value)
        hit = u.apply(Idx(m, idx.slot))
        if hit is None or hit[0].slot != idx.slot:
            return None
        return Idx(beta_encode(n, hit[0].value), idx.slot), hit[1]

    def bwd(idx: Idx):
        n, m = beta_decode(idx.value)
        hit = u.unapply(Idx(m, idx.slot))
        if hit is None or hit[0].slot != idx.slot:
            return None
        return Idx(beta_encode(n, hit[0].value), idx.slot), hit[1]

    return PartialInjectionOp.rule("bang", fwd, bwd)


def internal_tensor(u: PartialInjectionOp, v: PartialInjectionOp) -> PartialInjectionOp:
    """u acting on the first codec coordinate, v on the second."""

    def fwd(idx: Idx):
        n, m = beta_decode(idx.value)
        a = u.apply(Idx(n, idx.slot))
        b = v.apply(Idx(m, idx.slot))
        if a is None or b is None or a[0].slot != idx.slot or b[0].slot != idx.slot:
            return None
        return Idx(beta_encode(a[0].value, b[0].value), idx.slot), a[1] * b[1]

    def bwd(idx: Idx):
        n, m = beta_decode(idx.value)
        a = u.unapply(Idx(n, idx.slot))
        b = v.unapply(Idx(m, idx.slot))
        if a is None or b is None or a[0].slot != idx.slot or b[0].slot != idx.slot:
            return None
        return Idx(beta_encode(a[0].value, b[0].value), idx.slot), a[1] * b[1]

    return PartialInjectionOp.rule("itensor", fwd, bwd)


def gamma_assoc() -> PartialInjectionOp:
    """Unitary reassociating the codec: beta(beta(p, q), r) -> beta(p, beta(q, r))."""

    def fwd(idx: Idx):
        s, r = beta_decode(idx.value)
        p, q = beta_decode(s)
        return Idx(beta_encode(p, beta_encode(q, r)), idx.slot), 1.0 + 0j

    def bwd(idx: Idx):
        p, t = beta_decode(idx.value)
        q, r = beta_decode(t)
        return Idx(beta_encode(beta_encode(p, q), r), idx.slot), 1.0 + 0j

    return PartialInjectionOp.rule("gamma", fwd, bwd)
