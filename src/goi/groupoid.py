"""Exact symbolic backend: weighted partial injections on a countable basis.

Every operator here is a partial injection between basis indices, each
arrow carrying a unit-modulus complex weight.  By construction such an
operator is a partial isometry that normalises the diagonal algebra: its
source and range projections are diagonal and conjugation maps diagonal
projections to diagonal projections.

Two branch kinds cover everything the engine needs:

* finite tables (explicit arrows),
* dyadic cylinder maps ``n |-> out(n)`` for ``n |-> in(n)`` where ``out``
  and ``in`` are words over the two isometries R: n -> 2n, L: n -> 2n+1
  (these are the address-word monomials; products and adjoints stay in
  the class, so equality is decidable).

Indices are (value, slot) pairs; the slot tags an independent copy of
the basis (dialect coordinate, or a private region for a cut).

``WeightedInjection`` is the one operator here whose arrows are not
unimodular: a finite table ``v`` followed by a diagonal contraction ``d``
on its range, an element of the diagonal algebra times an element of its
normalising groupoid.  ``relabel`` and ``sum_weighted`` carry ``d``
beside ``v``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .config import ORBIT_BUDGET, struct_tol
from .errors import DisjointnessError


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


def _address(n: int, length: int) -> str:
    """The first ``length`` letters of the word read off n, as word_unapply peels them."""
    letters = []
    for _ in range(length):
        letters.append("L" if n % 2 else "R")
        n //= 2
    return "".join(letters)


# sorts after every address letter: word + _TOP bounds the words that extend word
_TOP = "\U0010ffff"


class _SideIndex:
    """Items keyed by one side (slot, word) of a cylinder, for containment lookups.

    The cylinder of a word w contains the cylinder of every word that w
    prefixes.  Words prefixing a given word are found by exact lookups of
    its prefixes; words extending it form one ``bisect`` range of the
    sorted words of its slot.
    """

    __slots__ = ("by_key", "words", "longest")

    def __init__(self, items: Iterable, key: Callable):
        by_key: dict[tuple[int, str], list] = {}
        for item in items:
            by_key.setdefault(key(item), []).append(item)
        words: dict[int, list[str]] = {}
        for slot, word in by_key:
            words.setdefault(slot, []).append(word)
        for ws in words.values():
            ws.sort()
        self.by_key = by_key
        self.words = words
        self.longest = {slot: len(max(ws, key=len)) for slot, ws in words.items()}

    def covering(self, slot: int, word: str) -> list:
        """Items whose cylinder contains the cylinder of word (word itself included)."""
        out = []
        for k in range(min(len(word), self.longest.get(slot, -1)) + 1):
            hit = self.by_key.get((slot, word[:k]))
            if hit:
                out.extend(hit)
        return out

    def within(self, slot: int, word: str) -> list:
        """Items whose cylinder lies strictly inside the cylinder of word."""
        ws = self.words.get(slot)
        if not ws:
            return []
        lo = bisect_right(ws, word)
        hi = bisect_left(ws, word + _TOP, lo)
        return [item for w in ws[lo:hi] for item in self.by_key[(slot, w)]]

    def at(self, idx: Idx) -> list:
        """Items whose cylinder contains the index."""
        length = self.longest.get(idx.slot)
        if length is None:
            return []
        return self.covering(idx.slot, _address(idx.value, length))


# ----------------------------------------------------------------------
# Branches


def _check_unimodular(weight: complex, tol: float) -> complex:
    weight = complex(weight)
    if abs(abs(weight) - 1.0) > tol:
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


class PartialInjectionOp:
    """Weighted partial injection: finite table + cylinder monomials.

    A table or cylinder that enters from outside is checked here: indices
    are normalised to ``Idx``, every weight must have modulus 1 within
    ``GOI_TOL``, no two sources may share a target and tables and
    cylinders may not overlap.

    ``validate=False`` is the trusted path, for results that the algebra
    builds from operators that were checked (adjoints, products,
    re-indexings, restrictions).  It promises that ``table`` is a dict
    from ``Idx`` to ``(Idx, unimodular weight)``, which the operator then
    owns, and that sources and targets are distinct; nothing of it is
    checked or copied.
    """

    __slots__ = ("table", "cyls", "_index")

    # Always empty: no branch kind beyond tables and cylinders.  Kept because the
    # mll-cut-chains benchmark check still reads ``op.rules``.
    rules = ()

    def __init__(self, table=None, cyls=(), validate: bool = True):
        self.cyls = tuple(cyls)
        self._index = None
        if not validate:
            self.table = {} if table is None else table
            return
        tol = struct_tol()
        self.table = {as_idx(src): (as_idx(dst), _check_unimodular(w, tol)) for src, (dst, w) in (table or {}).items()}
        for c in self.cyls:
            _check_unimodular(c.weight, tol)
        self._validate()

    def index(self) -> "_OpIndex":
        """Cylinders by domain and by range side, table arrows by source slot; built on first use."""
        if self._index is None:
            self._index = _OpIndex(self)
        return self._index

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
    def cylinders(monomials: Iterable[tuple]) -> "PartialInjectionOp":
        """Validated sum of monomials given as ``cylinder`` arguments (out_word, in_word, weight, out_slot, in_slot)."""
        return PartialInjectionOp(cyls=tuple(_Cyl(o, os_, i, is_, complex(w)) for o, i, w, os_, is_ in monomials))

    @staticmethod
    def identity_on(indices: Iterable) -> "PartialInjectionOp":
        return PartialInjectionOp({as_idx(i): (as_idx(i), 1.0 + 0j) for i in indices})

    # -- invariants ------------------------------------------------------

    def _validate(self):
        targets: dict[Idx, Idx] = {}
        for src, (dst, _) in self.table.items():
            if dst in targets:
                raise DisjointnessError(f"two sources map to target {dst}", index=dst)
            targets[dst] = src
        if not self.cyls:
            return
        if self.table:
            sides = self.index()
            for src in self.table:
                if sides.ins.at(src):
                    raise DisjointnessError(f"table and cylinder domains overlap at {src}", index=src)
            for dst in targets:
                if sides.outs.at(dst):
                    raise DisjointnessError(f"table and cylinder ranges overlap at {dst}", index=dst)
        witness = _prefix_clash(sorted((c.in_slot, c.in_word) for c in self.cyls))
        if witness is not None:
            raise DisjointnessError("cylinder domains overlap", index=witness)
        witness = _prefix_clash(sorted((c.out_slot, c.out_word) for c in self.cyls))
        if witness is not None:
            raise DisjointnessError("cylinder ranges overlap", index=witness)

    # -- queries ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.table and not self.cyls

    def is_finite(self) -> bool:
        return not self.cyls

    def apply(self, idx) -> tuple[Idx, complex] | None:
        idx = as_idx(idx)
        hit = self.table.get(idx)
        if hit is not None:
            return hit
        if self.cyls:
            for c in self.index().ins.at(idx):
                return c.apply(idx)
        return None

    def canonical(self):
        cyls = _merge_cylinders(self.cyls)
        table = tuple(sorted(((s, d, w) for s, (d, w) in self.table.items())))
        return (table, tuple(sorted(c.key() for c in cyls)))

    def __eq__(self, other):
        if not isinstance(other, PartialInjectionOp):
            return NotImplemented
        return self.canonical() == other.canonical()

    def __hash__(self):
        return hash(self.canonical())

    def __repr__(self):
        bits = []
        if self.table:
            bits.append(f"{len(self.table)} arrows")
        for c in self.cyls:
            bits.append(f"[{c.out_word or 'e'}@{c.out_slot}<-{c.in_word or 'e'}@{c.in_slot}]")
        return f"PartialInjectionOp({', '.join(bits) or '0'})"


class _OpIndex:
    """The lookups of one operator: cylinders by domain and by range, table arrows by source slot."""

    __slots__ = ("ins", "outs", "table_by_slot")

    def __init__(self, op: PartialInjectionOp):
        self.ins = _SideIndex(op.cyls, lambda c: (c.in_slot, c.in_word))
        self.outs = _SideIndex(op.cyls, lambda c: (c.out_slot, c.out_word))
        by_slot: dict[int, list] = {}
        for src, (dst, w) in op.table.items():
            by_slot.setdefault(src.slot, []).append((src, dst, w))
        self.table_by_slot = by_slot


def _prefix_clash(keys: list[tuple[int, str]]) -> Idx | None:
    """An index inside two of the sorted (slot, word) cylinders, if two of them meet.

    A word that prefixes another also prefixes its sorted successor, so
    testing neighbours finds every clash.
    """
    for (slot, a), (next_slot, b) in zip(keys, keys[1:]):
        if slot == next_slot and b.startswith(a):
            return Idx(word_apply(b, 0), slot)
    return None


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
    return PartialInjectionOp(table, tuple(c.adjoint() for c in u.cyls), validate=False)


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

    # v's finite arrows through all of u
    for src, (mid, w) in v.table.items():
        hit = u.apply(mid)
        if hit is not None:
            table[src] = (hit[0], w * hit[1])
    # u's finite arrows pulled back through v's cylinders
    if u.table and v.cyls:
        outs = v.index().outs
        for mid, (dst, w) in u.table.items():
            for c in outs.at(mid):
                r = c.unapply(mid)
                table[r[0]] = (dst, w * r[1])
    # cylinder algebra: each cylinder of v meets only the cylinders of u whose domain word
    # prefixes or extends its range word
    if u.cyls and v.cyls:
        ins = u.index().ins
        for cv in v.cyls:
            for cu in ins.covering(cv.out_slot, cv.out_word) + ins.within(cv.out_slot, cv.out_word):
                cyls.append(_compose_cyl(cu, cv))
    return PartialInjectionOp(table, cyls, validate=False)


def sum_disjoint(u: PartialInjectionOp, v: PartialInjectionOp) -> PartialInjectionOp:
    """Union of graphs; requires disjoint domains and disjoint ranges."""
    table = dict(u.table)
    for src, arrow in v.table.items():
        if src in table:
            raise DisjointnessError(f"domains overlap at {src}", index=src)
        table[src] = arrow
    # the weights of two operators are checked already; their disjointness is not
    op = PartialInjectionOp(table, u.cyls + v.cyls, validate=False)
    op._validate()
    return op


def is_partial_symmetry(u: PartialInjectionOp) -> bool:
    """u = u*, decided exactly on the canonical forms; a partial isometry u then has u^3 = u u* u = u."""
    return u == adjoint(u)


# ----------------------------------------------------------------------
# Weighted partial injections


@dataclass(frozen=True)
class WeightedInjection:
    """d v: the finite partial injection v, then the diagonal d on its range.

    ``v`` carries the phases and stays unimodular; ``d`` maps every range
    index of v to a real weight, so the arrow src -> dst weighs
    ``w * d[dst]``.  The operator is a contraction exactly when every
    |d| <= 1.  Both fields are read-only: ``d`` and ``v.table`` are
    wrapped in mapping proxies.
    """

    v: PartialInjectionOp
    d: Mapping[Idx, float]

    def __post_init__(self):
        object.__setattr__(self, "d", MappingProxyType(dict(self.d)))
        if not isinstance(self.v.table, MappingProxyType):
            self.v.table = MappingProxyType(self.v.table)

    @staticmethod
    def of(u: PartialInjectionOp) -> "WeightedInjection":
        """u with weight 1 on each arrow."""
        return WeightedInjection(PartialInjectionOp(dict(u.table), validate=False), {dst: 1.0 for dst, _ in u.table.values()})

    @cached_property
    def table(self) -> Mapping[Idx, tuple[Idx, complex]]:
        """src -> (dst, weight of the arrow)."""
        d = self.d
        return MappingProxyType({src: (dst, w * d[dst]) for src, (dst, w) in self.v.table.items()})


def relabel(u: PartialInjectionOp | WeightedInjection, index: Callable[[Idx], Idx], phase: Callable[[Idx], complex] | None = None):
    """t u t* for the finite table u and the injection t: i -> phase(i) index(i).

    A weighted u keeps each weight of d on the renamed index.
    """
    if isinstance(u, WeightedInjection):
        return WeightedInjection(relabel(u.v, index, phase), {index(i): m for i, m in u.d.items()})
    if phase is None:
        table = {index(src): (index(dst), w) for src, (dst, w) in u.table.items()}
    else:
        table = {index(src): (index(dst), phase(dst) * w * phase(src).conjugate()) for src, (dst, w) in u.table.items()}
    return PartialInjectionOp(table, validate=False)


def sum_weighted(u: PartialInjectionOp | WeightedInjection, v: PartialInjectionOp | WeightedInjection):
    """``sum_disjoint`` of two finite tables; weighted when either is, with d = 1 on a plain one's arrows."""
    if isinstance(u, PartialInjectionOp) and isinstance(v, PartialInjectionOp):
        return sum_disjoint(u, v)
    u, v = (x if isinstance(x, WeightedInjection) else WeightedInjection.of(x) for x in (u, v))
    return WeightedInjection(sum_disjoint(u.v, v.v), {**u.d, **v.d})


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


def nilpotency(u: PartialInjectionOp, budget: int = ORBIT_BUDGET) -> NilpotencyResult:
    """Classify u as Nilpotent(degree), Cyclic(witness) or Exceeded.

    The paths of u through itself are searched once, memoised by range
    side (``PathGraph.classify``), which is exact for tables and cylinders
    alike.
    """
    return PathGraph(u, ((u,),)).classify(budget)


class PathGraph:
    """Paths that start with a monomial of ``first`` and then cross ``stages`` in turn.

    A stage is a tuple of operators applied in order; the stages repeat
    cyclically.  ``PathGraph(u, ((v, u),))`` holds the paths of
    (uv)^k u, and ``PathGraph(u, ((u,),))`` those of the powers of u.

    A node is where a path stands after a stage: ``(phase, key)``, with
    ``phase`` the index of the next stage and ``key`` either
    ``(slot, word)``, for a path of cylinder monomials whose range is that
    cylinder, or the ``Idx`` at which a finite arrow ends.  How a path
    continues depends on its node alone, so the edges out of a node are
    computed once.  An edge is ``(refine, residual, node, weight)``: the
    part of a cylinder path's domain that continues is selected by
    appending ``refine`` to its domain word; a cylinder path that
    continues as a finite arrow has ``residual`` n, and its source is the
    refined domain word applied to n (``residual`` is None otherwise).
    """

    def __init__(self, first: PartialInjectionOp, stages: Sequence[Sequence[PartialInjectionOp]]):
        self.stages = tuple(tuple(stage) for stage in stages)
        self.first = first
        self._edges: dict = {}

    def starts(self) -> list[tuple[tuple, tuple | Idx, complex]]:
        """(node, domain, weight) of each monomial of ``first``; a cylinder domain is (slot, word)."""
        out = [((0, (c.out_slot, c.out_word)), (c.in_slot, c.in_word), c.weight) for c in self.first.cyls]
        out += [((0, dst), src, w) for src, (dst, w) in self.first.table.items()]
        return out

    def edges(self, node: tuple) -> list[tuple[str, int | None, tuple, complex]]:
        """How the paths standing at node continue through its stage; computed on first use."""
        hit = self._edges.get(node)
        if hit is None:
            phase, key = node
            paths = [("", None, key, None)]
            for op in self.stages[phase]:
                paths = [
                    (refine + more, residual if n is None else n, after, w if acc is None else acc * w)
                    for refine, residual, at, acc in paths
                    for more, n, after, w in _cross(op, at)
                ]
            following = (phase + 1) % len(self.stages)
            hit = self._edges[node] = [(refine, residual, (following, at), w) for refine, residual, at, w in paths]
        return hit

    def classify(self, budget: int = ORBIT_BUDGET) -> NilpotencyResult:
        """Depth-first search over the nodes reached from every start, each node expanded once.

        A node met again on the current path is ``cyclic``: some path repeats
        its range side, so no power of the stage cycle vanishes.  A path of
        more than ``budget`` stages is ``exceeded``.  Otherwise the degree is
        two more than the most stages on a path (1 when ``first`` is zero),
        which is the nilpotency degree of u for ``PathGraph(u, ((u,),))``.
        """
        longest: dict[tuple, int] = {}  # node -> most stages on a path out of it
        on_path: set[tuple] = set()
        deepest = -1
        for root, _, _ in self.starts():
            if root not in longest:
                on_path.add(root)
                stack = [(root, iter(self.edges(root)))]
                while stack:
                    node, pending = stack[-1]
                    for edge in pending:
                        child = edge[2]
                        if child in on_path:
                            return NilpotencyResult("cyclic", witness=_sample(child[1]))
                        if child not in longest:
                            if len(stack) > budget:
                                return NilpotencyResult("exceeded", budget=budget)
                            on_path.add(child)
                            stack.append((child, iter(self.edges(child))))
                            break
                    else:
                        stack.pop()
                        on_path.discard(node)
                        longest[node] = 1 + max((longest[e[2]] for e in self.edges(node)), default=-1)
            deepest = max(deepest, longest[root])
        return NilpotencyResult("nilpotent", degree=deepest + 2)

    def outside(self, region: "Region") -> PartialInjectionOp:
        """Sum over every path and every stage of the part that starts and ends outside the region.

        Paths that start inside the region are not followed.  The walk ends
        only if ``classify`` finds the paths nilpotent.
        """
        table: dict[Idx, tuple[Idx, complex]] = {}
        cyls: list[_Cyl] = []
        stack = [start for start in self.starts() if not _starts_inside(start[1], region)]
        while stack:
            node, domain, acc = stack.pop()
            key = node[1]
            if isinstance(key, Idx):
                if not region.contains(domain) and not region.contains(key):
                    if domain in table:
                        raise DisjointnessError(f"domains overlap at {domain}", index=domain)
                    table[domain] = (key, acc)
            else:
                _restrict_cylinder(_Cyl(key[1], key[0], domain[1], domain[0], acc), region, cyls)
            for refine, residual, child, w in self.edges(node):
                if residual is not None:
                    after = Idx(word_apply(domain[1] + refine, residual), domain[0])
                elif refine:
                    after = (domain[0], domain[1] + refine)
                else:
                    stack.append((child, domain, w * acc))
                    continue
                if not _starts_inside(after, region):
                    stack.append((child, after, w * acc))
        op = PartialInjectionOp(table, cyls, validate=False)
        op._validate()
        return op


def _starts_inside(domain, region: "Region") -> bool:
    """Whether a path's domain, an Idx or a (slot, word) cylinder, lies inside the region."""
    if isinstance(domain, Idx):
        return region.contains(domain)
    return region.classify_cylinder(domain[1], domain[0]) == "inside"


def _cross(op: PartialInjectionOp, key) -> list[tuple[str, int | None, object, complex]]:
    """One step of a path standing at key through op: (refine, residual, key after, weight)."""
    if isinstance(key, Idx):
        hit = op.apply(key)
        return [] if hit is None else [("", None, hit[0], hit[1])]
    slot, word = key
    sides = op.index()
    out = [("", None, (c.out_slot, c.out_word + word[len(c.in_word) :]), c.weight) for c in sides.ins.covering(slot, word)]
    out += [(c.in_word[len(word) :], None, (c.out_slot, c.out_word), c.weight) for c in sides.ins.within(slot, word)]
    for src, dst, w in sides.table_by_slot.get(slot, ()):
        n = word_unapply(word, src.value)
        if n is not None:
            out.append(("", n, dst, w))
    return out


def _sample(key) -> Idx:
    """An index at a node key: the point itself, or the cylinder's image of 0."""
    return key if isinstance(key, Idx) else Idx(word_apply(key[1], 0), key[0])


# ----------------------------------------------------------------------
# Regions and restriction


class Region:
    """A set of indices described by points, dyadic cylinders, or base values."""

    def __init__(self, points: Iterable = (), cylinders: Iterable[tuple[str, int]] = (), location_values: Iterable[int] | None = None):
        self.points = frozenset(as_idx(p) for p in points)
        self.cylinders = tuple(cylinders)
        self.location_values = None if location_values is None else frozenset(int(v) for v in location_values)
        self._index = _SideIndex(self.cylinders, lambda c: (c[1], c[0]))

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
        return idx in self.points or bool(self._index.at(idx))

    def classify_cylinder(self, word: str, slot: int) -> str:
        """'inside' | 'outside' | 'partial' for a dyadic cylinder wrt this region."""
        if self.location_values is not None:
            raise ValueError("location regions do not classify cylinders")
        if self._index.covering(slot, word):
            return "inside"
        if self._index.within(slot, word):
            return "partial"
        for p in self.points:
            if p.slot == slot and word_unapply(word, p.value) is not None:
                return "partial"
        return "outside"


_MAX_REFINE = 64


def restrict_outside(u: PartialInjectionOp, region: Region) -> PartialInjectionOp:
    """(1 - p) u (1 - p) for the projection p onto the region."""
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
    for c in u.cyls:
        _restrict_cylinder(c, region, cyls)
    return PartialInjectionOp(table, cyls, validate=False)


def _restrict_cylinder(c: _Cyl, region: Region, out: list) -> None:
    """Append to out the monomials of c whose domain and range lie outside the region."""
    stack = [(c, 0)]
    while stack:
        c, depth = stack.pop()
        cd = region.classify_cylinder(c.in_word, c.in_slot)
        cr = region.classify_cylinder(c.out_word, c.out_slot)
        if cd == "inside" or cr == "inside":
            continue
        if cd == "outside" and cr == "outside":
            out.append(c)
            continue
        if depth >= _MAX_REFINE:
            raise ValueError("restriction is not expressible as a finite cylinder union")
        # refine: append the same letter to both sides and retry
        for letter in ("R", "L"):
            stack.append(
                (_Cyl(c.out_word + letter, c.out_slot, c.in_word + letter, c.in_slot, c.weight), depth + 1)
            )


# ----------------------------------------------------------------------
# The pairing codec


def beta_encode(n: int, m: int) -> int:
    """Pairing bijection (n, m) -> 2^n (2m + 1) - 1."""
    if n < 0 or m < 0:
        raise ValueError("arguments must be natural numbers")
    return (2**n) * (2 * m + 1) - 1


def beta_decode(k: int) -> tuple[int, int]:
    if k < 0:
        raise ValueError("argument must be a natural number")
    x = k + 1
    n = (x & -x).bit_length() - 1  # the number of trailing zero bits of x
    return n, ((x >> n) - 1) // 2
