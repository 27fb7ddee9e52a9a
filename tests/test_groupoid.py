import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goi.errors import DisjointnessError
from goi.groupoid import (
    Idx,
    NilpotencyResult,
    _compose_cyl,
    PartialInjectionOp,
    Region,
    adjoint,
    beta_decode,
    beta_encode,
    compose,
    is_partial_symmetry,
    l_isometry,
    nilpotency,
    r_isometry,
    restrict_outside,
    sum_disjoint,
    word_apply,
    word_unapply,
)
from goi.measurement import table_matrix


@st.composite
def partial_injections(draw, pool=16, max_size=6):
    size = draw(st.integers(0, max_size))
    src = draw(st.permutations(range(pool)))[:size]
    dst = draw(st.permutations(range(pool)))[:size]
    phase = draw(st.sampled_from([1.0 + 0j, -1.0 + 0j, 1j, -1j]))
    return PartialInjectionOp({Idx(s): (Idx(d), phase) for s, d in zip(src, dst)})


@st.composite
def symmetrised_tables(draw, pool=12):
    """Pairs a <-> b and fixed points; each back arrow carries the conjugate weight or, sometimes, another one."""
    points = draw(st.permutations(range(pool)))
    pairs = draw(st.integers(0, pool // 2))
    fixed = draw(st.integers(0, pool - 2 * pairs))
    phases = st.sampled_from([1.0 + 0j, -1.0 + 0j, 1j, -1j])
    table = {}
    for a, b in zip(points[: 2 * pairs : 2], points[1 : 2 * pairs : 2]):
        w = draw(phases)
        table[Idx(a)] = (Idx(b), w)
        table[Idx(b)] = (Idx(a), draw(st.sampled_from([w.conjugate()] * 3 + [w])))
    for a in points[2 * pairs : 2 * pairs + fixed]:
        table[Idx(a)] = (Idx(a), draw(phases))
    return PartialInjectionOp(table)


# operators that mix table arrows and cylinders, for products in either order
MIXED = (
    r_isometry(),
    l_isometry(),
    PartialInjectionOp.cylinder("R", "L", 1j),
    PartialInjectionOp({Idx(1): (Idx(2), -1.0 + 0j)}, PartialInjectionOp.cylinder("LL", "RR").cyls),
    PartialInjectionOp({Idx(0): (Idx(3), 1j), Idx(6): (Idx(2), 1.0 + 0j)}, PartialInjectionOp.cylinder("RR", "L").cyls),
)
SELF_ADJOINT_CYLINDERS = (
    PartialInjectionOp.cylinders([("R", "L", 1j, 0, 0), ("L", "R", -1j, 0, 0)]),
    PartialInjectionOp.cylinders([("RR", "RR", -1.0, 0, 0), ("L", "L", 1.0, 1, 1), ("RL", "LR", 1.0, 2, 3), ("LR", "RL", 1.0, 3, 2)]),
)


class TestIsometries:
    def test_r_doubles(self):
        assert r_isometry().apply(3)[0] == Idx(6)

    def test_r_star_r_identity(self):
        r = r_isometry()
        assert compose(adjoint(r), r) == PartialInjectionOp.cylinder("", "")

    def test_partition_of_unity(self):
        r, l = r_isometry(), l_isometry()
        total = sum_disjoint(compose(r, adjoint(r)), compose(l, adjoint(l)))
        assert total == PartialInjectionOp.cylinder("", "")
        for n in list(range(100)) + [2**16]:
            assert total.apply(n) == (Idx(n), 1.0 + 0j)

    def test_equal_sums_hash_equal(self):
        r, l = r_isometry(), l_isometry()
        split = sum_disjoint(compose(r, adjoint(r)), compose(l, adjoint(l)))
        whole = PartialInjectionOp.cylinder("", "")
        assert hash(split) == hash(whole)
        assert len({split, whole, adjoint(adjoint(split))}) == 1

    def test_compose_cylinders(self):
        rl = compose(r_isometry(), l_isometry())
        for n in range(20):
            assert rl.apply(n)[0] == Idx(4 * n + 2)


class TestComposeAndSum:
    def test_range_projection(self):
        u = PartialInjectionOp.from_table({0: 5, 1: 7})
        proj = compose(u, adjoint(u))
        assert proj == PartialInjectionOp.identity_on([5, 7])

    def test_disjoint_tables_compose_to_zero(self):
        u = PartialInjectionOp.from_table({0: 1})
        v = PartialInjectionOp.from_table({5: 6})
        assert compose(u, v).is_zero()

    def test_sum_identity(self):
        u = PartialInjectionOp.from_table({0: 1})
        assert sum_disjoint(u, PartialInjectionOp.zero()) == u

    def test_sum_overlap_raises(self):
        u = PartialInjectionOp.from_table({0: 1})
        v = PartialInjectionOp.from_table({0: 2})
        with pytest.raises(DisjointnessError):
            sum_disjoint(u, v)

    def test_range_overlap_raises(self):
        u = PartialInjectionOp.from_table({0: 1})
        v = PartialInjectionOp.from_table({2: 1})
        with pytest.raises(DisjointnessError):
            sum_disjoint(u, v)

    @given(partial_injections(), partial_injections())
    @settings(max_examples=60, deadline=None)
    def test_closure_under_products(self, u, v):
        uv = compose(u, v)
        # partial isometry law u u* u = u holds exactly
        assert compose(compose(uv, adjoint(uv)), uv) == uv

    @given(partial_injections())
    @settings(max_examples=60, deadline=None)
    def test_uustaru_exact(self, u):
        assert compose(compose(u, adjoint(u)), u) == u

    @given(st.one_of(partial_injections(), st.sampled_from(MIXED)), st.one_of(partial_injections(), st.sampled_from(MIXED)))
    @settings(max_examples=120, deadline=None)
    def test_compose_matches_pointwise(self, u, v):
        uv = compose(u, v)
        for n in range(64):
            hit = v.apply(n)
            after = None if hit is None else u.apply(hit[0])
            expected = None if after is None else (after[0], hit[1] * after[1])
            assert uv.apply(n) == expected

    def test_unimodular_weights_enforced(self):
        with pytest.raises(ValueError):
            PartialInjectionOp({Idx(0): (Idx(1), 0.5)})


PHASES = (1.0 + 0j, -1.0 + 0j, 1j, -1j)
WORDS = st.text(alphabet="RL", max_size=4)


@st.composite
def cylinder_sets(draw, max_size=8):
    """Unvalidated sums of random monomials on two slots: domains and ranges may overlap."""
    monomials = draw(
        st.lists(st.tuples(WORDS, WORDS, st.sampled_from(PHASES), st.integers(0, 1), st.integers(0, 1)), max_size=max_size)
    )
    cyls = [PartialInjectionOp.cylinder(*m).cyls[0] for m in monomials]
    return PartialInjectionOp(cyls=cyls, validate=False)


def _inside(word: str, idx: Idx, slot: int) -> bool:
    return idx.slot == slot and word_unapply(word, idx.value) is not None


class TestCylinderIndex:
    @given(cylinder_sets(), cylinder_sets())
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_compose_matches_all_pairs(self, u, v):
        pairs = [_compose_cyl(cu, cv) for cu in u.cyls for cv in v.cyls]
        want = sorted(c.key() for c in pairs if c is not None)
        assert sorted(c.key() for c in compose(u, v).cyls) == want

    @given(st.lists(st.tuples(st.integers(0, 1), WORDS), min_size=2, max_size=8))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_validate_finds_every_domain_clash(self, sides):
        # distinct ranges, so a clash can only be between domains
        monomials = [(f"{k:03b}".replace("0", "R").replace("1", "L"), word, 1.0, 0, slot) for k, (slot, word) in enumerate(sides)]
        clashes = [
            (a, b)
            for i, a in enumerate(sides)
            for b in sides[i + 1 :]
            if a[0] == b[0] and (a[1].startswith(b[1]) or b[1].startswith(a[1]))
        ]
        if not clashes:
            PartialInjectionOp.cylinders(monomials)
            return
        with pytest.raises(DisjointnessError, match="cylinder domains overlap") as exc:
            PartialInjectionOp.cylinders(monomials)
        witness = exc.value.index
        assert any(_inside(a[1], witness, a[0]) and _inside(b[1], witness, b[0]) for a, b in clashes)

    def test_domain_overlap_witness(self):
        # domains LR and L overlap, with clean cylinders between them in order
        with pytest.raises(DisjointnessError, match="cylinder domains overlap") as exc:
            PartialInjectionOp.cylinders([("RR", "LR", 1, 0, 0), ("RL", "RR", 1, 0, 0), ("LL", "L", 1, 0, 0)])
        assert _inside("L", exc.value.index, 0) and _inside("LR", exc.value.index, 0)

    def test_range_overlap_witness(self):
        with pytest.raises(DisjointnessError, match="cylinder ranges overlap") as exc:
            PartialInjectionOp.cylinders([("R", "RR", 1, 2, 0), ("L", "RL", 1, 2, 0), ("RLL", "L", 1, 2, 0)])
        assert _inside("R", exc.value.index, 2) and _inside("RLL", exc.value.index, 2)

    def test_table_inside_cylinder_domain(self):
        with pytest.raises(DisjointnessError, match="table and cylinder domains overlap"):
            PartialInjectionOp({Idx(word_apply("LR", 5)): (Idx(1, 3), 1.0)}, cyls=PartialInjectionOp.cylinder("R", "L").cyls)

    def test_equal_words_on_other_slots_do_not_clash(self):
        u = PartialInjectionOp.cylinders([("R", "R", 1, 0, 0), ("R", "R", 1, 1, 1), ("L", "L", -1, 1, 1)])
        assert u.apply(Idx(2, 0)) == (Idx(2, 0), 1.0 + 0j)
        assert u.apply(Idx(3, 1)) == (Idx(3, 1), -1.0 + 0j)
        assert u.apply(Idx(3, 0)) is None
        range_projection = PartialInjectionOp.cylinders([("R", "R", 1, 0, 0), ("R", "R", 1, 1, 1), ("L", "L", 1, 1, 1)])
        assert compose(u, adjoint(u)) == range_projection


def pairing(u, v):
    """R u R* + L v L*, the internalised pairing, from the kept isometries and sums."""
    R, L = r_isometry(), l_isometry()
    return sum_disjoint(compose(compose(R, u), adjoint(R)), compose(compose(L, v), adjoint(L)))


class TestInternalPairing:
    def test_pairing_zero(self):
        assert pairing(PartialInjectionOp.zero(), PartialInjectionOp.zero()).is_zero()

    def test_pairing_copies(self):
        ii = PartialInjectionOp.identity_on([0])
        assert pairing(ii, ii) == PartialInjectionOp.identity_on([0, 1])

    def test_pairing_summands_disjoint(self):
        u = PartialInjectionOp.from_table({0: 3})
        v = PartialInjectionOp.from_table({0: 3})
        oo = pairing(u, v)  # sum_disjoint would raise if the R and L conjugates clashed
        assert oo.apply(0)[0] == Idx(6) and oo.apply(1)[0] == Idx(7)


class TestPartialSymmetry:
    def test_axiom_swap_shape(self):
        tta = compose(l_isometry(), adjoint(r_isometry()))  # L R*: even to odd
        assert tta.apply(4)[0] == Idx(5)
        assert tta.apply(5) is None
        assert not is_partial_symmetry(tta)
        assert is_partial_symmetry(sum_disjoint(tta, adjoint(tta)))

    def test_projection_is_symmetry(self):
        p = PartialInjectionOp.identity_on([2, 4])
        assert is_partial_symmetry(p)

    @given(st.one_of(partial_injections(), symmetrised_tables()))
    @settings(max_examples=200, deadline=None)
    def test_partial_symmetry_matches_its_matrix(self, u):
        support = sorted({i for src, (dst, _) in u.table.items() for i in (src, dst)})
        m = table_matrix(u, tuple(support)).mat
        expected = np.array_equal(m, m.conj().T) and np.array_equal(m @ m @ m, m)
        assert is_partial_symmetry(u) == expected

    @given(st.one_of(partial_injections(), symmetrised_tables(), st.sampled_from(MIXED + SELF_ADJOINT_CYLINDERS)))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_self_adjoint_is_enough(self, u):
        # the cube the check no longer takes, as its oracle: a self-adjoint partial isometry has u^3 = u
        cubed = compose(compose(u, u), u) == u
        assert is_partial_symmetry(u) == (u == adjoint(u) and cubed)
        assert cubed or u != adjoint(u)

    def test_tables_and_cylinders_only(self):
        u = PartialInjectionOp.from_table({0: 1})
        with pytest.raises(TypeError):
            PartialInjectionOp(rules=())
        with pytest.raises(TypeError):
            nilpotency(u, seeds=[0])
        with pytest.raises(TypeError):
            is_partial_symmetry(u, budget=10)
        assert PartialInjectionOp().rules == ()


class TestNilpotency:
    def test_single_arrow(self):
        res = nilpotency(PartialInjectionOp.from_table({0: 1}))
        assert res.kind == "nilpotent" and res.degree == 2

    def test_swap_cycles(self):
        res = nilpotency(PartialInjectionOp.from_table({0: 1, 1: 0}))
        assert res.kind == "cyclic" and res.witness is not None

    def test_chain_longer_than_budget_exceeds(self):
        chain = PartialInjectionOp.from_table({n: n + 1 for n in range(20)})
        assert nilpotency(chain, budget=10) == NilpotencyResult("exceeded", budget=10)
        assert nilpotency(chain) == NilpotencyResult("nilpotent", degree=21)

    @given(partial_injections())
    @settings(max_examples=60, deadline=None)
    def test_finite_tables_never_exceed(self, u):
        assert nilpotency(u).kind in ("nilpotent", "cyclic")

    def test_symbolic_cylinder_powering(self):
        # L R^*-style swap between two disjoint cylinders dies exactly
        u = PartialInjectionOp.cylinder("L", "R")
        res = nilpotency(u)
        assert res.kind == "nilpotent" and res.degree == 2

    def test_symbolic_cycle(self):
        u = sum_disjoint(PartialInjectionOp.cylinder("L", "R"), PartialInjectionOp.cylinder("R", "L"))
        assert nilpotency(u).kind == "cyclic"


class TestBetaCodec:
    def test_anchors(self):
        assert beta_encode(0, 0) == 0
        assert beta_encode(1, 2) == 9
        assert beta_decode(9) == (1, 2)

    def test_bijection_exhaustive(self):
        for n in range(64):
            for m in range(64):
                assert beta_decode(beta_encode(n, m)) == (n, m)
        for k in range(2**16):
            n, m = beta_decode(k)
            assert beta_encode(n, m) == k

    def test_negative_arguments_rejected(self):
        for args in ((-1, 0), (0, -1)):
            with pytest.raises(ValueError):
                beta_encode(*args)
        with pytest.raises(ValueError):
            beta_decode(-1)

    @given(st.integers(0, 10**9))
    def test_bijection_property(self, k):
        n, m = beta_decode(k)
        assert beta_encode(n, m) == k


class TestRestriction:
    def test_restrict_outside_points(self):
        u = PartialInjectionOp.from_table({0: 1, 2: 3})
        out = restrict_outside(u, Region(points=[1]))
        assert out == PartialInjectionOp.from_table({2: 3})

    def test_restrict_cylinder_split(self):
        u = PartialInjectionOp.cylinder("", "")  # identity
        out = restrict_outside(u, Region(cylinders=[("R", 0)]))
        # identity on the odd half only
        assert out.apply(2) is None
        assert out.apply(3) == (Idx(3), 1.0 + 0j)
